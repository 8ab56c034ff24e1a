// Tests for the automaton toolbox (spanner/nfa.h): marker-path collapsing +
// eps removal (Normalize), trimming, the sentinel transform of Section 6.1,
// subset-construction determinization, and symbol-sequence simulation.

#include "gtest/gtest.h"
#include "spanner/nfa.h"
#include "spanner/ref_eval.h"
#include "spanner/spanner.h"
#include "test_util.h"

namespace slpspan {
namespace {

TEST(Nfa, ArcAccountingAndFlags) {
  Nfa nfa;
  const StateId s1 = nfa.AddState();
  const StateId s2 = nfa.AddState();
  nfa.AddCharArc(0, 'a', s1);
  nfa.AddMarkArc(s1, OpenMarker(0), s2);
  nfa.AddEpsArc(s2, 0);
  nfa.SetAccepting(s2);
  EXPECT_EQ(nfa.NumStates(), 3u);
  EXPECT_EQ(nfa.NumTransitions(), 3u);
  EXPECT_TRUE(nfa.HasEpsArcs());
  EXPECT_TRUE(nfa.HasAcceptingState());
  EXPECT_FALSE(nfa.IsDeterministic());
}

TEST(Normalize, MergesMarkerPathsIntoSets) {
  // Raw: 0 --<x--> 1 --eps--> 2 -->x--> 3 --a--> 4(acc): the subword-marked
  // language is { {<x,>x} a } — one merged set symbol then 'a'.
  Nfa raw;
  const StateId s1 = raw.AddState(), s2 = raw.AddState(), s3 = raw.AddState(),
                s4 = raw.AddState();
  raw.AddMarkArc(0, OpenMarker(0), s1);
  raw.AddEpsArc(s1, s2);
  raw.AddMarkArc(s2, CloseMarker(0), s3);
  raw.AddCharArc(s3, 'a', s4);
  raw.SetAccepting(s4);

  const Nfa norm = Normalize(raw);
  EXPECT_FALSE(norm.HasEpsArcs());
  // The merged arc 0 --{<x,>x}--> s3 must exist.
  bool found_merged = false;
  for (const Nfa::MarkArc& a : norm.MarkArcsFrom(0)) {
    if (a.mask == (OpenMarker(0) | CloseMarker(0)) && a.to == s3) found_merged = true;
  }
  EXPECT_TRUE(found_merged);

  SymbolTable table;
  const SymbolId both = table.InternMask(OpenMarker(0) | CloseMarker(0));
  EXPECT_TRUE(AcceptsSymbols(norm, {both, 'a'}, &table));
  // Un-merged adjacent singleton sets are *not* in the set-semantics language.
  const SymbolId open_only = table.InternMask(OpenMarker(0));
  const SymbolId close_only = table.InternMask(CloseMarker(0));
  EXPECT_FALSE(AcceptsSymbols(norm, {open_only, close_only, 'a'}, &table));
}

TEST(Normalize, DropsMarkerRepetitionPaths) {
  // 0 --<x--> 1 --<x--> 2 --a--> 3(acc): repeating <x can never occur in a
  // well-formed subword-marked word, so the normalized NFA accepts nothing.
  Nfa raw;
  const StateId s1 = raw.AddState(), s2 = raw.AddState(), s3 = raw.AddState();
  raw.AddMarkArc(0, OpenMarker(0), s1);
  raw.AddMarkArc(s1, OpenMarker(0), s2);
  raw.AddCharArc(s2, 'a', s3);
  raw.SetAccepting(s3);
  const Nfa norm = Normalize(raw);
  for (const Nfa::MarkArc& a : norm.MarkArcsFrom(0)) {
    EXPECT_NE(a.to, s2);  // no arc may reach s2 with the doubled marker
  }
  SymbolTable table;
  const SymbolId open2 = table.InternMask(OpenMarker(0));
  EXPECT_FALSE(AcceptsSymbols(norm, {open2, open2, 'a'}, &table));
}

TEST(Normalize, PlainEpsRemoval) {
  Nfa raw;  // (a|eps) b
  const StateId s1 = raw.AddState(), s2 = raw.AddState();
  raw.AddCharArc(0, 'a', s1);
  raw.AddEpsArc(0, s1);
  raw.AddCharArc(s1, 'b', s2);
  raw.SetAccepting(s2);
  const Nfa norm = Normalize(raw);
  EXPECT_FALSE(norm.HasEpsArcs());
  EXPECT_TRUE(AcceptsSymbols(norm, {'b'}, nullptr));
  EXPECT_TRUE(AcceptsSymbols(norm, {'a', 'b'}, nullptr));
  EXPECT_FALSE(AcceptsSymbols(norm, {'a'}, nullptr));
}

TEST(Normalize, AcceptanceThroughTrailingMarkers) {
  // 0 --a--> 1 --<x,>x--> 2(acc): word "a {<x,>x}" ends on a set symbol.
  Nfa raw;
  const StateId s1 = raw.AddState(), s2 = raw.AddState();
  raw.AddCharArc(0, 'a', s1);
  raw.AddMarkArc(s1, OpenMarker(0) | CloseMarker(0), s2);
  raw.SetAccepting(s2);
  const Nfa norm = Normalize(raw);
  SymbolTable table;
  const SymbolId both = table.InternMask(OpenMarker(0) | CloseMarker(0));
  EXPECT_TRUE(AcceptsSymbols(norm, {'a', both}, &table));
  EXPECT_FALSE(AcceptsSymbols(norm, {'a'}, &table));
}

TEST(Trim, RemovesUselessStates) {
  Nfa nfa;
  const StateId acc = nfa.AddState();
  const StateId dead = nfa.AddState();       // reachable, cannot accept
  const StateId unreachable = nfa.AddState();
  nfa.AddCharArc(0, 'a', acc);
  nfa.AddCharArc(0, 'b', dead);
  nfa.AddCharArc(unreachable, 'a', acc);
  nfa.SetAccepting(acc);
  const Nfa trimmed = Trim(nfa);
  EXPECT_EQ(trimmed.NumStates(), 2u);  // start + acc
  EXPECT_TRUE(AcceptsSymbols(trimmed, {'a'}, nullptr));
  EXPECT_FALSE(AcceptsSymbols(trimmed, {'b'}, nullptr));
}

TEST(Trim, EmptyLanguageKeepsStartOnly) {
  Nfa nfa;
  const StateId s1 = nfa.AddState();
  nfa.AddCharArc(0, 'a', s1);  // no accepting state at all
  const Nfa trimmed = Trim(nfa);
  EXPECT_EQ(trimmed.NumStates(), 1u);
  EXPECT_FALSE(trimmed.HasAcceptingState());
}

TEST(AppendSentinel, OnlyNewStateAccepts) {
  Nfa nfa;
  const StateId s1 = nfa.AddState();
  nfa.AddCharArc(0, 'a', s1);
  nfa.SetAccepting(s1);
  const Nfa with = AppendSentinel(nfa);
  EXPECT_EQ(with.NumStates(), 3u);
  EXPECT_FALSE(with.IsAccepting(s1));
  EXPECT_TRUE(AcceptsSymbols(with, {'a', kSentinelSymbol}, nullptr));
  EXPECT_FALSE(AcceptsSymbols(with, {'a'}, nullptr));
}

TEST(ProjectMarkersToEps, ErasesMarkerContent) {
  Nfa nfa;
  const StateId s1 = nfa.AddState(), s2 = nfa.AddState();
  nfa.AddMarkArc(0, OpenMarker(0), s1);
  nfa.AddCharArc(s1, 'a', s2);
  nfa.SetAccepting(s2);
  const Nfa projected = Normalize(ProjectMarkersToEps(nfa));
  EXPECT_TRUE(AcceptsSymbols(projected, {'a'}, nullptr));
}

TEST(Determinize, EquivalentOnSampleWords) {
  const Spanner sp = testing_util::MakeFigure2Spanner();
  const Nfa& norm = sp.normalized();
  const Nfa det = Determinize(norm).value();
  EXPECT_TRUE(det.IsDeterministic());

  SymbolTable table;
  const SymbolId ox = table.InternMask(OpenMarker(0));
  const SymbolId cx = table.InternMask(CloseMarker(0));
  const SymbolId oy = table.InternMask(OpenMarker(1));
  const SymbolId cy = table.InternMask(CloseMarker(1));
  const std::vector<std::vector<SymbolId>> samples = {
      {'a', 'b', 'c'},                      // no markers: not in language
      {ox, 'a', cx},                        // x = [1,2>
      {ox, 'a', 'b', cx, 'c'},              // x = [1,3>
      {'a', oy, 'c', 'c', cy, 'a'},         // y around cc
      {oy, 'c', cy},                        // y = [1,2>
      {ox, 'c', cx},                        // x over 'c': rejected
      {'a', ox, 'b', cx},                   // x = [2,3>
      {ox, 'a', cx, oy, 'c', cy},           // both variables: rejected
      {cx, 'a', ox},                        // inverted markers: rejected
  };
  for (const auto& word : samples) {
    EXPECT_EQ(AcceptsSymbols(norm, word, &table), AcceptsSymbols(det, word, &table));
  }
}

TEST(Determinize, Figure2IsAlreadyDeterministic) {
  // The paper presents Figure 2 as a DFA; normalization preserves that here.
  const Spanner sp = testing_util::MakeFigure2Spanner();
  EXPECT_TRUE(sp.normalized().IsDeterministic());
}

TEST(Determinize, CollapsesNondeterminism) {
  Nfa nfa;  // two 'a' arcs from the start
  const StateId s1 = nfa.AddState(), s2 = nfa.AddState();
  nfa.AddCharArc(0, 'a', s1);
  nfa.AddCharArc(0, 'a', s2);
  nfa.AddCharArc(s1, 'b', s1);
  nfa.AddCharArc(s2, 'c', s2);
  nfa.SetAccepting(s1);
  nfa.SetAccepting(s2);
  EXPECT_FALSE(nfa.IsDeterministic());
  const Nfa det = Determinize(nfa).value();
  EXPECT_TRUE(det.IsDeterministic());
  EXPECT_TRUE(AcceptsSymbols(det, {'a'}, nullptr));
  EXPECT_TRUE(AcceptsSymbols(det, {'a', 'b'}, nullptr));
  EXPECT_TRUE(AcceptsSymbols(det, {'a', 'c'}, nullptr));
  EXPECT_FALSE(AcceptsSymbols(det, {'a', 'b', 'c'}, nullptr));
}

TEST(Spanner, FromAutomatonRejectsUndeclaredVariables) {
  VariableSet vars;
  (void)vars.Intern("x");
  Nfa nfa;
  const StateId s1 = nfa.AddState();
  nfa.AddMarkArc(0, OpenMarker(5), s1);  // variable 5 not declared
  nfa.SetAccepting(s1);
  EXPECT_FALSE(Spanner::FromAutomaton(std::move(nfa), std::move(vars)).ok());
}

}  // namespace
}  // namespace slpspan
