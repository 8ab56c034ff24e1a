// Tests for Theorem 8.10 (core/enumerate.h): the compressed enumerator must
// produce exactly the computed result set, duplicate-free when the automaton
// is a DFA, across documents, spanners, and SLP shapes (balanced, chain,
// RePair, LZ78).

#include <string>

#include "gtest/gtest.h"
#include "core/evaluator.h"
#include "slpspan/document.h"
#include "slpspan/engine.h"
#include "slpspan/query.h"
#include "slp/factory.h"
#include "spanner/ref_eval.h"
#include "test_util.h"
#include "textgen/textgen.h"

namespace slpspan {
namespace {

using testing_util::AllSlpKinds;
using testing_util::ExpectSameTupleSet;
using testing_util::MakeFigure2Spanner;
using testing_util::MakeIntroSpanner;
using testing_util::MakeSlp;
using testing_util::SlpKind;
using testing_util::Tup;

std::vector<SpanTuple> Drain(const SpannerEvaluator& ev, const PreparedDocument& prep) {
  std::vector<SpanTuple> out;
  for (CompressedEnumerator e = ev.Enumerate(prep); e.Valid(); e.Next()) {
    out.push_back(e.Current());
  }
  return out;
}

TEST(Enumerate, Figure2OnExample42) {
  const Spanner sp = MakeFigure2Spanner();
  SpannerEvaluator ev(sp);
  RefEvaluator ref(sp);
  const PreparedDocument prep = ev.Prepare(testing_util::MakeExample42Slp());
  const std::vector<SpanTuple> enumerated = Drain(ev, prep);
  EXPECT_EQ(enumerated.size(), 24u);
  ExpectSameTupleSet(ref.ComputeAll("aabccaabaa"), enumerated);
}

TEST(Enumerate, PaperExample82TuplePresent) {
  // The Figure 4 walk-through: (x=⊥, y=[4,6>) must be enumerated.
  const Spanner sp = MakeFigure2Spanner();
  SpannerEvaluator ev(sp);
  const PreparedDocument prep = ev.Prepare(testing_util::MakeExample42Slp());
  const SpanTuple expected = Tup({std::nullopt, Span{4, 6}});
  bool found = false;
  for (CompressedEnumerator e = ev.Enumerate(prep); e.Valid(); e.Next()) {
    if (e.Current() == expected) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Enumerate, DfaEnumerationIsDuplicateFree) {
  const Spanner sp = MakeFigure2Spanner();
  SpannerEvaluator ev(sp, {.determinize = true});
  for (SlpKind kind : AllSlpKinds()) {
    const PreparedDocument prep = ev.Prepare(MakeSlp(kind, "aabccaabaa"));
    std::vector<SpanTuple> tuples = testing_util::Sorted(Drain(ev, prep));
    for (size_t i = 1; i < tuples.size(); ++i) {
      EXPECT_FALSE(tuples[i - 1] == tuples[i])
          << "duplicate via " << testing_util::SlpKindName(kind);
    }
    EXPECT_EQ(tuples.size(), 24u);
  }
}

TEST(Enumerate, NfaEnumerationCoversSetPossiblyWithDuplicates) {
  // The paper's remark after Theorem 8.10: running on an NFA stays correct
  // as a multi-set cover of the result set.
  const Spanner sp = MakeIntroSpanner();
  SpannerEvaluator nondet(sp, {.determinize = false});
  RefEvaluator ref(sp);
  const PreparedDocument prep = nondet.Prepare(SlpFromString("abcca").value());
  std::vector<SpanTuple> tuples = Drain(nondet, prep);
  ASSERT_GE(tuples.size(), 3u);
  std::vector<SpanTuple> dedup = testing_util::Sorted(std::move(tuples));
  dedup.erase(std::unique(dedup.begin(), dedup.end(),
                          [](const SpanTuple& a, const SpanTuple& b) { return a == b; }),
              dedup.end());
  ExpectSameTupleSet(ref.ComputeAll("abcca"), dedup);
}

TEST(Enumerate, MatchesComputeOnManyDocs) {
  const Spanner spanners[] = {MakeFigure2Spanner(), MakeIntroSpanner()};
  const std::vector<std::string> docs = {"a",    "ac",    "abcca", "cabac",
                                         "aaaa", "ccccc", "abcabcabc", "bac"};
  for (const Spanner& sp : spanners) {
    SpannerEvaluator ev(sp);
    for (const std::string& doc : docs) {
      const PreparedDocument prep = ev.Prepare(SlpFromString(doc).value());
      ExpectSameTupleSet(ev.ComputeAll(prep), Drain(ev, prep));
    }
  }
}

TEST(Enumerate, EmptyResultSetIsInvalidImmediately) {
  Result<Spanner> sp = Spanner::Compile(".*x{b}.*", "ab");
  ASSERT_TRUE(sp.ok());
  SpannerEvaluator ev(*sp);
  const PreparedDocument prep = ev.Prepare(SlpFromString("aaa").value());
  CompressedEnumerator e = ev.Enumerate(prep);
  EXPECT_FALSE(e.Valid());
}

TEST(Enumerate, EmptyTupleOnly) {
  Result<Spanner> sp = Spanner::Compile("(x{b})?a+", "ab");
  ASSERT_TRUE(sp.ok());
  SpannerEvaluator ev(*sp);
  const PreparedDocument prep = ev.Prepare(SlpFromString("aaa").value());
  CompressedEnumerator e = ev.Enumerate(prep);
  ASSERT_TRUE(e.Valid());
  EXPECT_TRUE(e.Current() == Tup({std::nullopt}));
  e.Next();
  EXPECT_FALSE(e.Valid());
}

TEST(Enumerate, ExponentiallyCompressedDocument) {
  // x{aa} at every position of a^(2^16): 2^16 - 1 tuples enumerated off a
  // 17-rule grammar; check count and a few members without expansion.
  Result<Spanner> sp = Spanner::Compile("a*x{aa}a*", "a");
  ASSERT_TRUE(sp.ok());
  SpannerEvaluator ev(*sp);
  const Slp slp = SlpPowerString('a', 16);
  const PreparedDocument prep = ev.Prepare(slp);
  uint64_t count = 0;
  uint64_t begin_sum = 0;
  for (CompressedEnumerator e = ev.Enumerate(prep); e.Valid(); e.Next()) {
    const SpanTuple t = e.Current();
    ASSERT_TRUE(t.Get(0).has_value());
    ASSERT_EQ(t.Get(0)->length(), 2u);
    begin_sum += t.Get(0)->begin;
    ++count;
  }
  const uint64_t n = 1ull << 16;
  EXPECT_EQ(count, n - 1);
  EXPECT_EQ(begin_sum, (n - 1) * n / 2);  // begins are exactly 1..n-1
}

TEST(Enumerate, RebalanceOptionPreservesResults) {
  const Spanner sp = MakeFigure2Spanner();
  SpannerEvaluator plain(sp, {.rebalance = false});
  SpannerEvaluator rebal(sp, {.rebalance = true});
  const std::string doc = GenerateRepeated("aabcc", 50);
  const Slp chain = SlpChainFromString(doc).value();
  const PreparedDocument prep_plain = plain.Prepare(chain);
  const PreparedDocument prep_rebal = rebal.Prepare(chain);
  EXPECT_LT(prep_rebal.slp().depth(), prep_plain.slp().depth() / 4);
  ExpectSameTupleSet(Drain(plain, prep_plain), Drain(rebal, prep_rebal));
}

TEST(Enumerate, GeneratedWorkloadAgainstReference) {
  const std::string log = GenerateLog({.lines = 12, .seed = 3});
  std::string alphabet;
  for (char c = 32; c < 127; ++c) alphabet += c;
  alphabet += '\n';
  Result<Spanner> sp =
      Spanner::Compile(".*user=x{u[0-9]+} action=y{[A-Z]+} .*", alphabet);
  ASSERT_TRUE(sp.ok());
  SpannerEvaluator ev(*sp);
  RefEvaluator ref(*sp);
  const PreparedDocument prep = ev.Prepare(RePairCompress(log));
  ExpectSameTupleSet(ref.ComputeAll(log), Drain(ev, prep));
}

// ---------------------------------------------------------------------------
// Enumeration order. The tests above compare sets; these pin the exact
// sequence Engine::Extract produces — Algorithm 1's order: (k_B, k_C) pairs
// outermost, then the left subtree, then the right subtree, yields
// innermost. The expected sequences were recorded from the original
// recursive-odometer cursor, so a cursor rewrite has to reproduce them.
// ---------------------------------------------------------------------------

/// "begin-end" or "_" per variable, joined by ','; tuples joined by ' '.
std::string RenderSequence(const std::vector<SpanTuple>& tuples) {
  std::string out;
  for (size_t n = 0; n < tuples.size(); ++n) {
    if (n > 0) out += ' ';
    for (VarId v = 0; v < tuples[n].num_vars(); ++v) {
      if (v > 0) out += ',';
      const std::optional<Span>& span = tuples[n].Get(v);
      out += span ? std::to_string(span->begin) + "-" + std::to_string(span->end)
                  : "_";
    }
  }
  return out;
}

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Figure2Order(SlpKind kind) {
  // The first 15 tuples (x at [6,11>) and the last 6 (x at [1,4>) come in
  // tree order, which depends on the grammar's shape.
  const std::string tail = " _,5-6 _,4-6 _,4-5 3-4,_ 2-4,_ 1-4,_ 2-3,_ 1-3,_ 1-2,_";
  switch (kind) {
    case SlpKind::kBalanced:
    case SlpKind::kBalancedNoDedup:
      return "10-11,_ 9-11,_ 8-11,_ 7-11,_ 6-11,_ 9-10,_ 8-10,_ 7-10,_ 6-10,_ "
             "8-9,_ 7-9,_ 6-9,_ 7-8,_ 6-8,_ 6-7,_ _,5-6 _,4-6 _,4-5 3-4,_ "
             "2-4,_ 2-3,_ 1-4,_ 1-3,_ 1-2,_";
    case SlpKind::kChain:
    case SlpKind::kRePair:
      return "10-11,_ 9-11,_ 8-11,_ 7-11,_ 6-11,_ 9-10,_ 8-10,_ 7-10,_ 6-10,_ "
             "8-9,_ 7-9,_ 6-9,_ 7-8,_ 6-8,_ 6-7,_" + tail;
    case SlpKind::kLz78:
      return "10-11,_ 9-11,_ 8-11,_ 7-11,_ 6-11,_ 9-10,_ 8-10,_ 7-10,_ 8-9,_ "
             "7-9,_ 7-8,_ 6-10,_ 6-9,_ 6-8,_ 6-7,_" + tail;
    case SlpKind::kRebalancedLz78:
      return "10-11,_ 9-11,_ 8-11,_ 7-11,_ 6-11,_ 9-10,_ 8-10,_ 8-9,_ 7-10,_ "
             "7-9,_ 7-8,_ 6-10,_ 6-9,_ 6-8,_ 6-7,_" + tail;
  }
  return "";
}

TEST(EnumerateOrder, PaperFixturesUnderEverySlpKind) {
  const Spanner figure2 = MakeFigure2Spanner();
  for (SlpKind kind : AllSlpKinds()) {
    for (bool det : {true, false}) {
      SCOPED_TRACE(std::string(testing_util::SlpKindName(kind)) +
                   (det ? " determinized" : " as written"));
      const DocumentPtr doc = Document::FromSlp(MakeSlp(kind, "aabccaabaa"));
      Result<Query> fig2 = Query::FromAutomaton(figure2.raw(), figure2.vars(),
                                                {.determinize = det});
      ASSERT_TRUE(fig2.ok());
      EXPECT_EQ(RenderSequence(Engine(*fig2, doc).ExtractAll()),
                Figure2Order(kind));
      Result<Query> intro =
          Query::Compile("(b|c)*x{a}.*y{cc*}.*", "abc", {.determinize = det});
      ASSERT_TRUE(intro.ok());
      EXPECT_EQ(RenderSequence(Engine(*intro, doc).ExtractAll()),
                "1-2,5-6 1-2,4-6 1-2,4-5");
    }
  }
}

TEST(EnumerateOrder, GeneratedLog) {
  std::string alphabet;
  for (char c = 32; c < 127; ++c) alphabet += c;
  alphabet += '\n';
  Result<Query> same_line =
      Query::Compile(".*user=x{u[0-9]+} action=y{[A-Z]+} .*", alphabet);
  ASSERT_TRUE(same_line.ok());
  // x and y in different lines: the trees have inner nodes where both the
  // left and the right subtree have further trees, so the relative speed
  // of the two subtree loops shows in the order.
  Result<Query> cross_line =
      Query::Compile(".*x{user=u1} .*y{status=500}.*", alphabet);
  ASSERT_TRUE(cross_line.ok());
  const std::string log = GenerateLog({.lines = 60});
  struct Expected {
    Compression method;
    uint64_t cross_line_hash;
  };
  for (const Expected& e : {Expected{Compression::kRePair, 0xea53237c7034ceb7ull},
                            Expected{Compression::kLz78, 0x9f6e8c3173fcc1cfull}}) {
    Result<DocumentPtr> doc = Document::FromText(log, e.method);
    ASSERT_TRUE(doc.ok());
    const std::vector<SpanTuple> tuples = Engine(*same_line, *doc).ExtractAll();
    ASSERT_EQ(tuples.size(), 60u);
    const std::string order = RenderSequence(tuples);
    // One tuple per line, last line first.
    const std::string head =
        "2509-2511,2519-2522 2467-2469,2477-2480 2425-2427,2435-2438 ";
    EXPECT_EQ(order.substr(0, head.size()), head);
    EXPECT_EQ(Fnv1a64(order), 0xc5fda63e2b54bc4aull);

    const std::vector<SpanTuple> pairs = Engine(*cross_line, *doc).ExtractAll();
    ASSERT_EQ(pairs.size(), 87u);
    EXPECT_EQ(Fnv1a64(RenderSequence(pairs)), e.cross_line_hash);
  }
}

}  // namespace
}  // namespace slpspan
