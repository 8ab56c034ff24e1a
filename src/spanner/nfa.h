// Finite automata over Sigma ∪ P(Gamma_X) — paper Sections 2 and 3.2.
//
// An Nfa has three arc kinds:
//   * char arcs   labelled with a terminal SymbolId (byte or sentinel),
//   * mark arcs   labelled with a non-empty MarkerMask (a P(Gamma_X) symbol),
//   * eps arcs    (only in "raw" automata, e.g. fresh Thompson constructions).
//
// The evaluation algorithms require automata in *normalized* form: no eps
// arcs, mark arcs carrying fully merged marker sets (the extended-VA style
// set transitions of [Florenzano et al.], which the paper adopts). Normalize()
// produces this form from any raw automaton; Determinize() additionally
// yields the DFA required by the enumeration algorithm (Theorem 8.10).
//
// State 0 is always the start state (the paper's state 1).

#ifndef SLPSPAN_SPANNER_NFA_H_
#define SLPSPAN_SPANNER_NFA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "slp/slp.h"
#include "spanner/symbol_table.h"
#include "spanner/variables.h"

namespace slpspan {

using StateId = uint32_t;

/// Nondeterministic finite automaton over Sigma ∪ P(Gamma_X).
class Nfa {
 public:
  struct CharArc {
    SymbolId sym;
    StateId to;
  };
  struct MarkArc {
    MarkerMask mask;
    StateId to;
  };

  Nfa() { AddState(); }  // state 0 = start

  StateId AddState() {
    char_arcs_.emplace_back();
    mark_arcs_.emplace_back();
    eps_arcs_.emplace_back();
    accepting_.push_back(false);
    return static_cast<StateId>(accepting_.size() - 1);
  }

  uint32_t NumStates() const { return static_cast<uint32_t>(accepting_.size()); }

  void AddCharArc(StateId from, SymbolId sym, StateId to) {
    SLPSPAN_DCHECK(from < NumStates() && to < NumStates());
    char_arcs_[from].push_back({sym, to});
  }
  void AddMarkArc(StateId from, MarkerMask mask, StateId to) {
    SLPSPAN_DCHECK(from < NumStates() && to < NumStates());
    SLPSPAN_CHECK(mask != 0);
    mark_arcs_[from].push_back({mask, to});
  }
  void AddEpsArc(StateId from, StateId to) {
    SLPSPAN_DCHECK(from < NumStates() && to < NumStates());
    eps_arcs_[from].push_back(to);
  }

  void SetAccepting(StateId s, bool accepting = true) {
    SLPSPAN_DCHECK(s < NumStates());
    accepting_[s] = accepting;
  }
  bool IsAccepting(StateId s) const { return accepting_[s]; }
  bool HasAcceptingState() const;

  const std::vector<CharArc>& CharArcsFrom(StateId s) const { return char_arcs_[s]; }
  const std::vector<MarkArc>& MarkArcsFrom(StateId s) const { return mark_arcs_[s]; }
  const std::vector<StateId>& EpsArcsFrom(StateId s) const { return eps_arcs_[s]; }

  /// |M| in the paper: total number of transitions.
  uint64_t NumTransitions() const;

  bool HasEpsArcs() const;

  /// True if eps-free and no state has two arcs with the same label.
  bool IsDeterministic() const;

  std::string DebugString() const;

 private:
  std::vector<std::vector<CharArc>> char_arcs_;
  std::vector<std::vector<MarkArc>> mark_arcs_;
  std::vector<std::vector<StateId>> eps_arcs_;
  std::vector<bool> accepting_;
};

/// Collapses marker paths into merged set transitions (VA -> extended-VA) and
/// removes eps arcs. The result accepts exactly the merged-form subword-
/// marked words of the input's language. Paths repeating a marker are
/// discarded (they can never occur in a well-formed subword-marked word).
Nfa Normalize(const Nfa& raw);

/// Keeps only states that are reachable from the start *and* can reach an
/// accepting state. The start state is always kept. Input must be eps-free.
Nfa Trim(const Nfa& nfa);

/// The Section 6.1 transform L -> L·# that makes every spanner
/// non-tail-spanning: adds one fresh state f, an arc q --#--> f from every
/// accepting q, and makes f the only accepting state. Input must be eps-free.
Nfa AppendSentinel(const Nfa& nfa, SymbolId sentinel = kSentinelSymbol);

/// Replaces every mark arc by an eps arc (existential projection of the
/// markers — used by the non-emptiness check, Theorem 5.1(1)).
Nfa ProjectMarkersToEps(const Nfa& nfa);

/// Most states an evaluation automaton may have: the Lemma 6.5 and counting
/// tables pack state ids into 16 bits.
constexpr uint32_t kMaxEvalStates = 0xFFFF;

/// Subset construction. Input must be eps-free; output is deterministic over
/// the symbols/masks that actually occur. Fails with kNotSupported as soon
/// as the construction passes kMaxEvalStates subset states, so an
/// exponential blow-up costs at most that many.
Result<Nfa> Determinize(const Nfa& nfa);

/// Simulates `nfa` (may contain eps arcs) on a symbol sequence that may
/// contain interned mask symbols; `table` decodes them (may be null if the
/// sequence has none). O(|word| * |M|).
bool AcceptsSymbols(const Nfa& nfa, const std::vector<SymbolId>& word,
                    const SymbolTable* table);

}  // namespace slpspan

#endif  // SLPSPAN_SPANNER_NFA_H_
