// SpannerEvaluator — the library facade tying the paper together.
//
// Construction compiles the spanner's normalized automaton into the three
// views the tasks need (all cached across documents):
//   * non-emptiness: markers projected to eps, re-normalized   (Thm 5.1(1)),
//   * model checking: sentinel-extended automaton              (Thm 5.1(2)),
//   * computation & enumeration: sentinel-extended automaton,
//     determinized by default (required for duplicate-free enumeration,
//     Theorem 8.10; affects combined complexity only).
//
// Per-document preprocessing (Prepare) appends the sentinel to the SLP and
// builds the Lemma 6.5 tables in O(|M| + size(S)·q³); ComputeAll/Enumerate
// then run Theorem 7.1 / Theorem 8.10 on top.

#ifndef SLPSPAN_CORE_EVALUATOR_H_
#define SLPSPAN_CORE_EVALUATOR_H_

#include <memory>
#include <vector>

#include "core/count.h"
#include "core/enumerate.h"
#include "core/tables.h"
#include "slp/slp.h"
#include "spanner/marker.h"
#include "spanner/spanner.h"

namespace slpspan {

struct EvaluatorOptions {
  /// Determinize the evaluation automaton (subset construction). Required
  /// for duplicate-free enumeration; with `false`, Enumerate may emit
  /// duplicates (the paper's NFA remark after Theorem 8.10) and ComputeAll
  /// still deduplicates via sorted merges.
  bool determinize = true;

  /// Rebalance input SLPs (Theorem 4.3 stand-in, slp/balance.h) inside
  /// Prepare, guaranteeing O(log d · |X|) enumeration delay regardless of
  /// the input SLP's shape.
  bool rebalance = false;

  /// Default preparation knobs (product memoization, wave-parallel
  /// threads) for the Prepare(slp) overload; see slpspan/prepare.h. The
  /// explicit Prepare overload overrides per call.
  PrepareOptions prepare;
};

/// Per-document state: the sentinel-extended SLP plus the Lemma 6.5 tables.
/// Must outlive any CompressedEnumerator created from it.
class PreparedDocument {
 public:
  const Slp& slp() const { return slp_; }
  const EvalTables& tables() const { return tables_; }

  /// Reassembles a prepared document from deserialized parts (storage
  /// layer). `tables` must have been built from (and validated against)
  /// exactly `slp`.
  static PreparedDocument FromParts(Slp slp, EvalTables tables) {
    return PreparedDocument(std::move(slp), std::move(tables));
  }

 private:
  friend class SpannerEvaluator;
  PreparedDocument(Slp slp, EvalTables tables)
      : slp_(std::move(slp)), tables_(std::move(tables)) {}

  Slp slp_;           // D# (sentinel appended; possibly rebalanced)
  EvalTables tables_;
};

class SpannerEvaluator {
 public:
  /// CHECK-fails when the evaluation automaton exceeds the 16-bit state
  /// budget; use Make() where that must surface as a recoverable error.
  explicit SpannerEvaluator(const Spanner& spanner, EvaluatorOptions opts = {});

  /// Status-returning factory: kNotSupported when the (possibly determinized)
  /// evaluation automaton does not fit the packed 16-bit state encoding.
  static Result<SpannerEvaluator> Make(const Spanner& spanner,
                                       EvaluatorOptions opts = {});

  /// ⟦M⟧(D) ≠ ∅ — Theorem 5.1(1), O(|M| + size(S)·q³).
  bool CheckNonEmptiness(const Slp& slp) const;

  /// ⟦M⟧(D) ≠ ∅ read off prepared tables — O(q): the paper's F′ (accepting
  /// j with R_S[start, j] ≠ ⊥) is non-empty.
  bool CheckNonEmptiness(const PreparedDocument& prep) const;

  /// t ∈ ⟦M⟧(D) — Theorem 5.1(2), O((size(S) + |X|·depth(S))·q³).
  bool CheckModel(const Slp& slp, const SpanTuple& t) const;

  /// Per-document preprocessing shared by ComputeAll and Enumerate, run
  /// with EvaluatorOptions::prepare.
  PreparedDocument Prepare(const Slp& slp) const;

  /// Same, with explicit preparation options and optional stats out-param
  /// (what the wave-parallel, product-memoized pass did; see
  /// slpspan/prepare.h). All option combinations produce bit-identical
  /// prepared state.
  PreparedDocument Prepare(const Slp& slp, const PrepareOptions& opts,
                           PrepareStats* stats = nullptr) const;

  /// ⟦M⟧(D) — Theorem 7.1.
  std::vector<MarkerSeq> ComputeAllMarkers(const PreparedDocument& prep) const;
  std::vector<SpanTuple> ComputeAll(const PreparedDocument& prep) const;
  std::vector<SpanTuple> ComputeAll(const Slp& slp) const;

  /// Enumeration — Theorem 8.10; `prep` must outlive the enumerator.
  CompressedEnumerator Enumerate(const PreparedDocument& prep) const;

  /// |⟦M⟧(D)| via enumeration.
  uint64_t CountAll(const Slp& slp) const;

  /// Counting + random access without enumeration (core/count.h); requires
  /// the (default) deterministic evaluation automaton. `prep` must outlive
  /// the returned CountTables.
  CountTables BuildCounter(const PreparedDocument& prep) const;

  /// Converts an enumerated/selected marker set into a span-tuple.
  SpanTuple TupleOf(const MarkerSeq& markers) const;

  uint32_t num_vars() const { return vars_.size(); }
  const VariableSet& vars() const { return vars_; }
  const Nfa& eval_nfa() const { return eval_nfa_; }
  const Nfa& nonemptiness_nfa() const { return nonempty_nfa_; }

 private:
  SpannerEvaluator() = default;
  Status Init(const Spanner& spanner);

  VariableSet vars_;
  EvaluatorOptions opts_;
  Nfa nonempty_nfa_;  // char-only projection of the normalized automaton
  Nfa model_nfa_;     // normalized + sentinel (non-deterministic is fine)
  Nfa eval_nfa_;      // normalized + sentinel (+ determinized + trimmed)
};

}  // namespace slpspan

#endif  // SLPSPAN_CORE_EVALUATOR_H_
