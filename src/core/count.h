// Counting and random access ("select") over the compressed result set —
// an extension of the paper's toolbox enabled by the same decomposition.
//
// For a *deterministic* automaton the decomposition of Lemma 6.8 is a
// disjoint partition (Lemma 8.7) and every join is injective (Lemma 6.9), so
//
//     |M_A[i,j]| = sum over k in I_A[i,j] of |M_B[i,k]| * |M_C[k,j]|
//
// holds exactly. One bottom-up pass over the O(size(S) q^2) reachable
// triples therefore yields |⟦M⟧(D)| *without enumerating anything* — and the
// same counts unlock O(depth(S) * q) random access: the idx-th result in a
// fixed canonical order (k-major, then left-index-major) is reconstructed by
// descending the derivation once, exactly like random access to the i-th
// document symbol, but on the result set.
//
// Counts can exceed 2^64 on adversarial inputs (up to d^(2|X|)); arithmetic
// saturates and `overflowed()` reports it — Count() is then a lower bound
// and Select() refuses indexes beyond the exact range.

#ifndef SLPSPAN_CORE_COUNT_H_
#define SLPSPAN_CORE_COUNT_H_

#include <utility>
#include <vector>

#include "core/tables.h"
#include "slp/slp.h"
#include "spanner/marker.h"
#include "spanner/nfa.h"

namespace slpspan {

/// Per-document result-set counter and selector. Build once per
/// PreparedDocument (the evaluator facade wraps this as ResultCounter).
/// Requires a deterministic automaton; CHECK-fails otherwise.
class CountTables {
 public:
  /// `slp`/`nfa` carry the sentinel; `tables` built from exactly this pair.
  /// O(size(S) * q^2 * q/w) time over the reachable triples.
  ///
  /// With `opts.memoize` (the default) the per-triple evaluation gets the
  /// counting analogue of the preparation's product memo: every
  /// non-terminal is assigned a *count signature* — leaves by their exact
  /// (U, W, cell-size grid), inner rules by the interned pair of child
  /// signatures — such that equal signatures imply equal count grids, and
  /// the Lemma 6.9 sum for a triple is computed once per (signature, i, j)
  /// instead of once per (non-terminal, i, j). Grammars with repeated
  /// subtrees (non-deduplicating constructions, spliced SLPs) skip the
  /// whole sum for every repeat; the resulting counts are bit-identical to
  /// the naive evaluation either way. Only `opts.memoize` is consulted —
  /// counter construction is cheap relative to preparation and stays
  /// serial.
  CountTables(const Slp& slp, const Nfa& nfa, const EvalTables& tables,
              const PrepareOptions& opts = {});

  /// What the memoized evaluation did (zeros for FromParts-restored
  /// tables): `triples` sums the kOne triples whose product sum ran or was
  /// memo-served, `memo_hits` the ones served from the signature memo.
  struct BuildStats {
    uint64_t triples = 0;
    uint64_t memo_hits = 0;
  };
  const BuildStats& build_stats() const { return build_stats_; }

  /// Pointer-free snapshot of the count tables for serialization; counts are
  /// key-sorted so equal tables export byte-identical parts.
  struct Parts {
    std::vector<std::pair<uint64_t, uint64_t>> counts;  // packed (nt,i,j) key
    std::vector<StateId> final_states;
    uint64_t total = 0;
    bool overflow = false;
  };
  Parts ExportParts() const;

  /// Rebinds deserialized parts to a (grammar, automaton, tables) triple.
  /// Bounds (key ranges, leaf-cell sizes, state ids) are validated with
  /// kCorruption on mismatch; semantic integrity of the counts themselves is
  /// the bundle checksum's job.
  static Result<CountTables> FromParts(const Slp& slp, const Nfa& nfa,
                                       const EvalTables& tables, Parts parts);

  /// |⟦M⟧(D)| (saturated at UINT64_MAX if overflowed()).
  uint64_t Total() const { return total_; }

  /// True if any intermediate count saturated; Total() is then a lower bound.
  bool overflowed() const { return overflow_; }

  /// The idx-th result (0-based) in the canonical order. idx < Total() and
  /// !overflowed() required. O(depth(S) * q + |X|) per call.
  MarkerSeq Select(uint64_t idx) const;

  /// Heap bytes held by the count tables. Charged to the runtime cache
  /// entry when the tables materialize (entry re-charging).
  uint64_t MemoryUsage() const {
    return sizeof(*this) +
           counts_.capacity() * sizeof(std::pair<uint64_t, uint64_t>) +
           final_states_.capacity() * sizeof(StateId);
  }

 private:
  CountTables() = default;  // FromParts fills the members

  uint64_t CountOf(NtId nt, StateId i, StateId j) const;

  const Slp* slp_;
  const Nfa* nfa_;
  const EvalTables* tables_;
  /// (packed (nt,i,j) key, |M_A[i,j]|), sorted by key. A sorted vector
  /// instead of a hash map: CountOf binary-searches (Select does O(depth·q)
  /// lookups, the log factor is noise), memory is half, and — the reason it
  /// matters — deserializing a bundle's counter section adopts the vector
  /// wholesale instead of re-inserting every entry.
  std::vector<std::pair<uint64_t, uint64_t>> counts_;
  std::vector<StateId> final_states_;
  uint64_t total_ = 0;
  bool overflow_ = false;
  BuildStats build_stats_;
};

}  // namespace slpspan

#endif  // SLPSPAN_CORE_COUNT_H_
