// Enumeration of ⟦M⟧(D) over an SLP-compressed document — paper Theorem 8.10.
//
// Three nested cursors, exactly the paper's procedures:
//   * (j, k)      — j ∈ F' and k ∈ Ī_{S0}[start, j]    (EnumSingleRoot),
//   * trees       — MTreeCursor over Trees(S0, start, k, j)   (EnumAll),
//   * yields      — odometer over the terminal-leaf lists M_Tx[i,j] with
//                   precomputed total shifts              (EnumSingleTree).
//
// Preprocessing is the EvalTables construction, O(|M| + size(S)·q³); the
// delay is O(depth(S)·|X|) — with a balanced SLP, O(log d · |X|). A new tree
// walks one root-to-leaf path of the current one and hands over its
// terminal leaves as a maintained, shift-sorted list (core/mtree.h); a new
// yield moves one odometer digit. The tuple is decoded straight from the
// chosen marker masks into reused open/close buffers and a reused SpanTuple,
// so the steady state allocates nothing per tuple. The decode keeps the
// MarkerSeq/ToTuple invariants as always-on checks: positions ≥ 1 and
// strictly increasing, no duplicate or unmatched marker, close not before
// open.
// Duplicate-freeness requires the automaton to be deterministic (Lemma 8.8);
// with an NFA the enumeration is still correct but may repeat tuples.

#ifndef SLPSPAN_CORE_ENUMERATE_H_
#define SLPSPAN_CORE_ENUMERATE_H_

#include <vector>

#include "core/mtree.h"
#include "core/tables.h"
#include "slp/slp.h"
#include "spanner/nfa.h"
#include "spanner/span.h"

namespace slpspan {

/// Pull-style enumerator (RocksDB-iterator idiom):
///   for (auto e = evaluator.Enumerate(prep); e.Valid(); e.Next()) use(e.Current());
/// The referenced Slp/Nfa/EvalTables must outlive the enumerator.
class CompressedEnumerator {
 public:
  /// `slp`/`nfa` must carry the sentinel; `tables` built from exactly them.
  CompressedEnumerator(const Slp* slp, const Nfa* nfa, const EvalTables* tables,
                       uint32_t num_vars);

  bool Valid() const { return valid_; }
  void Next();

  /// The current tuple; overwritten by the next Next().
  const SpanTuple& Current() const {
    SLPSPAN_DCHECK(valid_);
    return current_;
  }

 private:
  bool AdvanceYield();  // odometer over the leaves' picks; false = tree done
  bool AdvanceRoot();   // next (j, k); false = enumeration done
  void StartTree();     // first yield of the cursor's current tree
  void AssembleCurrent();

  const Slp* slp_;

  std::vector<StateId> final_states_;  // F'
  size_t j_idx_ = 0;
  int32_t cur_k_ = kExhaustedK;

  MTreeCursor tree_;
  std::vector<uint32_t> pick_;  // per terminal leaf: index into M_Tx[i,j]
  std::vector<uint64_t> open_, close_;  // per variable: position, 0 = none
  SpanTuple current_;
  bool valid_ = false;
};

}  // namespace slpspan

#endif  // SLPSPAN_CORE_ENUMERATE_H_
