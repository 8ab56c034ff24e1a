// (M,S)-trees and their enumeration — paper Section 8 / Algorithm 1.
//
// An (M,S)-tree is an ordered binary tree over node labels
//   A⟨i ◃ k ◃ j⟩  (inner non-terminal, intermediate state k ∈ I_A[i,j]),
//   A⟨i ◃ j, ℮⟩   (empty-leaf: M_A[i,j] = {∅}),
//   T_x⟨i ◃ j, 1⟩ (terminal-leaf: yields the precomputed M_Tx[i,j]),
// with the arc to the right child implicitly carrying the shift |D(B)|.
//
// MTreeCursor enumerates Trees(A, i, k, j) exactly as the paper's EnumAll
// (Lemma 8.9): for every node, the (k_B, k_C) pair loop is outermost, the
// left subtree next, the right subtree innermost. The current tree lives in
// an explicit node pool, and every inner node caches what the next step
// needs:
//   * next_kb / next_kc — the successors of its children's k in Ī_B[i,k]
//     and Ī_C[k,j], computed once when the children are built;
//   * can_advance — whether its subtree has a next tree, i.e. whether a
//     child can advance or one of the two successors exists.
// Advance() therefore walks one root-to-leaf path: it descends into the
// right child while that can advance, else into the left child, and stops
// at the deepest node that must move its own (k_B, k_C) pair. Only that
// node's children and the right siblings passed on the way down are
// rebuilt; the can_advance flags on the path are refreshed on the way back.
// The step costs O(|X|·depth(S)), the size bound of Lemma 8.4. Empty leaves
// — the off-path children, about half of every tree — are one shared pool
// node that is never built or freed.
//
// The cursor also maintains the terminal leaves of the current tree, sorted
// by shift (document position = shift + 1). Every rebuilt subtree covers one
// contiguous shift range, and the rebuilt subtrees of one step are adjacent,
// so a step replaces a single slice of that list instead of walking the tree
// again. CollectTermLeaves is the from-scratch traversal the tests compare
// the maintained list against.
//
// Building is an explicit-stack loop, not a recursion: a tree is as deep as
// the grammar, and chain grammars (one rule per character) are millions of
// levels deep — far beyond any thread's stack. Intermediate-state sets Ī are
// iterated directly off the bit-matrix tables (never materialized).

#ifndef SLPSPAN_CORE_MTREE_H_
#define SLPSPAN_CORE_MTREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/tables.h"
#include "slp/slp.h"

namespace slpspan {

/// k value encoding for Ī_A[i,j]: kBaseCase is the paper's `b` (used for
/// leaf non-terminals and R = ℮ entries); kExhausted terminates iteration.
constexpr int32_t kBaseCase = -1;
constexpr int32_t kExhaustedK = -2;

class MTreeCursor {
 public:
  MTreeCursor(const Slp* slp, const EvalTables* tables);

  /// First element of Ī_A[i,j] (kBaseCase for leaf non-terminals and ℮
  /// entries, otherwise the smallest intermediate state). R must be ≠ ⊥.
  int32_t FirstK(NtId nt, StateId i, StateId j) const;

  /// Successor of `cur` in Ī_A[i,j]; kExhaustedK when done.
  int32_t NextK(NtId nt, StateId i, StateId j, int32_t cur) const;

  /// Positions the cursor on the first tree of Trees(A, i, k, j).
  void Init(NtId nt, StateId i, StateId j, int32_t k);

  /// Moves to the next tree; false when Trees(A, i, k, j) is exhausted (the
  /// current tree is then left unchanged).
  bool Advance();

  /// A terminal-leaf of the current tree together with its total shift (sum
  /// of arc labels from the root; document position = shift + 1) and its
  /// yield set M_Tx[i,j].
  struct TermLeaf {
    NtId nt;
    StateId i;
    StateId j;
    uint64_t shift;
    const std::vector<MarkerMask>* cell;  ///< never empty

    bool operator==(const TermLeaf& o) const {
      return nt == o.nt && i == o.i && j == o.j && shift == o.shift &&
             cell == o.cell;
    }
  };

  /// Terminal leaves of the current tree, left-to-right (ascending shifts),
  /// maintained across Advance().
  const std::vector<TermLeaf>& term_leaves() const { return leaves_; }

  /// The same list recomputed by walking the whole current tree (tests use
  /// it as the reference for term_leaves()).
  void CollectTermLeaves(std::vector<TermLeaf>* out) const;

  /// Number of live nodes of the current tree (tests: Lemma 8.4 bound).
  uint32_t NumLiveNodes() const;

  std::string DebugString() const;

 private:
  enum class Kind : uint8_t { kInner, kEmptyLeaf, kTermLeaf };

  struct Node {
    NtId nt;
    StateId i, j;
    int32_t k;        // own intermediate (kInner only)
    int32_t next_kb;  // successor of left child's k in Ī_B[i,k] (kInner only)
    int32_t next_kc;  // successor of right child's k in Ī_C[k,j] (kInner only)
    int32_t left, right;
    Kind kind;
    bool can_advance;  // the subtree rooted here has a next tree
  };

  /// One pending node of BuildFirst's explicit stack.
  struct BuildFrame {
    int32_t parent;  // -1 for the subtree root
    bool is_right;
    NtId nt;
    StateId i, j;
    int32_t k;
    uint64_t shift;
  };

  /// One step of Advance()'s descent: the node, its shift, and whether the
  /// path continued into its left child (its right child is then rebuilt).
  struct PathStep {
    int32_t idx;
    uint64_t shift;
    bool went_left;
  };

  /// Every empty-leaf A⟨i ◃ j, ℮⟩ of every tree is this one pool node: it
  /// has no children, no yield and no next tree, and its label follows from
  /// the parent's, so it is never built or freed. Roughly half the nodes of
  /// a tree are empty leaves (the off-path children).
  static constexpr int32_t kSharedEmptyLeaf = 0;

  /// FirstK, except that an empty-leaf child (R = ℮) is told apart from a
  /// terminal leaf (kBaseCase) by a private sentinel.
  int32_t ChildK(NtId nt, StateId i, StateId j) const;
  int32_t NewNode();
  void FreeSubtree(int32_t idx);
  /// Builds the first tree for (nt, i, j) with the given k (kBaseCase for the
  /// single-node base trees) at absolute `shift`; appends its terminal leaves
  /// to fresh_leaves_ in left-to-right order and returns the node index.
  int32_t BuildFirst(NtId nt, StateId i, StateId j, int32_t k, uint64_t shift);
  void RefreshCanAdvance(int32_t idx);
  /// Replaces the slice of leaves_ with shifts in [lo, hi) by fresh_leaves_.
  void SpliceLeaves(uint64_t lo, uint64_t hi);

  const Slp* slp_;
  const EvalTables* tables_;
  std::vector<Node> pool_;
  std::vector<int32_t> free_list_;
  int32_t root_ = -1;
  std::vector<TermLeaf> leaves_;
  // Scratch reused by every step, so steady-state steps do not allocate.
  std::vector<TermLeaf> fresh_leaves_;
  std::vector<BuildFrame> build_stack_;
  std::vector<int32_t> built_;
  std::vector<PathStep> path_;
};

}  // namespace slpspan

#endif  // SLPSPAN_CORE_MTREE_H_
