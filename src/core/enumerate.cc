// CompressedEnumerator — nested-cursor enumeration of ⟦M⟧(D) per paper
// Theorem 8.10 (see core/enumerate.h for the cursor structure).
#include "core/enumerate.h"

#include <algorithm>
#include <bit>

namespace slpspan {

CompressedEnumerator::CompressedEnumerator(const Slp* slp, const Nfa* nfa,
                                           const EvalTables* tables,
                                           uint32_t num_vars)
    : slp_(slp),
      tree_(slp, tables),
      open_(num_vars),
      close_(num_vars),
      current_(num_vars) {
  final_states_ = tables->AcceptingNonBot(*slp_, *nfa);
  // Position on the first (j, k) root pair, if any, and produce the first
  // tree / yield.
  if (final_states_.empty()) return;
  cur_k_ = tree_.FirstK(slp_->root(), 0, final_states_[0]);
  tree_.Init(slp_->root(), 0, final_states_[0], cur_k_);
  StartTree();
  valid_ = true;
}

void CompressedEnumerator::StartTree() {
  pick_.assign(tree_.term_leaves().size(), 0);
  AssembleCurrent();
}

bool CompressedEnumerator::AdvanceYield() {
  // Rightmost leaf spins fastest (the nested loops of Lemma 8.5).
  const std::vector<MTreeCursor::TermLeaf>& leaves = tree_.term_leaves();
  for (size_t s = pick_.size(); s-- > 0;) {
    if (++pick_[s] < leaves[s].cell->size()) {
      std::fill(pick_.begin() + static_cast<ptrdiff_t>(s) + 1, pick_.end(), 0);
      return true;
    }
  }
  return false;  // all combinations emitted (or the tree had no leaves)
}

bool CompressedEnumerator::AdvanceRoot() {
  const NtId root = slp_->root();
  while (true) {
    if (cur_k_ != kExhaustedK) {
      cur_k_ = tree_.NextK(root, 0, final_states_[j_idx_], cur_k_);
      if (cur_k_ != kExhaustedK) {
        tree_.Init(root, 0, final_states_[j_idx_], cur_k_);
        return true;
      }
    }
    if (++j_idx_ >= final_states_.size()) return false;
    cur_k_ = tree_.FirstK(root, 0, final_states_[j_idx_]);
    tree_.Init(root, 0, final_states_[j_idx_], cur_k_);
    return true;
  }
}

void CompressedEnumerator::Next() {
  SLPSPAN_CHECK(valid_);
  if (AdvanceYield()) {
    AssembleCurrent();
  } else if (tree_.Advance() || AdvanceRoot()) {
    StartTree();
  } else {
    valid_ = false;
  }
}

void CompressedEnumerator::AssembleCurrent() {
  std::fill(open_.begin(), open_.end(), 0);
  std::fill(close_.begin(), close_.end(), 0);
  const std::vector<MTreeCursor::TermLeaf>& leaves = tree_.term_leaves();
  const uint32_t num_vars = static_cast<uint32_t>(open_.size());
  uint64_t last_pos = 0;
  for (size_t s = 0; s < leaves.size(); ++s) {
    MarkerMask mask = (*leaves[s].cell)[pick_[s]];
    if (mask == 0) continue;
    const uint64_t pos = leaves[s].shift + 1;
    SLPSPAN_CHECK(pos > last_pos);  // positions >= 1, strictly increasing
    last_pos = pos;
    while (mask != 0) {
      const int bit = std::countr_zero(mask);
      mask &= mask - 1;
      const VarId v = static_cast<VarId>(bit / 2);
      SLPSPAN_CHECK(v < num_vars);  // marker for a known variable
      uint64_t& slot = (bit % 2 == 0) ? open_[v] : close_[v];
      SLPSPAN_CHECK(slot == 0);  // no duplicate marker
      slot = pos;
    }
  }
  for (VarId v = 0; v < num_vars; ++v) {
    SLPSPAN_CHECK((open_[v] == 0) == (close_[v] == 0));  // no unmatched marker
    if (open_[v] == 0) {
      current_.Clear(v);
      continue;
    }
    SLPSPAN_CHECK(open_[v] <= close_[v]);  // close not before open
    current_.Set(v, Span{open_[v], close_[v]});
  }
}

}  // namespace slpspan
