// (M,S)-trees and their enumeration — paper Section 8 / Algorithm 1
// (see core/mtree.h for the node caches and the one-path step).
#include "core/mtree.h"

#include <algorithm>
#include <sstream>

namespace slpspan {

namespace {
/// ChildK's answer for an empty-leaf child (R = ℮): no node is built.
constexpr int32_t kEmptyChild = -3;
}  // namespace

MTreeCursor::MTreeCursor(const Slp* slp, const EvalTables* tables)
    : slp_(slp), tables_(tables) {
  Node empty{};
  empty.k = kBaseCase;
  empty.next_kb = empty.next_kc = kExhaustedK;
  empty.left = empty.right = -1;
  empty.kind = Kind::kEmptyLeaf;
  empty.can_advance = false;
  pool_.push_back(empty);  // kSharedEmptyLeaf
}

int32_t MTreeCursor::ChildK(NtId nt, StateId i, StateId j) const {
  SLPSPAN_DCHECK(tables_->NonBot(nt, i, j));
  if (!tables_->W(nt).Get(i, j)) return kEmptyChild;  // R = ℮
  if (slp_->IsLeaf(nt)) return kBaseCase;              // terminal leaf
  const int32_t k = tables_->NextIntermediate(*slp_, nt, i, j, -1);
  SLPSPAN_DCHECK(k >= 0);  // R = 1 on an inner rule implies I_A[i,j] != empty
  return k;
}

int32_t MTreeCursor::FirstK(NtId nt, StateId i, StateId j) const {
  const int32_t k = ChildK(nt, i, j);
  return k == kEmptyChild ? kBaseCase : k;
}

int32_t MTreeCursor::NextK(NtId nt, StateId i, StateId j, int32_t cur) const {
  if (cur == kBaseCase) return kExhaustedK;  // Ī = {b} is a singleton
  const int32_t k = tables_->NextIntermediate(*slp_, nt, i, j, cur);
  return k >= 0 ? k : kExhaustedK;
}

int32_t MTreeCursor::NewNode() {
  if (!free_list_.empty()) {
    const int32_t idx = free_list_.back();
    free_list_.pop_back();
    return idx;
  }
  pool_.emplace_back();
  return static_cast<int32_t>(pool_.size() - 1);
}

void MTreeCursor::FreeSubtree(int32_t idx) {
  if (idx < 0 || idx == kSharedEmptyLeaf) return;
  // The free list doubles as the traversal queue: every node appended to it
  // is visited once and its children appended after it.
  size_t next = free_list_.size();
  free_list_.push_back(idx);
  for (; next < free_list_.size(); ++next) {
    const Node& n = pool_[free_list_[next]];
    if (n.kind != Kind::kInner) continue;
    if (n.left != kSharedEmptyLeaf) free_list_.push_back(n.left);
    if (n.right != kSharedEmptyLeaf) free_list_.push_back(n.right);
  }
}

int32_t MTreeCursor::BuildFirst(NtId nt, StateId i, StateId j, int32_t k,
                                uint64_t shift) {
  // Pre-order with the left child popped first, so terminal leaves come out
  // left-to-right; parents are created before their children.
  int32_t root = -1;
  built_.clear();
  build_stack_.push_back({-1, false, nt, i, j, k, shift});
  while (!build_stack_.empty()) {
    const BuildFrame f = build_stack_.back();
    build_stack_.pop_back();
    // Only the subtree root can be an empty leaf here: inner nodes link empty
    // children directly.
    if (f.parent < 0 && f.k == kBaseCase && !tables_->W(f.nt).Get(f.i, f.j)) {
      root = kSharedEmptyLeaf;
      continue;
    }
    const int32_t idx = NewNode();
    if (f.parent < 0) {
      root = idx;
    } else if (f.is_right) {
      pool_[f.parent].right = idx;
    } else {
      pool_[f.parent].left = idx;
    }
    Node& n = pool_[idx];
    n.nt = f.nt;
    n.i = f.i;
    n.j = f.j;
    n.k = f.k;
    n.left = n.right = -1;
    n.next_kb = n.next_kc = kExhaustedK;
    n.can_advance = false;
    if (f.k == kBaseCase) {
      SLPSPAN_DCHECK(slp_->IsLeaf(f.nt));
      n.kind = Kind::kTermLeaf;
      const std::vector<MarkerMask>& cell = tables_->LeafCell(f.nt, f.i, f.j);
      SLPSPAN_DCHECK(!cell.empty());
      fresh_leaves_.push_back({f.nt, f.i, f.j, f.shift, &cell});
      continue;
    }
    n.kind = Kind::kInner;
    built_.push_back(idx);
    const NtId b = slp_->Left(f.nt), c = slp_->Right(f.nt);
    const StateId kk = static_cast<StateId>(f.k);
    const int32_t kb = ChildK(b, f.i, kk);
    const int32_t kc = ChildK(c, kk, f.j);
    if (kb >= 0) n.next_kb = NextK(b, f.i, kk, kb);
    if (kc >= 0) n.next_kc = NextK(c, kk, f.j, kc);
    // Pushed right first, so the left subtree is built (and its terminal
    // leaves listed) first.
    if (kc == kEmptyChild) {
      n.right = kSharedEmptyLeaf;
    } else {
      build_stack_.push_back({idx, true, c, kk, f.j, kc, f.shift + slp_->Length(b)});
    }
    if (kb == kEmptyChild) {
      n.left = kSharedEmptyLeaf;
    } else {
      build_stack_.push_back({idx, false, b, f.i, kk, kb, f.shift});
    }
  }
  // Reverse creation order visits every child before its parent.
  for (auto it = built_.rbegin(); it != built_.rend(); ++it) {
    RefreshCanAdvance(*it);
  }
  return root;
}

void MTreeCursor::RefreshCanAdvance(int32_t idx) {
  Node& n = pool_[idx];
  n.can_advance = pool_[n.right].can_advance || pool_[n.left].can_advance ||
                  n.next_kc != kExhaustedK || n.next_kb != kExhaustedK;
}

void MTreeCursor::Init(NtId nt, StateId i, StateId j, int32_t k) {
  FreeSubtree(root_);
  fresh_leaves_.clear();
  root_ = BuildFirst(nt, i, j, k, 0);
  leaves_.swap(fresh_leaves_);
}

bool MTreeCursor::Advance() {
  if (root_ < 0 || !pool_[root_].can_advance) return false;
  // Odometer per Algorithm 1: the right subtree (the C-loop) spins fastest,
  // then the left subtree (B-loop), then the (k_B, k_C) pair (states-loop,
  // k_C fastest). Descend to the deepest node that has to move.
  path_.clear();
  int32_t idx = root_;
  uint64_t shift = 0;
  while (true) {
    const Node& n = pool_[idx];
    if (pool_[n.right].can_advance) {
      path_.push_back({idx, shift, false});
      shift += slp_->Length(slp_->Left(n.nt));
      idx = n.right;
    } else if (pool_[n.left].can_advance) {
      path_.push_back({idx, shift, true});
      idx = n.left;
    } else {
      break;
    }
  }

  // The pivot moves to its next (k_B, k_C) pair: the next k_C with the same
  // k_B, else the next k_B with k_C from the front. Both subtrees restart.
  fresh_leaves_.clear();
  const uint64_t lo = shift;
  uint64_t hi;
  {
    const NtId nt = pool_[idx].nt;
    const StateId i = pool_[idx].i, j = pool_[idx].j;
    const StateId k = static_cast<StateId>(pool_[idx].k);
    const NtId b = slp_->Left(nt), c = slp_->Right(nt);
    int32_t kb = pool_[pool_[idx].left].k;
    int32_t kc = pool_[idx].next_kc;
    if (kc == kExhaustedK) {
      kb = pool_[idx].next_kb;
      kc = FirstK(c, k, j);
      pool_[idx].next_kb = NextK(b, i, k, kb);
    }
    pool_[idx].next_kc = NextK(c, k, j, kc);
    FreeSubtree(pool_[idx].left);
    FreeSubtree(pool_[idx].right);
    // BuildFirst may grow the pool: no Node reference is held across it.
    const int32_t left = BuildFirst(b, i, k, kb, shift);
    pool_[idx].left = left;
    const int32_t right = BuildFirst(c, k, j, kc, shift + slp_->Length(b));
    pool_[idx].right = right;
    RefreshCanAdvance(idx);
    hi = shift + slp_->Length(nt);
  }

  // Back up the path. Where it went left, the right subtree restarts from its
  // first tree (same k_C); its shift range follows everything rebuilt so far.
  for (auto step = path_.rbegin(); step != path_.rend(); ++step) {
    if (step->went_left) {
      const NtId nt = pool_[step->idx].nt;
      const NtId b = slp_->Left(nt), c = slp_->Right(nt);
      const int32_t old_right = pool_[step->idx].right;
      const int32_t kc = pool_[old_right].k;
      FreeSubtree(old_right);
      const int32_t right =
          BuildFirst(c, static_cast<StateId>(pool_[step->idx].k),
                     pool_[step->idx].j, kc, step->shift + slp_->Length(b));
      pool_[step->idx].right = right;
      hi = step->shift + slp_->Length(nt);
    }
    RefreshCanAdvance(step->idx);
  }
  SpliceLeaves(lo, hi);
  return true;
}

void MTreeCursor::SpliceLeaves(uint64_t lo, uint64_t hi) {
  const auto by_shift = [](const TermLeaf& leaf, uint64_t s) { return leaf.shift < s; };
  const auto first = std::lower_bound(leaves_.begin(), leaves_.end(), lo, by_shift);
  const auto last = std::lower_bound(first, leaves_.end(), hi, by_shift);
  const size_t at = static_cast<size_t>(first - leaves_.begin());
  const size_t old_count = static_cast<size_t>(last - first);
  const size_t new_count = fresh_leaves_.size();
  if (new_count > old_count) {
    leaves_.insert(last, new_count - old_count, TermLeaf{});
  } else {
    leaves_.erase(first + static_cast<ptrdiff_t>(new_count), last);
  }
  std::copy(fresh_leaves_.begin(), fresh_leaves_.end(),
            leaves_.begin() + static_cast<ptrdiff_t>(at));
}

void MTreeCursor::CollectTermLeaves(std::vector<TermLeaf>* out) const {
  out->clear();
  SLPSPAN_CHECK(root_ >= 0);
  // Iterative left-to-right traversal (tree depth can reach depth(S)).
  std::vector<std::pair<int32_t, uint64_t>> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [cur, cur_shift] = stack.back();
    stack.pop_back();
    const Node& n = pool_[cur];
    switch (n.kind) {
      case Kind::kEmptyLeaf:
        break;
      case Kind::kTermLeaf:
        out->push_back(
            {n.nt, n.i, n.j, cur_shift, &tables_->LeafCell(n.nt, n.i, n.j)});
        break;
      case Kind::kInner:
        // Right pushed first so the left subtree is visited first.
        stack.push_back({n.right, cur_shift + slp_->Length(slp_->Left(n.nt))});
        stack.push_back({n.left, cur_shift});
        break;
    }
  }
}

uint32_t MTreeCursor::NumLiveNodes() const {
  if (root_ < 0) return 0;
  uint32_t count = 0;
  std::vector<int32_t> stack{root_};
  while (!stack.empty()) {
    const int32_t idx = stack.back();
    stack.pop_back();
    ++count;
    const Node& n = pool_[idx];
    if (n.kind != Kind::kInner) continue;
    stack.push_back(n.left);
    stack.push_back(n.right);
  }
  return count;
}

std::string MTreeCursor::DebugString() const {
  std::ostringstream os;
  std::vector<std::pair<int32_t, int>> stack{{root_, 0}};
  while (!stack.empty()) {
    auto [idx, indent] = stack.back();
    stack.pop_back();
    if (idx < 0) continue;
    const Node& n = pool_[idx];
    for (int s = 0; s < indent; ++s) os << "  ";
    // Empty leaves share one node; their labels follow from the parent's.
    if (n.kind == Kind::kEmptyLeaf) {
      os << "e\n";
      continue;
    }
    os << "N" << n.nt << "<" << n.i;
    if (n.kind == Kind::kInner) {
      os << "|" << n.k << "|" << n.j << ">";
    } else {
      os << "|" << n.j << ",1>";
    }
    os << "\n";
    if (n.kind != Kind::kInner) continue;
    stack.push_back({n.right, indent + 1});
    stack.push_back({n.left, indent + 1});
  }
  return os.str();
}

}  // namespace slpspan
