// Counting and random access over the compressed result set: per-rule run
// counts without enumeration (see core/count.h).
#include "core/count.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace slpspan {

namespace {

uint64_t PackTriple(NtId nt, StateId i, StateId j) {
  return (static_cast<uint64_t>(nt) << 32) | (static_cast<uint64_t>(i) << 16) | j;
}

uint64_t SatAdd(uint64_t a, uint64_t b, bool* overflow) {
  const uint64_t sum = a + b;
  if (sum < a) {
    *overflow = true;
    return UINT64_MAX;
  }
  return sum;
}

uint64_t SatMul(uint64_t a, uint64_t b, bool* overflow) {
  if (a == 0 || b == 0) return 0;
  if (a > UINT64_MAX / b) {
    *overflow = true;
    return UINT64_MAX;
  }
  return a * b;
}

/// Count signatures: a per-non-terminal id such that equal signatures imply
/// equal count grids |M_A[·,·]| (the counting analogue of the preparation's
/// product memo). Leaves are keyed exactly by (U index, W index, cell-size
/// grid) — the pool indices identify the matrices, the sizes pin the leaf
/// counts; inner rules by the interned pair of child signatures, which by
/// induction determines both children's matrices and count grids, hence the
/// parent's. Interning is exact (full keys, no lossy hashing), so a shared
/// signature can never conflate different grids.
std::vector<uint32_t> ComputeCountSignatures(const Slp& slp,
                                             const EvalTables& tables) {
  const uint32_t n = slp.NumNonTerminals();
  const uint32_t q = tables.q();
  std::vector<uint32_t> sig(n);
  std::map<std::vector<uint64_t>, uint32_t> leaf_sigs;
  std::unordered_map<uint64_t, uint32_t> pair_sigs;
  uint32_t next_sig = 0;
  for (NtId a = 0; a < n; ++a) {
    if (slp.IsLeaf(a)) {
      std::vector<uint64_t> key;
      key.reserve(2 + static_cast<size_t>(q) * q);
      key.push_back(tables.u_indexes()[a]);
      key.push_back(tables.w_indexes()[a]);
      for (StateId i = 0; i < q; ++i) {
        for (StateId j = 0; j < q; ++j) {
          key.push_back(tables.LeafCell(a, i, j).size());
        }
      }
      const auto [it, fresh] = leaf_sigs.emplace(std::move(key), next_sig);
      if (fresh) ++next_sig;
      sig[a] = it->second;
    } else {
      const uint64_t key = (static_cast<uint64_t>(sig[slp.Left(a)]) << 32) |
                           sig[slp.Right(a)];
      const auto [it, fresh] = pair_sigs.emplace(key, next_sig);
      if (fresh) ++next_sig;
      sig[a] = it->second;
    }
  }
  return sig;
}

}  // namespace

CountTables::CountTables(const Slp& slp, const Nfa& nfa, const EvalTables& tables,
                         const PrepareOptions& opts)
    : slp_(&slp), nfa_(&nfa), tables_(&tables) {
  SLPSPAN_CHECK(nfa.IsDeterministic());  // Lemma 8.7 disjointness needs a DFA
  SLPSPAN_CHECK(tables.q() <= 0xFFFF);
  final_states_ = tables.AcceptingNonBot(slp, nfa);

  // Discover the reachable triples exactly like Theorem 7.1's computation.
  // A hash map drives discovery and evaluation; the result is flattened
  // into the sorted counts_ vector at the end.
  std::unordered_map<uint64_t, uint64_t> counts;
  std::vector<uint64_t> worklist;
  auto require = [&](NtId nt, StateId i, StateId j) {
    const uint64_t key = PackTriple(nt, i, j);
    if (counts.emplace(key, 0).second) worklist.push_back(key);
  };
  for (StateId j : final_states_) require(slp.root(), 0, j);
  for (size_t w = 0; w < worklist.size(); ++w) {
    const uint64_t key = worklist[w];
    const NtId nt = static_cast<NtId>(key >> 32);
    const StateId i = static_cast<StateId>((key >> 16) & 0xFFFF);
    const StateId j = static_cast<StateId>(key & 0xFFFF);
    if (slp.IsLeaf(nt) || tables.R(nt, i, j) != RVal::kOne) continue;
    tables.ForEachIntermediate(slp, nt, i, j, [&](StateId k) {
      require(slp.Left(nt), i, k);
      require(slp.Right(nt), k, j);
    });
  }

  // Evaluate bottom-up (children have smaller NtIds). With memoization the
  // Lemma 6.9 sum runs once per (count signature, i, j): a repeated subtree
  // reuses the value computed for its first occurrence.
  std::vector<uint32_t> sig;
  if (opts.memoize) sig = ComputeCountSignatures(slp, tables);
  std::unordered_map<uint64_t, uint64_t> sum_memo;  // (sig, i, j) -> count
  std::vector<std::vector<uint32_t>> pairs_by_nt(slp.NumNonTerminals());
  for (const auto& [key, unused] : counts) {
    (void)unused;
    pairs_by_nt[key >> 32].push_back(static_cast<uint32_t>(key & 0xFFFFFFFF));
  }
  for (NtId nt = 0; nt < slp.NumNonTerminals(); ++nt) {
    for (const uint32_t packed : pairs_by_nt[nt]) {
      const StateId i = packed >> 16;
      const StateId j = packed & 0xFFFF;
      uint64_t count = 0;
      switch (tables.R(nt, i, j)) {
        case RVal::kBot:
          break;
        case RVal::kEmpty:
          count = 1;
          break;
        case RVal::kOne:
          if (slp.IsLeaf(nt)) {
            count = tables.LeafCell(nt, i, j).size();
          } else {
            ++build_stats_.triples;
            const uint64_t memo_key =
                opts.memoize
                    ? (static_cast<uint64_t>(sig[nt]) << 32) | packed
                    : 0;
            const auto memo_it =
                opts.memoize ? sum_memo.find(memo_key) : sum_memo.end();
            if (opts.memoize && memo_it != sum_memo.end()) {
              ++build_stats_.memo_hits;
              count = memo_it->second;
              break;
            }
            tables.ForEachIntermediate(slp, nt, i, j, [&](StateId k) {
              const uint64_t cb = counts.at(PackTriple(slp.Left(nt), i, k));
              const uint64_t cc = counts.at(PackTriple(slp.Right(nt), k, j));
              count = SatAdd(count, SatMul(cb, cc, &overflow_), &overflow_);
            });
            if (opts.memoize) sum_memo.emplace(memo_key, count);
          }
          break;
      }
      counts[PackTriple(nt, i, j)] = count;
    }
  }

  for (StateId j : final_states_) {
    total_ = SatAdd(total_, counts.at(PackTriple(slp.root(), 0, j)), &overflow_);
  }

  counts_.assign(counts.begin(), counts.end());
  std::sort(counts_.begin(), counts_.end());
}

CountTables::Parts CountTables::ExportParts() const {
  Parts parts;
  parts.counts = counts_;  // already key-sorted
  parts.final_states = final_states_;
  parts.total = total_;
  parts.overflow = overflow_;
  return parts;
}

Result<CountTables> CountTables::FromParts(const Slp& slp, const Nfa& nfa,
                                           const EvalTables& tables,
                                           Parts parts) {
  if (!nfa.IsDeterministic()) {
    return Status::Corruption("count tables require a deterministic automaton");
  }
  const uint32_t q = tables.q();
  if (q > 0xFFFF) return Status::Corruption("state count exceeds 16 bits");
  uint64_t prev_key = 0;
  bool first = true;
  for (const auto& [key, count] : parts.counts) {
    // CountOf binary-searches, so the keys must be strictly ascending.
    if (!first && key <= prev_key) {
      return Status::Corruption("count keys not strictly ascending");
    }
    prev_key = key;
    first = false;
    const uint64_t nt = key >> 32;
    const uint32_t i = static_cast<uint32_t>((key >> 16) & 0xFFFF);
    const uint32_t j = static_cast<uint32_t>(key & 0xFFFF);
    if (nt >= slp.NumNonTerminals() || i >= q || j >= q) {
      return Status::Corruption("count key out of range");
    }
    // Leaf counts index straight into the leaf cell in Select; cap them so a
    // forged count can never read past the materialized M_Tx[i,j].
    if (slp.IsLeaf(static_cast<NtId>(nt)) &&
        count > tables.LeafCell(static_cast<NtId>(nt), i, j).size()) {
      return Status::Corruption("leaf count exceeds cell size");
    }
  }
  for (const StateId s : parts.final_states) {
    if (s >= q) return Status::Corruption("final state out of range");
  }
  CountTables out;
  out.slp_ = &slp;
  out.nfa_ = &nfa;
  out.tables_ = &tables;
  out.counts_ = std::move(parts.counts);  // adopted wholesale — no rebuild
  out.final_states_ = std::move(parts.final_states);
  out.total_ = parts.total;
  out.overflow_ = parts.overflow;
  return out;
}

uint64_t CountTables::CountOf(NtId nt, StateId i, StateId j) const {
  const uint64_t key = PackTriple(nt, i, j);
  const auto it = std::lower_bound(
      counts_.begin(), counts_.end(), key,
      [](const std::pair<uint64_t, uint64_t>& e, uint64_t k) { return e.first < k; });
  SLPSPAN_CHECK(it != counts_.end() && it->first == key);
  return it->second;
}

MarkerSeq CountTables::Select(uint64_t idx) const {
  SLPSPAN_CHECK(!overflow_);
  SLPSPAN_CHECK(idx < total_);
  // Pick the accepting state bucket first (F' order).
  NtId root = slp_->root();
  StateId j_final = 0;
  for (StateId j : final_states_) {
    const uint64_t c = CountOf(root, 0, j);
    if (idx < c) {
      j_final = j;
      break;
    }
    idx -= c;
  }
  // Explicit-stack descent (a chain grammar is one level per character, far
  // deeper than a thread's stack). The left child is popped first, so the
  // leaves emit their markers in ascending position order.
  struct Frame {
    NtId nt;
    StateId i, j;
    uint64_t idx;
    uint64_t shift;
  };
  std::vector<PosMark> out;
  std::vector<Frame> stack{{root, 0, j_final, idx, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    switch (tables_->R(f.nt, f.i, f.j)) {
      case RVal::kBot:
        SLPSPAN_CHECK(false);
        break;
      case RVal::kEmpty:
        SLPSPAN_DCHECK(f.idx == 0);
        continue;  // the single element is the empty marker set
      case RVal::kOne:
        break;
    }
    if (slp_->IsLeaf(f.nt)) {
      const auto& cell = tables_->LeafCell(f.nt, f.i, f.j);
      SLPSPAN_DCHECK(f.idx < cell.size());
      if (cell[f.idx] != 0) out.push_back({f.shift + 1, cell[f.idx]});
      continue;
    }
    // Canonical order: ascending k (the K^k buckets are disjoint for a DFA),
    // within a bucket left-index-major (Lemma 6.9 injectivity).
    const NtId b = slp_->Left(f.nt), c = slp_->Right(f.nt);
    uint64_t rest = f.idx;
    bool found = false;
    tables_->ForEachIntermediate(*slp_, f.nt, f.i, f.j, [&](StateId k) {
      if (found) return;
      const uint64_t cb = CountOf(b, f.i, k);
      const uint64_t cc = CountOf(c, k, f.j);
      const uint64_t bucket = cb * cc;  // exact: !overflow_ checked above
      if (rest >= bucket) {
        rest -= bucket;
        return;
      }
      // A child with R = ℮ contributes no marker: only R = 1 is descended.
      if (tables_->W(c).Get(k, f.j)) {
        stack.push_back({c, k, f.j, rest % cc, f.shift + slp_->Length(b)});
      }
      if (tables_->W(b).Get(f.i, k)) {
        stack.push_back({b, f.i, k, rest / cc, f.shift});
      }
      found = true;
    });
    SLPSPAN_CHECK(found);
  }
  return MarkerSeq(std::move(out));
}

}  // namespace slpspan
