// RefEvaluator — naive evaluation over the *uncompressed* text; the
// differential-testing oracle for every compressed algorithm.
#include "spanner/ref_eval.h"

#include <algorithm>

namespace slpspan {

namespace {

std::vector<SymbolId> DocWithSentinel(std::string_view doc) {
  std::vector<SymbolId> word = ToSymbols(doc);
  word.push_back(kSentinelSymbol);
  return word;
}

}  // namespace

RefEvaluator::RefEvaluator(const Spanner& spanner, bool determinize)
    : num_vars_(spanner.num_vars()) {
  const Nfa& norm = spanner.normalized();
  nonempty_nfa_ = Normalize(ProjectMarkersToEps(norm));
  model_nfa_ = norm;
  Nfa with_sentinel = AppendSentinel(norm);
  // The test oracle fails hard on a blow-up (Result::value CHECKs).
  eval_nfa_ = determinize ? Determinize(with_sentinel).value() : with_sentinel;
}

bool RefEvaluator::CheckNonEmptiness(std::string_view doc) const {
  // State-set simulation over char arcs only.
  const uint32_t q = nonempty_nfa_.NumStates();
  std::vector<bool> cur(q, false), next(q, false);
  cur[0] = true;
  for (unsigned char c : doc) {
    std::fill(next.begin(), next.end(), false);
    bool any = false;
    for (StateId s = 0; s < q; ++s) {
      if (!cur[s]) continue;
      for (const Nfa::CharArc& a : nonempty_nfa_.CharArcsFrom(s)) {
        if (a.sym == c) {
          next[a.to] = true;
          any = true;
        }
      }
    }
    if (!any) return false;
    cur.swap(next);
  }
  for (StateId s = 0; s < q; ++s) {
    if (cur[s] && nonempty_nfa_.IsAccepting(s)) return true;
  }
  return false;
}

bool RefEvaluator::CheckModel(std::string_view doc, const SpanTuple& t) const {
  for (VarId v = 0; v < t.num_vars(); ++v) {
    const auto& s = t.Get(v);
    if (s.has_value() && (s->begin < 1 || s->end > doc.size() + 1)) return false;
  }
  SymbolTable table;
  const std::vector<SymbolId> word =
      MarkedWord(ToSymbols(doc), MarkerSeq::FromTuple(t), &table);
  return AcceptsSymbols(model_nfa_, word, &table);
}

std::vector<MarkerSeq> RefEvaluator::ComputeAllMarkers(std::string_view doc) const {
  const std::vector<SymbolId> word = DocWithSentinel(doc);
  const uint32_t q = eval_nfa_.NumStates();

  // Forward DP: per state, the ⪯-sorted list of partial marker sets of all
  // runs from the start state to that state over the processed prefix.
  std::vector<std::vector<MarkerSeq>> cur(q), next(q);
  cur[0].push_back(MarkerSeq());
  for (uint64_t pos = 1; pos <= word.size(); ++pos) {
    const SymbolId c = word[pos - 1];
    for (auto& list : next) list.clear();
    for (StateId p = 0; p < q; ++p) {
      if (cur[p].empty()) continue;
      for (const Nfa::CharArc& a : eval_nfa_.CharArcsFrom(p)) {
        if (a.sym != c) continue;
        next[a.to] = MergeSorted(std::move(next[a.to]), cur[p]);
      }
      for (const Nfa::MarkArc& ma : eval_nfa_.MarkArcsFrom(p)) {
        for (const Nfa::CharArc& a : eval_nfa_.CharArcsFrom(ma.to)) {
          if (a.sym != c) continue;
          // Appending the same (pos, mask) keeps the list ⪯-sorted
          // (monotonicity of the join; Lemma 6.9 / Theorem 7.1 proof).
          std::vector<MarkerSeq> shifted;
          shifted.reserve(cur[p].size());
          for (const MarkerSeq& m : cur[p]) {
            std::vector<PosMark> entries = m.entries();
            entries.push_back({pos, ma.mask});
            shifted.push_back(MarkerSeq(std::move(entries)));
          }
          next[a.to] = MergeSorted(std::move(next[a.to]), std::move(shifted));
        }
      }
    }
    cur.swap(next);
  }

  std::vector<MarkerSeq> out;
  for (StateId s = 0; s < q; ++s) {
    if (eval_nfa_.IsAccepting(s)) out = MergeSorted(std::move(out), std::move(cur[s]));
  }
  return out;
}

std::vector<SpanTuple> RefEvaluator::ComputeAll(std::string_view doc) const {
  std::vector<SpanTuple> out;
  for (const MarkerSeq& m : ComputeAllMarkers(doc)) {
    Result<SpanTuple> t = m.ToTuple(num_vars_);
    SLPSPAN_CHECK(t.ok());  // well-formed by spanner construction
    out.push_back(std::move(t).value());
  }
  return out;
}

RefEnumerator RefEvaluator::Enumerate(std::string_view doc) const {
  return RefEnumerator(&eval_nfa_, DocWithSentinel(doc), num_vars_);
}

// ---------------------------------------------------------------------------
// RefEnumerator
// ---------------------------------------------------------------------------

RefEnumerator::RefEnumerator(const Nfa* nfa, std::vector<SymbolId> word,
                             uint32_t num_vars)
    : nfa_(nfa), word_(std::move(word)), num_vars_(num_vars) {
  const uint32_t q = nfa_->NumStates();
  const size_t words = (q + 63) / 64;
  const uint64_t n = word_.size();

  // Backward co-accessibility: coacc_[pos] = states from which an accepting
  // state is reachable by reading word_[pos..n).
  coacc_.assign(n + 1, std::vector<uint64_t>(words, 0));
  for (StateId s = 0; s < q; ++s) {
    if (nfa_->IsAccepting(s)) coacc_[n][s >> 6] |= uint64_t{1} << (s & 63);
  }
  for (uint64_t pos = n; pos-- > 0;) {
    const SymbolId c = word_[pos];
    for (StateId p = 0; p < q; ++p) {
      bool ok = false;
      for (const Nfa::CharArc& a : nfa_->CharArcsFrom(p)) {
        if (a.sym == c && CoAccessible(pos + 1, a.to)) {
          ok = true;
          break;
        }
      }
      if (!ok) {
        for (const Nfa::MarkArc& ma : nfa_->MarkArcsFrom(p)) {
          for (const Nfa::CharArc& a : nfa_->CharArcsFrom(ma.to)) {
            if (a.sym == c && CoAccessible(pos + 1, a.to)) {
              ok = true;
              break;
            }
          }
          if (ok) break;
        }
      }
      if (ok) coacc_[pos][p >> 6] |= uint64_t{1} << (p & 63);
    }
  }

  if (!CoAccessible(0, 0)) return;  // empty result set
  Frame root{0, {}, 0};
  BuildMoves(&root, 0);
  stack_.push_back(std::move(root));
  valid_ = true;
  Advance();
}

void RefEnumerator::BuildMoves(Frame* f, uint64_t pos) const {
  f->moves.clear();
  f->next_move = 0;
  if (pos >= word_.size()) return;  // leaf layer
  const SymbolId c = word_[pos];
  for (const Nfa::CharArc& a : nfa_->CharArcsFrom(f->state)) {
    if (a.sym == c && CoAccessible(pos + 1, a.to)) f->moves.push_back({0, a.to});
  }
  for (const Nfa::MarkArc& ma : nfa_->MarkArcsFrom(f->state)) {
    for (const Nfa::CharArc& a : nfa_->CharArcsFrom(ma.to)) {
      if (a.sym == c && CoAccessible(pos + 1, a.to)) {
        f->moves.push_back({ma.mask, a.to});
      }
    }
  }
}

void RefEnumerator::Advance() {
  // Depth-first search over the trimmed product DAG; every maximal path ends
  // in an accepting leaf because of the co-accessibility pruning.
  const uint64_t n = word_.size();
  while (!stack_.empty()) {
    Frame& top = stack_.back();
    const uint64_t pos = stack_.size() - 1;
    if (pos == n) {
      // Accepting leaf reached: emit, then pop so the next Advance resumes.
      AssembleCurrent();
      stack_.pop_back();
      valid_ = true;
      return;
    }
    if (top.next_move >= top.moves.size()) {
      stack_.pop_back();
      if (!marks_.empty() && marks_.back().pos == pos) marks_.pop_back();
      continue;
    }
    const Move mv = top.moves[top.next_move++];
    if (mv.mask != 0) marks_.push_back({pos + 1, mv.mask});
    Frame child{mv.to, {}, 0};
    BuildMoves(&child, pos + 1);
    stack_.push_back(std::move(child));
  }
  valid_ = false;
}

void RefEnumerator::Next() {
  SLPSPAN_CHECK(valid_);
  // The accepting leaf was already popped; clean up any mask taken on the
  // edge into it, then resume the DFS.
  const uint64_t pos = stack_.size();  // position of the popped leaf
  if (!marks_.empty() && marks_.back().pos == pos) marks_.pop_back();
  Advance();
}

void RefEnumerator::AssembleCurrent() { current_ = MarkerSeq(marks_); }

SpanTuple RefEnumerator::Current() const {
  Result<SpanTuple> t = CurrentMarkers().ToTuple(num_vars_);
  SLPSPAN_CHECK(t.ok());
  return std::move(t).value();
}

}  // namespace slpspan
