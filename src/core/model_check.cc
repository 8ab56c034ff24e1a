// Model checking t ∈ ⟦M⟧(D) over an SLP-compressed document — paper
// Theorem 5.1(2): splice marker symbols into the SLP, then run membership.
#include "core/model_check.h"

#include "core/membership.h"
#include "slp/factory.h"

namespace slpspan {

Slp SpliceMarkers(const Slp& slp, const MarkerSeq& markers, SymbolTable* table) {
  SLPSPAN_CHECK(markers.empty() || markers.MaxPos() <= slp.DocumentLength());

  // Distinct names for equal expansions are required here (the path copies
  // must not collapse back onto the original non-terminals), hence no pair
  // dedup.
  CnfAssembler a(/*dedup_pairs=*/false);

  // Import the original rules; shared subtrees stay shared.
  std::vector<NtId> imported(slp.NumNonTerminals());
  for (NtId x = 0; x < slp.NumNonTerminals(); ++x) {
    imported[x] = slp.IsLeaf(x)
                      ? a.Leaf(slp.LeafSymbol(x))
                      : a.Pair(imported[slp.Left(x)], imported[slp.Right(x)]);
  }

  const auto& entries = markers.entries();

  // Splice(nt, [lo, hi), base): fresh non-terminal deriving m(D(nt), the
  // markers entries[lo..hi) relative to absolute offset `base`). Only the
  // O(#entries * depth) path copies are fresh; untouched subtrees reuse the
  // imported rules. Marker position p marks the gap *before* document
  // position p, so entry p belongs to the left child iff p <= base + |D(B)|.
  //
  // Runs on an explicit stack: a chain grammar is one level per character,
  // far deeper than a thread's stack. The assembler calls come in post
  // order — left copy, right copy, then their pair — which fixes the rule
  // numbering of the spliced grammar. A child whose marker range is empty
  // is the imported rule and never gets a frame.
  struct Frame {
    NtId nt;
    size_t lo, mid, hi;
    uint64_t base;
    bool split;  // children pushed; their copies are due
  };
  std::vector<Frame> stack;
  std::vector<NtId> done;  // finished copies, innermost last
  const auto push = [&](NtId nt, size_t lo, size_t hi, uint64_t base) {
    if (lo == hi) return;
    stack.push_back({nt, lo, lo, hi, base, false});
  };
  push(slp.root(), 0, entries.size(), 0);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.split) {
      const NtId b = slp.Left(f.nt), c = slp.Right(f.nt);
      NtId new_c = imported[c];
      if (f.mid < f.hi) {
        new_c = done.back();
        done.pop_back();
      }
      NtId new_b = imported[b];
      if (f.lo < f.mid) {
        new_b = done.back();
        done.pop_back();
      }
      stack.pop_back();
      done.push_back(a.Pair(new_b, new_c));
      continue;
    }
    if (slp.IsLeaf(f.nt)) {
      SLPSPAN_CHECK(f.hi - f.lo == 1 && entries[f.lo].pos == f.base + 1);
      const NtId mask_leaf = a.Leaf(table->InternMask(entries[f.lo].marks));
      done.push_back(a.Pair(mask_leaf, imported[f.nt]));
      stack.pop_back();
      continue;
    }
    const NtId b = slp.Left(f.nt), c = slp.Right(f.nt);
    const uint64_t left_len = slp.Length(b);
    size_t mid = f.lo;
    while (mid < f.hi && entries[mid].pos <= f.base + left_len) ++mid;
    f.mid = mid;
    f.split = true;
    const Frame copy = f;  // push() may reallocate the stack
    push(c, copy.mid, copy.hi, copy.base + left_len);
    push(b, copy.lo, copy.mid, copy.base);
  }
  const NtId root = entries.empty() ? imported[slp.root()] : done.back();
  return a.Finish(root);
}

bool CheckModelPrepared(const Slp& slp_with_sentinel, const Nfa& nfa_with_sentinel,
                        const SpanTuple& t) {
  const uint64_t d = slp_with_sentinel.DocumentLength() - 1;  // without '#'
  for (VarId v = 0; v < t.num_vars(); ++v) {
    const auto& s = t.Get(v);
    if (s.has_value() && (s->begin < 1 || s->end > d + 1)) return false;
  }
  SymbolTable table;
  // Positions are <= d+1 = |D#|, so every marker lands before a character.
  const Slp spliced =
      SpliceMarkers(slp_with_sentinel, MarkerSeq::FromTuple(t), &table);
  return SlpInLanguage(spliced, nfa_with_sentinel, &table);
}

bool CheckModel(const Slp& slp, const Spanner& spanner, const SpanTuple& t) {
  const Slp with_sentinel = SlpAppendSymbol(slp, kSentinelSymbol);
  const Nfa nfa = AppendSentinel(spanner.normalized());
  return CheckModelPrepared(with_sentinel, nfa, t);
}

}  // namespace slpspan
