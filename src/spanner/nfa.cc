// Nfa storage plus normalization (eps-removal, marker-arc merging) and
// trimming to the useful states.
#include "spanner/nfa.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace slpspan {

bool Nfa::HasAcceptingState() const {
  return std::any_of(accepting_.begin(), accepting_.end(), [](bool b) { return b; });
}

uint64_t Nfa::NumTransitions() const {
  uint64_t total = 0;
  for (StateId s = 0; s < NumStates(); ++s) {
    total += char_arcs_[s].size() + mark_arcs_[s].size() + eps_arcs_[s].size();
  }
  return total;
}

bool Nfa::HasEpsArcs() const {
  for (const auto& v : eps_arcs_) {
    if (!v.empty()) return true;
  }
  return false;
}

bool Nfa::IsDeterministic() const {
  if (HasEpsArcs()) return false;
  for (StateId s = 0; s < NumStates(); ++s) {
    std::set<SymbolId> syms;
    for (const CharArc& a : char_arcs_[s]) {
      if (!syms.insert(a.sym).second) return false;
    }
    std::set<MarkerMask> masks;
    for (const MarkArc& a : mark_arcs_[s]) {
      if (!masks.insert(a.mask).second) return false;
    }
  }
  return true;
}

std::string Nfa::DebugString() const {
  std::ostringstream os;
  os << "Nfa{" << NumStates() << " states, " << NumTransitions() << " arcs}\n";
  for (StateId s = 0; s < NumStates(); ++s) {
    os << "  q" << s << (s == 0 ? " (start)" : "") << (accepting_[s] ? " (accept)" : "")
       << ":\n";
    for (const CharArc& a : char_arcs_[s]) {
      os << "    --sym(" << a.sym << ")--> q" << a.to << "\n";
    }
    for (const MarkArc& a : mark_arcs_[s]) {
      os << "    --mask(0x" << std::hex << a.mask << std::dec << ")--> q" << a.to
         << "\n";
    }
    for (StateId t : eps_arcs_[s]) {
      os << "    --eps--> q" << t << "\n";
    }
  }
  return os.str();
}

namespace {

// (state, collected marker mask) pairs reachable from one state via eps and
// mark arcs; paths that would repeat a marker are pruned (they cannot be part
// of a well-formed subword-marked word).
std::vector<std::pair<StateId, MarkerMask>> MarkerClosure(const Nfa& nfa, StateId from) {
  std::vector<std::pair<StateId, MarkerMask>> visited;
  std::set<std::pair<StateId, MarkerMask>> seen;
  std::deque<std::pair<StateId, MarkerMask>> queue;
  queue.push_back({from, 0});
  seen.insert({from, 0});
  while (!queue.empty()) {
    auto [q, m] = queue.front();
    queue.pop_front();
    visited.push_back({q, m});
    for (StateId t : nfa.EpsArcsFrom(q)) {
      if (seen.insert({t, m}).second) queue.push_back({t, m});
    }
    for (const Nfa::MarkArc& a : nfa.MarkArcsFrom(q)) {
      if ((m & a.mask) != 0) continue;  // marker repetition — dead path
      const MarkerMask nm = m | a.mask;
      if (seen.insert({a.to, nm}).second) queue.push_back({a.to, nm});
    }
  }
  return visited;
}

}  // namespace

Nfa Normalize(const Nfa& raw) {
  Nfa out;
  while (out.NumStates() < raw.NumStates()) out.AddState();

  // Pass 1: per-state eps closure effects — merged char arcs and absorbed
  // acceptance.
  std::vector<bool> continues(raw.NumStates(), false);  // has char arc or accepts
  std::vector<std::vector<std::pair<StateId, MarkerMask>>> closures(raw.NumStates());
  for (StateId p = 0; p < raw.NumStates(); ++p) {
    closures[p] = MarkerClosure(raw, p);
    std::set<std::pair<SymbolId, StateId>> char_added;
    bool accepting = raw.IsAccepting(p);
    for (const auto& [q, m] : closures[p]) {
      if (m != 0) continue;
      if (raw.IsAccepting(q)) accepting = true;
      for (const Nfa::CharArc& a : raw.CharArcsFrom(q)) {
        if (char_added.insert({a.sym, a.to}).second) {
          out.AddCharArc(p, a.sym, a.to);
        }
      }
    }
    out.SetAccepting(p, accepting);
    continues[p] = accepting || !char_added.empty();
  }

  // Pass 2: merged set transitions p --m--> q for every marker path with
  // content m. Arcs into states that can neither read a character nor accept
  // are dropped: they would only admit ill-formed words with two adjacent
  // set symbols, which never occur in subword-marked words.
  for (StateId p = 0; p < raw.NumStates(); ++p) {
    std::set<std::pair<MarkerMask, StateId>> mark_added;
    for (const auto& [q, m] : closures[p]) {
      if (m == 0 || !continues[q]) continue;
      if (mark_added.insert({m, q}).second) out.AddMarkArc(p, m, q);
    }
  }
  return out;
}

Nfa Trim(const Nfa& nfa) {
  // Contract: only normalized (eps-free) automata are trimmed.
  SLPSPAN_CHECK(!nfa.HasEpsArcs());  // repo-lint: allow(check-in-library)
  const uint32_t n = nfa.NumStates();

  std::vector<bool> fwd(n, false);
  {
    std::vector<StateId> stack{0};
    fwd[0] = true;
    while (!stack.empty()) {
      StateId s = stack.back();
      stack.pop_back();
      auto visit = [&](StateId t) {
        if (!fwd[t]) {
          fwd[t] = true;
          stack.push_back(t);
        }
      };
      for (const auto& a : nfa.CharArcsFrom(s)) visit(a.to);
      for (const auto& a : nfa.MarkArcsFrom(s)) visit(a.to);
    }
  }

  // Backward reachability needs reversed adjacency.
  std::vector<std::vector<StateId>> rev(n);
  for (StateId s = 0; s < n; ++s) {
    for (const auto& a : nfa.CharArcsFrom(s)) rev[a.to].push_back(s);
    for (const auto& a : nfa.MarkArcsFrom(s)) rev[a.to].push_back(s);
  }
  std::vector<bool> bwd(n, false);
  {
    std::vector<StateId> stack;
    for (StateId s = 0; s < n; ++s) {
      if (nfa.IsAccepting(s)) {
        bwd[s] = true;
        stack.push_back(s);
      }
    }
    while (!stack.empty()) {
      StateId s = stack.back();
      stack.pop_back();
      for (StateId t : rev[s]) {
        if (!bwd[t]) {
          bwd[t] = true;
          stack.push_back(t);
        }
      }
    }
  }

  std::vector<StateId> remap(n, UINT32_MAX);
  Nfa out;
  remap[0] = 0;  // start state always kept
  for (StateId s = 1; s < n; ++s) {
    if (fwd[s] && bwd[s]) remap[s] = out.AddState();
  }
  for (StateId s = 0; s < n; ++s) {
    if (remap[s] == UINT32_MAX) continue;
    out.SetAccepting(remap[s], nfa.IsAccepting(s));
    for (const auto& a : nfa.CharArcsFrom(s)) {
      if (remap[a.to] != UINT32_MAX) out.AddCharArc(remap[s], a.sym, remap[a.to]);
    }
    for (const auto& a : nfa.MarkArcsFrom(s)) {
      if (remap[a.to] != UINT32_MAX) out.AddMarkArc(remap[s], a.mask, remap[a.to]);
    }
  }
  return out;
}

Nfa AppendSentinel(const Nfa& nfa, SymbolId sentinel) {
  // Contract: only normalized (eps-free) automata get the sentinel.
  SLPSPAN_CHECK(!nfa.HasEpsArcs());  // repo-lint: allow(check-in-library)
  Nfa out;
  while (out.NumStates() < nfa.NumStates()) out.AddState();
  for (StateId s = 0; s < nfa.NumStates(); ++s) {
    for (const auto& a : nfa.CharArcsFrom(s)) out.AddCharArc(s, a.sym, a.to);
    for (const auto& a : nfa.MarkArcsFrom(s)) out.AddMarkArc(s, a.mask, a.to);
  }
  const StateId fin = out.AddState();
  for (StateId s = 0; s < nfa.NumStates(); ++s) {
    if (nfa.IsAccepting(s)) out.AddCharArc(s, sentinel, fin);
  }
  out.SetAccepting(fin, true);
  return out;
}

Nfa ProjectMarkersToEps(const Nfa& nfa) {
  Nfa out;
  while (out.NumStates() < nfa.NumStates()) out.AddState();
  for (StateId s = 0; s < nfa.NumStates(); ++s) {
    out.SetAccepting(s, nfa.IsAccepting(s));
    for (const auto& a : nfa.CharArcsFrom(s)) out.AddCharArc(s, a.sym, a.to);
    for (const auto& a : nfa.MarkArcsFrom(s)) out.AddEpsArc(s, a.to);
    for (StateId t : nfa.EpsArcsFrom(s)) out.AddEpsArc(s, t);
  }
  return out;
}

Result<Nfa> Determinize(const Nfa& nfa) {
  // Contract: only normalized (eps-free) automata are determinized.
  SLPSPAN_CHECK(!nfa.HasEpsArcs());  // repo-lint: allow(check-in-library)
  using Subset = std::vector<StateId>;

  struct SubsetHash {
    size_t operator()(const Subset& s) const {
      uint64_t h = 1469598103934665603ull;
      for (StateId x : s) {
        h ^= x;
        h *= 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  Nfa out;
  std::unordered_map<Subset, StateId, SubsetHash> ids;
  std::vector<Subset> subsets;
  auto intern = [&](Subset s) -> StateId {
    auto it = ids.find(s);
    if (it != ids.end()) return it->second;
    const StateId id = subsets.empty() ? 0 : out.AddState();
    ids.emplace(s, id);
    subsets.push_back(std::move(s));
    return id;
  };

  intern(Subset{0});
  for (StateId cur = 0; cur < subsets.size(); ++cur) {
    if (subsets.size() > kMaxEvalStates) {
      return Status::NotSupported("determinized automaton exceeds " +
                                  std::to_string(kMaxEvalStates) + " states");
    }
    // NOTE: `subsets` may grow; index access stays valid, references do not.
    const Subset members = subsets[cur];
    bool accepting = false;
    std::map<SymbolId, std::set<StateId>> by_sym;
    std::map<MarkerMask, std::set<StateId>> by_mask;
    for (StateId m : members) {
      accepting = accepting || nfa.IsAccepting(m);
      for (const auto& a : nfa.CharArcsFrom(m)) by_sym[a.sym].insert(a.to);
      for (const auto& a : nfa.MarkArcsFrom(m)) by_mask[a.mask].insert(a.to);
    }
    out.SetAccepting(cur, accepting);
    for (const auto& [sym, tos] : by_sym) {
      out.AddCharArc(cur, sym, intern(Subset(tos.begin(), tos.end())));
    }
    for (const auto& [mask, tos] : by_mask) {
      out.AddMarkArc(cur, mask, intern(Subset(tos.begin(), tos.end())));
    }
  }
  return out;
}

bool AcceptsSymbols(const Nfa& nfa, const std::vector<SymbolId>& word,
                    const SymbolTable* table) {
  auto eps_close = [&nfa](std::set<StateId>& states) {
    std::vector<StateId> stack(states.begin(), states.end());
    while (!stack.empty()) {
      StateId s = stack.back();
      stack.pop_back();
      for (StateId t : nfa.EpsArcsFrom(s)) {
        if (states.insert(t).second) stack.push_back(t);
      }
    }
  };

  std::set<StateId> cur{0};
  eps_close(cur);
  for (SymbolId sym : word) {
    std::set<StateId> next;
    if (SymbolTable::IsMaskSymbol(sym)) {
      // Contract: a word holding mask symbols comes with its symbol table.
      SLPSPAN_CHECK(table != nullptr);  // repo-lint: allow(check-in-library)
      const MarkerMask mask = table->MaskOf(sym);
      for (StateId s : cur) {
        for (const auto& a : nfa.MarkArcsFrom(s)) {
          if (a.mask == mask) next.insert(a.to);
        }
      }
    } else {
      for (StateId s : cur) {
        for (const auto& a : nfa.CharArcsFrom(s)) {
          if (a.sym == sym) next.insert(a.to);
        }
      }
    }
    eps_close(next);
    cur.swap(next);
    if (cur.empty()) return false;
  }
  for (StateId s : cur) {
    if (nfa.IsAccepting(s)) return true;
  }
  return false;
}

}  // namespace slpspan
