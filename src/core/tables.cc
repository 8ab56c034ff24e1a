// EvalTables construction: interned per-rule transition matrices, built
// serially or wave-parallel over the SLP's dependency levels, against a
// private or cross-document-shared product memo (core/prepare_memo.h).
#include "core/tables.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/prepare_memo.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace slpspan {

namespace {

using core_internal::HashBoolMatrix;
using core_internal::SharedPrepareMemo;

/// One bottom-up preparation pass (Lemma 6.5), scheduled wave-by-wave over
/// derivation depth. Non-terminals within a wave only read results of
/// earlier waves, so they are processed concurrently when opts.threads > 1;
/// waves are separated by a ThreadPool::WaitIdle barrier.
///
/// All produced matrices are interned into an arena. With opts.memoize,
/// Multiply and Or are additionally cached by operand index pair: on
/// repetitive grammars the same rule shape — the same pair of child-matrix
/// indices — recurs thousands of times, and every recurrence is a hash
/// lookup instead of an O(q³/w) product. The memo, interner and arena live
/// in a SharedPrepareMemo: private to this build by default, or — corpus
/// runs — supplied by the caller and shared across the preparations of
/// many documents, so products an earlier document computed are memo hits
/// here. The memo's one mutex is taken only when anything can run
/// concurrently (parallel build or shared memo); the expensive
/// multiplications always run outside it, so distinct products still
/// parallelize. Two workers racing on the same missing product both
/// compute it — the interner deduplicates the result and the memo insert
/// is idempotent, so the race costs duplicate work, never correctness.
class TableBuilder {
 public:
  TableBuilder(const Slp& slp, const Nfa& nfa, const PrepareOptions& opts,
               std::vector<uint32_t>* u_idx, std::vector<uint32_t>* w_idx,
               std::vector<uint32_t>* leaf_index,
               std::vector<std::vector<std::vector<MarkerMask>>>* leaf_cells)
      : slp_(slp),
        nfa_(nfa),
        memoize_(opts.memoize),
        q_(nfa.NumStates()),
        // Upper bound on arena slots: 2 per leaf (U, W) and — memoized —
        // up to 5 per inner rule (U, U|W, two partial products, W).
        slots_(2ull * (slp.NumNonTerminals() - slp.NumInnerNonTerminals()) +
               5ull * slp.NumInnerNonTerminals() + 1),
        shared_(AttachShared(opts, slots_, q_)),
        local_(shared_ ? nullptr : std::make_unique<SharedPrepareMemo>(slots_)),
        memo_(shared_ ? shared_.get() : local_.get()),
        u_idx_(u_idx),
        w_idx_(w_idx),
        leaf_cells_(leaf_cells) {
    uint32_t threads = opts.threads;
    if (threads == 0) threads = std::thread::hardware_concurrency();
    // Never oversubscribe: extra workers on a core-starved host only add
    // scheduler and lock-handoff overhead (bench E13 measures the pass, not
    // the scheduler). Requested vs effective shows up in PrepareStats.
    threads_ = std::max(
        1u, std::min(threads, std::max(1u, std::thread::hardware_concurrency())));
    parallel_ = threads_ > 1;
    // A shared memo is touched by other documents' builders concurrently,
    // so locking is unconditional there even for a serial wave schedule.
    lock_ = parallel_ || shared_ != nullptr;

    const uint32_t n = slp.NumNonTerminals();
    leaf_index->assign(n, UINT32_MAX);
    for (NtId a = 0; a < n; ++a) {
      if (slp.IsLeaf(a)) {
        (*leaf_index)[a] = static_cast<uint32_t>(leaf_cells->size());
        leaf_cells->emplace_back(static_cast<size_t>(q_) * q_);
      }
    }
    leaf_index_ = leaf_index;
    if (memoize_ && !shared_) {
      // One entry per inner rule worst-case; reserving up front keeps the
      // hit path free of rehash passes (which would re-walk the whole table
      // log(n) times over a large grammar). A shared memo persists across
      // preparations and sizes itself as it grows.
      util::MutexLock lock(&memo_->mu);
      memo_->rule_memo.reserve(slp.NumInnerNonTerminals());
    }
  }

  ~TableBuilder() {
    if (shared_) memo_->Release(slots_);
  }

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  void Run() {
    // Wave t holds the non-terminals of derivation depth t + 1; every level
    // 1..depth(S) is populated (each inner rule has a child one level down).
    std::vector<std::vector<NtId>> waves(slp_.depth());
    for (NtId a = 0; a < slp_.NumNonTerminals(); ++a) {
      waves[slp_.Depth(a) - 1].push_back(a);
    }

    std::unique_ptr<util::ThreadPool> pool;
    if (parallel_) pool = std::make_unique<util::ThreadPool>(threads_ - 1);

    for (const std::vector<NtId>& wave : waves) {
      // Small waves run inline: fanning out work that is cheaper than the
      // task handoff only adds overhead (and most waves near the root hold
      // a handful of rules).
      if (!pool || wave.size() < 2 * kGrain) {
        for (const NtId a : wave) Process(a);
        continue;
      }
      std::atomic<size_t> next{0};
      const uint32_t helpers = static_cast<uint32_t>(std::min<size_t>(
          threads_ - 1, wave.size() / kGrain - 1));
      for (uint32_t t = 0; t < helpers; ++t) {
        pool->Submit([this, &wave, &next] { Drain(wave, &next); });
      }
      Drain(wave, &next);
      pool->WaitIdle();  // wave barrier: publishes this wave's u/w indices
    }
  }

  void FillStats(PrepareStats* stats) const {
    stats->rules = slp_.NumNonTerminals();
    // A rule-shape hit stands for the per-operation memo hits the slow path
    // would have recorded for that shape (3-5 ops; see Process).
    const uint64_t rule_ops = rule_hit_ops_.load(std::memory_order_relaxed);
    stats->products = products_.load(std::memory_order_relaxed) + rule_ops;
    stats->memo_hits = memo_hits_.load(std::memory_order_relaxed) + rule_ops;
    stats->distinct_products = stats->products - stats->memo_hits;
    stats->waves = slp_.depth();
    stats->threads = threads_;
  }

  /// Materializes the matrices actually referenced by u_idx/w_idx into
  /// `pool` in first-reference order — exactly the order the historical
  /// serial-naive interner produced — and rewrites the indices.
  /// Intermediates (partial products no non-terminal references) are
  /// dropped, so the final tables are bit-identical across naive, memoized,
  /// parallel and shared-memo builds. A private arena is moved from; a
  /// shared arena is copied from (its matrices stay live for the other
  /// documents of the corpus run).
  void CompactInto(std::vector<BoolMatrix>* pool) {
    // Keyed remap rather than a dense one: a shared arena's size can grow
    // concurrently (other documents appending), so it cannot be read here.
    std::unordered_map<uint32_t, uint32_t> remap;
    remap.reserve(2 * slp_.NumNonTerminals());
    for (NtId a = 0; a < slp_.NumNonTerminals(); ++a) {
      for (uint32_t* slot : {&(*u_idx_)[a], &(*w_idx_)[a]}) {
        const auto [it, inserted] =
            remap.emplace(*slot, static_cast<uint32_t>(pool->size()));
        if (inserted) {
          if (shared_) {
            pool->push_back(memo_->arena.at(*slot));
          } else {
            pool->push_back(std::move(memo_->arena.mutable_at(*slot)));
          }
        }
        *slot = it->second;
      }
    }
  }

 private:
  static constexpr size_t kGrain = 16;  // rules claimed per atomic fetch

  /// Admission: attach to the caller's shared memo when sharing is on and
  /// the worst case fits, else run against a private memo. Sharing without
  /// memoization is pointless (the naive pass interns only final tables and
  /// consults no memo), so it is treated as unshared, not as a fallback.
  static std::shared_ptr<SharedPrepareMemo> AttachShared(
      const PrepareOptions& opts, size_t slots, uint32_t q) {
    if (!opts.shared_memo || !opts.memoize) return nullptr;
    if (!opts.shared_memo->TryReserve(slots, q)) return nullptr;
    return opts.shared_memo;
  }

  /// Interns `m`: returns the index of an equal arena matrix or appends.
  /// Caller holds the lock whenever concurrency is possible
  /// (OptionalMutexLock claims the capability on both paths, so the
  /// analysis checks serial mode too).
  uint32_t InternLocked(BoolMatrix m) REQUIRES(memo_->mu) {
    std::vector<uint32_t>& bucket = memo_->by_hash[HashBoolMatrix(m)];
    for (const uint32_t idx : bucket) {
      if (memo_->arena.at(idx) == m) return idx;
    }
    // Pool matrices are multiply operands from here on: freeze the density
    // profile now, while this thread still owns the matrix exclusively.
    if (!m.has_row_popcounts()) m.CacheRowPopcounts();
    bucket.push_back(memo_->arena.Append(std::move(m)));
    return bucket.back();
  }

  static uint64_t PackPair(uint32_t i, uint32_t j) {
    return (static_cast<uint64_t>(i) << 32) | j;
  }

  /// Memoized boolean product arena[i] · arena[j].
  uint32_t Mul(uint32_t i, uint32_t j) {
    products_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t key = PackPair(i, j);
    {
      util::OptionalMutexLock lock(&memo_->mu, lock_);
      const auto it = memo_->mul_memo.find(key);
      if (it != memo_->mul_memo.end()) {
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    BoolMatrix m = BoolMatrix::Multiply(memo_->arena.at(i), memo_->arena.at(j));
    util::OptionalMutexLock lock(&memo_->mu, lock_);
    const uint32_t k = InternLocked(std::move(m));
    memo_->mul_memo.emplace(key, k);
    return k;
  }

  /// Memoized boolean sum arena[i] | arena[j] (commutative — key
  /// normalized; i == j is the identity and costs nothing).
  uint32_t OrOf(uint32_t i, uint32_t j) {
    if (i == j) return i;
    products_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t key = PackPair(std::min(i, j), std::max(i, j));
    {
      util::OptionalMutexLock lock(&memo_->mu, lock_);
      const auto it = memo_->or_memo.find(key);
      if (it != memo_->or_memo.end()) {
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    BoolMatrix m = memo_->arena.at(i);
    m.OrWith(memo_->arena.at(j));
    util::OptionalMutexLock lock(&memo_->mu, lock_);
    const uint32_t k = InternLocked(std::move(m));
    memo_->or_memo.emplace(key, k);
    return k;
  }

  void Drain(const std::vector<NtId>& wave, std::atomic<size_t>* next) {
    for (;;) {
      const size_t begin = next->fetch_add(kGrain, std::memory_order_relaxed);
      if (begin >= wave.size()) return;
      const size_t end = std::min(begin + kGrain, wave.size());
      for (size_t i = begin; i < end; ++i) Process(wave[i]);
    }
  }

  void Process(NtId a) {
    if (slp_.IsLeaf(a)) {
      ProcessLeaf(a);
      return;
    }
    // U_A = U_B·U_C ;  W_A = (U_B|W_B)·W_C ∨ W_B·U_C.
    const NtId b = slp_.Left(a), c = slp_.Right(a);
    const uint32_t ub = (*u_idx_)[b], wb = (*w_idx_)[b];
    const uint32_t uc = (*u_idx_)[c], wc = (*w_idx_)[c];
    if (!memoize_) {
      // Naive reference pass (kept for benchmarking and differential
      // testing): every product is computed; only the final U/W land in the
      // interner, exactly like the pre-memoization builder.
      products_.fetch_add(5, std::memory_order_relaxed);
      BoolMatrix u =
          BoolMatrix::Multiply(memo_->arena.at(ub), memo_->arena.at(uc));
      BoolMatrix any_b = memo_->arena.at(ub);
      any_b.OrWith(memo_->arena.at(wb));
      BoolMatrix w = BoolMatrix::Multiply(any_b, memo_->arena.at(wc));
      w.OrWith(BoolMatrix::Multiply(memo_->arena.at(wb), memo_->arena.at(uc)));
      util::OptionalMutexLock lock(&memo_->mu, lock_);
      (*u_idx_)[a] = InternLocked(std::move(u));
      (*w_idx_)[a] = InternLocked(std::move(w));
      return;
    }
    // Rule-shape fast path: on repetitive grammars the same child-matrix
    // quadruple recurs thousands of times — across documents of a corpus
    // run as well as within one — and one lookup replaces the five
    // per-operation memo probes (the difference between ~5 and ~1 hash
    // walks per rule dominates when q is small enough that even a computed
    // product is cheap).
    const SharedPrepareMemo::RuleKey rule_key{PackPair(ub, wb),
                                              PackPair(uc, wc)};
    {
      util::OptionalMutexLock lock(&memo_->mu, lock_);
      const auto it = memo_->rule_memo.find(rule_key);
      if (it != memo_->rule_memo.end()) {
        rule_hit_ops_.fetch_add(it->second.ops, std::memory_order_relaxed);
        (*u_idx_)[a] = it->second.u;
        (*w_idx_)[a] = it->second.w;
        return;
      }
    }
    const uint32_t u = Mul(ub, uc);
    const uint32_t any_b = OrOf(ub, wb);
    const uint32_t w_marked_right = Mul(any_b, wc);
    const uint32_t w_marked_left = Mul(wb, uc);
    const uint32_t w = OrOf(w_marked_right, w_marked_left);
    (*u_idx_)[a] = u;
    (*w_idx_)[a] = w;
    // Ops this shape actually records per evaluation: three products plus
    // each Or that is not an i == j identity — a hit must credit the same
    // count, or products/hit-rate would overstate the work memoized.
    const uint32_t ops = 3 + (ub != wb) + (w_marked_right != w_marked_left);
    util::OptionalMutexLock lock(&memo_->mu, lock_);
    memo_->rule_memo.emplace(rule_key,
                             SharedPrepareMemo::RuleValue{u, w, ops});
  }

  void ProcessLeaf(NtId a) {
    // Leaf tables (Lemma 6.5): M_Tx[i,j] = { p(A1 x) : i --A1 x--> j }.
    const SymbolId x = slp_.LeafSymbol(a);
    auto& cells = (*leaf_cells_)[(*leaf_index_)[a]];
    BoolMatrix u(q_);
    BoolMatrix w(q_);
    for (StateId i = 0; i < q_; ++i) {
      // Direct char arc: the unmarked word x, element ∅.
      for (const Nfa::CharArc& ca : nfa_.CharArcsFrom(i)) {
        if (ca.sym == x) {
          cells[i * q_ + ca.to].push_back(0);
          u.Set(i, ca.to);
        }
      }
      // Marker set then char: i --mask--> l --x--> j, element {(1, mask)}.
      for (const Nfa::MarkArc& ma : nfa_.MarkArcsFrom(i)) {
        for (const Nfa::CharArc& ca : nfa_.CharArcsFrom(ma.to)) {
          if (ca.sym == x) {
            cells[i * q_ + ca.to].push_back(ma.mask);
            w.Set(i, ca.to);
          }
        }
      }
    }
    {
      util::OptionalMutexLock lock(&memo_->mu, lock_);
      (*u_idx_)[a] = InternLocked(std::move(u));
      (*w_idx_)[a] = InternLocked(std::move(w));
    }
    // Sort every cell by the paper's ⪯ (non-empty masks first — the empty
    // set is a prefix of everything, hence largest) and deduplicate.
    for (auto& cell : cells) {
      std::sort(cell.begin(), cell.end(), [](MarkerMask m1, MarkerMask m2) {
        return CompareMasks(m1, m2) < 0;
      });
      cell.erase(std::unique(cell.begin(), cell.end()), cell.end());
    }
  }

  const Slp& slp_;
  const Nfa& nfa_;
  const bool memoize_;
  const uint32_t q_;
  const size_t slots_;  // worst-case arena appends of this preparation

  // The memo this build runs against: the caller's shared instance when
  // admission succeeded (shared_ keeps it alive), else a private one sized
  // to this preparation's exact worst case. memo_ is the single access
  // path for both (const so the analysis can track memo_->mu).
  const std::shared_ptr<SharedPrepareMemo> shared_;
  const std::unique_ptr<SharedPrepareMemo> local_;
  SharedPrepareMemo* const memo_;

  uint32_t threads_ = 1;
  bool parallel_ = false;
  bool lock_ = false;  // take memo_->mu (parallel build or shared memo)

  std::vector<uint32_t>* u_idx_;
  std::vector<uint32_t>* w_idx_;
  std::vector<uint32_t>* leaf_index_ = nullptr;
  std::vector<std::vector<std::vector<MarkerMask>>>* leaf_cells_;

  std::atomic<uint64_t> products_{0};
  std::atomic<uint64_t> memo_hits_{0};
  std::atomic<uint64_t> rule_hit_ops_{0};
};

}  // namespace

EvalTables::EvalTables(const Slp& slp, const Nfa& nfa,
                       const PrepareOptions& opts, PrepareStats* stats) {
  SLPSPAN_CHECK(!nfa.HasEpsArcs());
  q_ = nfa.NumStates();
  const uint32_t n = slp.NumNonTerminals();
  u_idx_.resize(n);
  w_idx_.resize(n);

  TableBuilder builder(slp, nfa, opts, &u_idx_, &w_idx_, &leaf_index_,
                       &leaf_cells_);
  builder.Run();
  builder.CompactInto(&pool_);
  if (stats != nullptr) {
    builder.FillStats(stats);
    stats->pool_matrices = pool_.size();
  }
}

Result<EvalTables> EvalTables::FromParts(
    const Slp& slp, uint32_t q, std::vector<BoolMatrix> pool,
    std::vector<uint32_t> u_idx, std::vector<uint32_t> w_idx,
    std::vector<std::vector<std::vector<MarkerMask>>> leaf_cells) {
  const uint32_t n = slp.NumNonTerminals();
  if (pool.empty()) return Status::Corruption("empty matrix pool");
  for (const BoolMatrix& m : pool) {
    if (m.n() != q) {
      return Status::Corruption("eval-table matrix has wrong dimension");
    }
  }
  if (u_idx.size() != n || w_idx.size() != n) {
    return Status::Corruption("matrix index count does not match grammar");
  }
  // Adopted pool matrices serve as multiply operands (model checking builds
  // on top of loaded tables): give them the same frozen density profile a
  // built pool carries. The bundle loader already cached most of them.
  for (BoolMatrix& m : pool) {
    if (!m.has_row_popcounts()) m.CacheRowPopcounts();
  }
  for (uint32_t a = 0; a < n; ++a) {
    if (u_idx[a] >= pool.size() || w_idx[a] >= pool.size()) {
      return Status::Corruption("matrix index out of range");
    }
  }
  EvalTables tables;
  tables.q_ = q;
  tables.leaf_index_.assign(n, UINT32_MAX);
  size_t next_leaf = 0;
  for (NtId a = 0; a < n; ++a) {
    if (!slp.IsLeaf(a)) continue;
    if (next_leaf >= leaf_cells.size()) {
      return Status::Corruption("missing leaf cells");
    }
    if (leaf_cells[next_leaf].size() != static_cast<size_t>(q) * q) {
      return Status::Corruption("leaf cell grid has wrong dimension");
    }
    tables.leaf_index_[a] = static_cast<uint32_t>(next_leaf++);
  }
  if (next_leaf != leaf_cells.size()) {
    return Status::Corruption("extra leaf cells");
  }
  tables.pool_ = std::move(pool);
  tables.u_idx_ = std::move(u_idx);
  tables.w_idx_ = std::move(w_idx);
  tables.leaf_cells_ = std::move(leaf_cells);
  return tables;
}

uint64_t EvalTables::MemoryUsage() const {
  uint64_t bytes = sizeof(*this);
  for (const BoolMatrix& m : pool_) bytes += m.MemoryUsage();
  bytes += u_idx_.capacity() * sizeof(uint32_t);
  bytes += w_idx_.capacity() * sizeof(uint32_t);
  bytes += leaf_index_.capacity() * sizeof(uint32_t);
  bytes += leaf_cells_.capacity() * sizeof(std::vector<std::vector<MarkerMask>>);
  for (const auto& cells : leaf_cells_) {
    bytes += cells.capacity() * sizeof(std::vector<MarkerMask>);
    for (const auto& cell : cells) bytes += cell.capacity() * sizeof(MarkerMask);
  }
  return bytes;
}

int32_t EvalTables::NextIntermediate(const Slp& slp, NtId a, StateId i, StateId j,
                                     int32_t after) const {
  const uint32_t start = static_cast<uint32_t>(after + 1);
  if (start >= q_) return -1;
  // Word-wise over row NZ_B[i] = U_B[i] | W_B[i], as ForEachIntermediate;
  // only the candidates k it yields pay the NZ_C[k,j] test.
  const NtId b = slp.Left(a), c = slp.Right(a);
  const uint64_t* ub = U(b).Row(i);
  const uint64_t* wb = W(b).Row(i);
  const uint32_t words = U(b).logical_words_per_row();
  uint32_t w = start >> 6;
  uint64_t bits = (ub[w] | wb[w]) & (~uint64_t{0} << (start & 63));
  while (true) {
    while (bits != 0) {
      const StateId k = (w << 6) + static_cast<uint32_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      if (NonBot(c, k, j)) return static_cast<int32_t>(k);
    }
    if (++w >= words) return -1;
    bits = ub[w] | wb[w];
  }
}

std::vector<StateId> EvalTables::AcceptingNonBot(const Slp& slp, const Nfa& nfa) const {
  std::vector<StateId> out;
  for (StateId j = 0; j < q_; ++j) {
    if (nfa.IsAccepting(j) && NonBot(slp.root(), 0, j)) out.push_back(j);
  }
  return out;
}

}  // namespace slpspan
