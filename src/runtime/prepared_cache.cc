// PreparedCache — process-wide sharded LRU over prepared states with
// single-flight builds, per-document counters and an optional disk spill tier.
#include "runtime/prepared_cache.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "api/internal.h"
#include "util/thread_pool.h"
#include "storage/prepared_bundle.h"
#include "storage/spill_store.h"

namespace slpspan {
namespace runtime_internal {

namespace {

// Staged configuration, consumed by Global() at first use (shards) or pushed
// through immediately (budget). Changing shards after first use is a no-op.
// g_config_mu orders configuration against singleton creation, so a budget
// configured concurrently with the first lookup is never lost; the atomic
// pointer keeps the created-cache fast path lock-free.
util::Mutex g_config_mu;
uint64_t g_staged_budget GUARDED_BY(g_config_mu) =
    RuntimeOptions{}.cache_bytes;
uint32_t g_staged_shards GUARDED_BY(g_config_mu) =
    RuntimeOptions{}.cache_shards;
std::atomic<PreparedCache*> g_cache{nullptr};

}  // namespace

PreparedCache& PreparedCache::Global() {
  PreparedCache* cache = g_cache.load(std::memory_order_acquire);
  if (cache != nullptr) return *cache;
  util::MutexLock lock(&g_config_mu);
  cache = g_cache.load(std::memory_order_relaxed);
  if (cache == nullptr) {
    // Leaked singleton: prepared state may be referenced from static-duration
    // objects in the host, so the cache must not be destroyed at exit.
    cache = new PreparedCache(g_staged_budget, g_staged_shards);
    g_cache.store(cache, std::memory_order_release);
  }
  return *cache;
}

void PreparedCache::ConfigureGlobal(uint64_t budget_bytes, uint32_t shards) {
  util::MutexLock lock(&g_config_mu);
  g_staged_budget = budget_bytes;
  if (shards > 0) g_staged_shards = shards;
  if (PreparedCache* cache = g_cache.load(std::memory_order_relaxed)) {
    cache->SetByteBudget(budget_bytes);
  }
}

void PreparedCache::SetGlobalBudget(uint64_t budget_bytes) {
  util::MutexLock lock(&g_config_mu);
  g_staged_budget = budget_bytes;
  if (PreparedCache* cache = g_cache.load(std::memory_order_relaxed)) {
    cache->SetByteBudget(budget_bytes);
  }
}

PreparedCache::PreparedCache(uint64_t budget_bytes, uint32_t shards)
    : shards_(std::bit_ceil(std::max<uint32_t>(1, shards))), budget_(budget_bytes) {
  shard_mask_ = static_cast<uint32_t>(shards_.size()) - 1;
}

void PreparedCache::RecordQueryId(
    const std::shared_ptr<DocCacheCounters>& doc, uint64_t query_id) {
  util::MutexLock lock(&doc->mu);
  if (std::find(doc->query_ids.begin(), doc->query_ids.end(), query_id) ==
      doc->query_ids.end()) {
    doc->query_ids.push_back(query_id);
  }
}

PreparedCache::StatePtr PreparedCache::GetOrBuild(
    uint64_t doc_id, uint64_t query_id, uint64_t doc_fp, uint64_t query_fp,
    const std::shared_ptr<DocCacheCounters>& doc, const Builder& build) {
  const Key key{doc_id, query_id};
  Shard& shard = ShardFor(key);
  std::shared_ptr<Build> pending;

  {
    util::MutexLock lock(&shard.mu);
    for (;;) {
      auto it = shard.map.find(key);
      if (it != shard.map.end()) return HitLocked(shard, it->second, *doc);

      auto inflight_it = shard.inflight.find(key);
      if (inflight_it == shard.inflight.end()) break;  // we lead the build
      // Single-flight: another thread is already paying the preparation;
      // wait for it instead of duplicating O(|M| + size(S)·q³) work.
      std::shared_ptr<Build> in_flight = inflight_it->second;
      while (!in_flight->done) shard.cv.Wait(shard.mu);
      if (in_flight->result == nullptr) continue;  // leader threw; re-race
      hits_.fetch_add(1, std::memory_order_relaxed);
      doc->hits.fetch_add(1, std::memory_order_relaxed);
      return in_flight->result;
    }

    // Miss: this thread is the build leader.
    pending = std::make_shared<Build>();
    shard.inflight.emplace(key, pending);
    misses_.fetch_add(1, std::memory_order_relaxed);
    doc->misses.fetch_add(1, std::memory_order_relaxed);
  }

  // Two-tier lookup: a spilled bundle (mmap + validated deserialization) is
  // an order of magnitude cheaper than re-running the O(size(S)·q³)
  // preparation, so the disk tier goes first. Waiters behind the
  // single-flight rendezvous get whichever state the leader lands. Both
  // tiers sit inside the unwind block: an exception from either (e.g.
  // bad_alloc) must release the rendezvous or every waiter — and every
  // future caller of this key — blocks forever.
  StatePtr state;
  try {
    if (std::shared_ptr<storage::SpillStore> spill = SpillSnapshot()) {
      state = spill->Get(doc_fp, query_fp, RechargeHookFor(doc_id, query_id));
    }
    if (state == nullptr) state = build();
  } catch (...) {
    // Unwind the rendezvous (done with a null result) so waiters re-race
    // for leadership instead of blocking on a key that will never land.
    {
      util::MutexLock lock(&shard.mu);
      pending->done = true;
      shard.inflight.erase(key);
    }
    shard.cv.NotifyAll();
    throw;
  }
  const uint64_t bytes = state->MemoryUsage();

  std::vector<Entry> victims;
  {
    util::MutexLock lock(&shard.mu);
    pending->done = true;
    pending->result = state;
    shard.inflight.erase(key);
    if (bytes > PerShardBudget()) {
      // Size-aware admission: an entry bigger than its shard's budget slice
      // can never stay resident — inserting it would evict the whole shard
      // and thrash. Reject it up front (the drop still counts as an
      // eviction) and route it straight to the disk tier.
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      doc->evictions.fetch_add(1, std::memory_order_relaxed);
      victims.push_back(Entry{key, state, doc, bytes, doc_fp, query_fp});
    } else if (shard.map.find(key) == shard.map.end()) {
      shard.lru.push_front(Entry{key, state, doc, bytes, doc_fp, query_fp});
      shard.map.emplace(key, shard.lru.begin());
      shard.bytes += bytes;
      doc->entries.fetch_add(1, std::memory_order_relaxed);
      doc->bytes.fetch_add(bytes, std::memory_order_relaxed);
      EvictOverBudgetLocked(shard, &victims);
    }
    // else: a concurrent Insert (bundle import) landed this key while the
    // build ran outside the lock; keep the resident entry — a blind
    // push_front would orphan an LRU node and double-charge the accounting.
  }
  shard.cv.NotifyAll();
  SpillVictims(std::move(victims));

  RecordQueryId(doc, query_id);
  return state;
}

PreparedCache::StatePtr PreparedCache::HitLocked(
    Shard& shard, std::list<Entry>::iterator entry, DocCacheCounters& doc) {
  shard.mu.AssertHeld();
  shard.lru.splice(shard.lru.begin(), shard.lru, entry);
  hits_.fetch_add(1, std::memory_order_relaxed);
  doc.hits.fetch_add(1, std::memory_order_relaxed);
  return entry->state;
}

PreparedCache::StatePtr PreparedCache::Lookup(
    uint64_t doc_id, uint64_t query_id,
    const std::shared_ptr<DocCacheCounters>& doc) {
  const Key key{doc_id, query_id};
  Shard& shard = ShardFor(key);
  util::MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  return HitLocked(shard, it->second, *doc);
}

void PreparedCache::Insert(uint64_t doc_id, uint64_t query_id, uint64_t doc_fp,
                           uint64_t query_fp,
                           const std::shared_ptr<DocCacheCounters>& doc,
                           const StatePtr& state) {
  const uint64_t bytes = state->MemoryUsage();
  const Key key{doc_id, query_id};
  Shard& shard = ShardFor(key);
  std::vector<Entry> victims;
  {
    util::MutexLock lock(&shard.mu);
    if (shard.map.find(key) != shard.map.end()) return;  // already resident
    if (bytes > PerShardBudget()) {
      // Same admission rule as built entries. Route the state to the disk
      // tier (skipped if its bundle is already there) so the import is not
      // simply lost — the next miss can at least warm from disk.
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      doc->evictions.fetch_add(1, std::memory_order_relaxed);
      victims.push_back(Entry{key, state, doc, bytes, doc_fp, query_fp});
    } else {
      shard.lru.push_front(Entry{key, state, doc, bytes, doc_fp, query_fp});
      shard.map.emplace(key, shard.lru.begin());
      shard.bytes += bytes;
      doc->entries.fetch_add(1, std::memory_order_relaxed);
      doc->bytes.fetch_add(bytes, std::memory_order_relaxed);
      EvictOverBudgetLocked(shard, &victims);
    }
  }
  SpillVictims(std::move(victims));

  RecordQueryId(doc, query_id);
}

void PreparedCache::Recharge(uint64_t doc_id, uint64_t query_id,
                             const api_internal::PreparedState* state,
                             int64_t delta_bytes) {
  if (delta_bytes == 0) return;
  const Key key{doc_id, query_id};
  Shard& shard = ShardFor(key);
  std::vector<Entry> victims;
  {
    util::MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return;  // not resident; nothing was charged
    Entry& entry = *it->second;
    // A hook can outlive its entry (an Engine holds the evicted state and
    // only then triggers Count); the resident entry under this key is then
    // a different state whose own counter charge arrives via its own hook.
    if (entry.state.get() != state) return;
    if (delta_bytes > 0) {
      const uint64_t add = static_cast<uint64_t>(delta_bytes);
      entry.bytes += add;
      shard.bytes += add;
      entry.doc->bytes.fetch_add(add, std::memory_order_relaxed);
    } else {
      // Belt and braces: never drive the accounting negative.
      const uint64_t sub =
          std::min(static_cast<uint64_t>(-delta_bytes), entry.bytes);
      entry.bytes -= sub;
      shard.bytes -= sub;
      entry.doc->bytes.fetch_sub(sub, std::memory_order_relaxed);
    }
    EvictOverBudgetLocked(shard, &victims);
  }
  SpillVictims(std::move(victims));
}

std::function<void(const api_internal::PreparedState*, int64_t)>
PreparedCache::RechargeHookFor(uint64_t doc_id, uint64_t query_id) {
  return [doc_id, query_id](const api_internal::PreparedState* state,
                            int64_t delta_bytes) {
    Global().Recharge(doc_id, query_id, state, delta_bytes);
  };
}

void PreparedCache::EvictOverBudgetLocked(Shard& shard,
                                          std::vector<Entry>* spill_candidates) {
  shard.mu.AssertHeld();
  const uint64_t slice = PerShardBudget();
  while (shard.bytes > slice && !shard.lru.empty()) {
    Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    victim.doc->evictions.fetch_add(1, std::memory_order_relaxed);
    victim.doc->entries.fetch_sub(1, std::memory_order_relaxed);
    victim.doc->bytes.fetch_sub(victim.bytes, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    shard.map.erase(victim.key);
    spill_candidates->push_back(std::move(victim));
    shard.lru.pop_back();
  }
}

void PreparedCache::SpillVictims(std::vector<Entry> victims) {
  if (victims.empty()) return;
  std::shared_ptr<storage::SpillStore> spill;
  util::ThreadPool* pool = nullptr;
  bool synchronous = false;
  {
    util::MutexLock lock(&spill_mu_);
    spill = spill_;
    pool = spill_pool_.get();  // never destroyed once created (leaked cache)
    synchronous = spill_synchronous_;
  }
  if (spill == nullptr) return;
  for (Entry& victim : victims) {
    if (victim.doc_fp == 0 || victim.query_fp == 0) continue;  // no content key
    if (spill->Contains(victim.doc_fp, victim.query_fp)) continue;
    // The task owns shared_ptrs to both the state and the store, so neither
    // a later eviction nor a ConfigureSpill swap invalidates it mid-write.
    auto write = [spill, state = victim.state, doc_fp = victim.doc_fp,
                  query_fp = victim.query_fp] {
      // Best-effort write-behind: a full disk or unwritable directory must
      // not fail the eviction that triggered it (the entry is gone from RAM
      // either way); the next miss simply rebuilds.
      (void)spill->Put(
          doc_fp, query_fp,
          storage::SerializePreparedState(*state, doc_fp, query_fp));
    };
    if (synchronous || pool == nullptr) {
      write();
    } else {
      pool->Submit(std::move(write));
    }
  }
}

std::shared_ptr<storage::SpillStore> PreparedCache::SpillSnapshot() const {
  util::MutexLock lock(&spill_mu_);
  return spill_;
}

Status PreparedCache::ConfigureSpill(const SpillOptions& opts) {
  if (opts.directory.empty()) {
    util::MutexLock lock(&spill_mu_);
    spill_.reset();
    return Status::OK();
  }
  Result<std::unique_ptr<storage::SpillStore>> store =
      storage::SpillStore::Open({opts.directory, opts.byte_budget});
  if (!store.ok()) return store.status();
  util::MutexLock lock(&spill_mu_);
  spill_ = std::shared_ptr<storage::SpillStore>(std::move(store).value());
  spill_synchronous_ = opts.synchronous;
  if (!opts.synchronous && spill_pool_ == nullptr) {
    spill_pool_ = std::make_unique<util::ThreadPool>(1);
  }
  return Status::OK();
}

void PreparedCache::SpillResident() {
  if (SpillSnapshot() == nullptr) return;
  // Copy the entries out under the shard locks; SpillVictims serializes and
  // writes without them (and skips anything already on disk).
  std::vector<Entry> copies;
  for (Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    for (const Entry& entry : shard.lru) copies.push_back(entry);
  }
  SpillVictims(std::move(copies));
}

void PreparedCache::FlushSpill() {
  util::ThreadPool* pool = nullptr;
  {
    util::MutexLock lock(&spill_mu_);
    pool = spill_pool_.get();
  }
  if (pool != nullptr) pool->WaitIdle();
  // The cache is a leaked singleton, so the store destructor (which also
  // flushes) only runs on replacement — persist the warm-start index on
  // every clean shutdown too.
  if (std::shared_ptr<storage::SpillStore> spill = SpillSnapshot()) {
    spill->WriteIndex();
  }
}

void PreparedCache::EraseDocument(uint64_t doc_id,
                                  const std::vector<uint64_t>& query_ids) {
  for (const uint64_t query_id : query_ids) {
    const Key key{doc_id, query_id};
    Shard& shard = ShardFor(key);
    util::MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) continue;  // already evicted
    const Entry& entry = *it->second;
    shard.bytes -= entry.bytes;
    entry.doc->entries.fetch_sub(1, std::memory_order_relaxed);
    entry.doc->bytes.fetch_sub(entry.bytes, std::memory_order_relaxed);
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
}

void PreparedCache::SetByteBudget(uint64_t bytes) {
  budget_.store(bytes, std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    std::vector<Entry> victims;
    {
      util::MutexLock lock(&shard.mu);
      EvictOverBudgetLocked(shard, &victims);
    }
    SpillVictims(std::move(victims));
  }
}

Runtime::CacheStats PreparedCache::Stats() const {
  Runtime::CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  stats.budget_bytes = budget_.load(std::memory_order_relaxed);
  stats.shards = static_cast<uint32_t>(shards_.size());
  for (const Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    stats.entries += shard.map.size();
    stats.bytes += shard.bytes;
  }
  if (std::shared_ptr<storage::SpillStore> spill = SpillSnapshot()) {
    const storage::SpillStore::Stats s = spill->GetStats();
    stats.disk_hits = s.disk_hits;
    stats.disk_misses = s.disk_misses;
    stats.spilled_bytes = s.spilled_bytes;
    stats.spill_entries = s.entries;
    stats.spill_bytes = s.bytes;
    stats.spill_reclaimed = s.reclaimed;
    stats.spill_budget_bytes = s.budget_bytes;
  }
  return stats;
}

}  // namespace runtime_internal

// ------------------------------------------------------- Runtime facade ----

void Runtime::Configure(const RuntimeOptions& opts) {
  runtime_internal::PreparedCache::ConfigureGlobal(opts.cache_bytes,
                                                   opts.cache_shards);
}

void Runtime::SetCacheByteBudget(uint64_t bytes) {
  runtime_internal::PreparedCache::SetGlobalBudget(bytes);
}

namespace {

/// Process-wide default PrepareOptions. A tiny copy under a mutex instead
/// of atomics: preparations read it once at start, never on a hot path.
util::Mutex g_prepare_opts_mu;
PrepareOptions g_prepare_opts GUARDED_BY(g_prepare_opts_mu);

}  // namespace

void Runtime::SetPrepareOptions(const PrepareOptions& opts) {
  util::MutexLock lock(&g_prepare_opts_mu);
  g_prepare_opts = opts;
}

PrepareOptions Runtime::prepare_options() {
  util::MutexLock lock(&g_prepare_opts_mu);
  return g_prepare_opts;
}

Status Runtime::ConfigureSpill(const SpillOptions& opts) {
  return runtime_internal::PreparedCache::Global().ConfigureSpill(opts);
}

void Runtime::SpillResident() {
  runtime_internal::PreparedCache::Global().SpillResident();
}

void Runtime::FlushSpill() {
  runtime_internal::PreparedCache::Global().FlushSpill();
}

std::string Runtime::SpillBundleName(const Document& document,
                                     const Query& query) {
  return storage::SpillFileName(document.fingerprint(), query.fingerprint());
}

Runtime::CacheStats Runtime::cache_stats() {
  return runtime_internal::PreparedCache::Global().Stats();
}

}  // namespace slpspan
