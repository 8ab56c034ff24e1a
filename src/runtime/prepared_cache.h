// Process-wide sharded LRU cache of prepared evaluation state, keyed by
// (document-id, query-id) and bounded by a byte budget, with an optional
// disk spill tier underneath.
//
// Design notes:
//  * Sharded locking: the key hashes to one of N shards (N fixed at first
//    use, rounded to a power of two); each shard has its own mutex, LRU list
//    and map, so unrelated (document, query) pairs never contend.
//  * Byte budget: the global budget is split evenly across shards. Entries
//    are charged their real bytes (PreparedState::MemoryUsage — grammar +
//    Lemma 6.5 bit-matrices; lazily-built counting tables are added via
//    Recharge when they materialize); when a shard exceeds its slice,
//    entries are dropped from the LRU tail. Eviction only releases the
//    cache's shared_ptr — in-use state stays alive with its current users.
//  * Size-aware admission: an entry bigger than its shard's budget slice
//    can never stay resident, so inserting it would only evict the whole
//    shard and thrash. It is rejected up front (counted as an eviction plus
//    an admission reject) and handed to the disk tier instead.
//  * Single-flight: concurrent builders of one pair rendezvous on a Build
//    record; exactly one thread pays the preparation — first trying the
//    disk tier, then the full O(|M| + size(S)·q³) build — and the rest
//    block on the shard's condition variable until it lands. The leader
//    counts as the miss, waiters count as hits.
//  * Disk spill tier: entries dropped for budget are serialized into
//    fingerprint-keyed bundles (storage/spill_store.h), write-behind on a
//    dedicated spill thread (or inline with SpillOptions::synchronous) and
//    outside every shard lock. Keys are content fingerprints, so the tier
//    survives restarts and is shared by structurally identical documents.
//  * Per-document stats: each Document owns a shared DocCacheCounters that
//    entries also reference, so hits/misses/evictions/bytes can be reported
//    per document (Document::cache_stats()) even when eviction happens after
//    the Document is gone.

#ifndef SLPSPAN_RUNTIME_PREPARED_CACHE_H_
#define SLPSPAN_RUNTIME_PREPARED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "slpspan/runtime.h"
#include "util/mutex.h"

namespace slpspan {

namespace api_internal {
struct PreparedState;
}  // namespace api_internal

namespace storage {
class SpillStore;
}  // namespace storage

namespace util {
class ThreadPool;
}  // namespace util

namespace runtime_internal {

/// Cache counters for one Document, shared_ptr-held by both the Document and
/// every cache entry built for it — eviction after the Document died updates
/// a live object. All fields are monotone except entries/bytes (residency).
struct DocCacheCounters {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> entries{0};
  std::atomic<uint64_t> bytes{0};

  /// Distinct query ids ever inserted for this document. Lets ~Document
  /// erase exactly its keys instead of scanning every shard's entries.
  util::Mutex mu;
  std::vector<uint64_t> query_ids GUARDED_BY(mu);
};

class PreparedCache {
 public:
  using StatePtr = std::shared_ptr<const api_internal::PreparedState>;
  using Builder = std::function<StatePtr()>;

  /// The process-wide instance (created on first use with the configured
  /// shard count and budget).
  static PreparedCache& Global();

  /// Stages configuration for Global(): the budget applies immediately if
  /// the cache already exists; the shard count only before first use.
  static void ConfigureGlobal(uint64_t budget_bytes, uint32_t shards);
  static void SetGlobalBudget(uint64_t budget_bytes);

  PreparedCache(uint64_t budget_bytes, uint32_t shards);

  /// Returns the cached state for (doc_id, query_id). On a RAM miss the
  /// single-flight leader first tries the disk tier (keyed by the content
  /// fingerprints) and only then pays `build`. Thread-safe; concurrent
  /// misses for one key resolve once. `build` and all disk I/O run outside
  /// every lock.
  StatePtr GetOrBuild(uint64_t doc_id, uint64_t query_id, uint64_t doc_fp,
                      uint64_t query_fp,
                      const std::shared_ptr<DocCacheCounters>& doc,
                      const Builder& build);

  /// The resident state for (doc_id, query_id), or null. Never builds: a
  /// RAM hit moves the entry to the LRU front and counts as a hit; anything
  /// else — absent, spilled to disk only, or still being built by another
  /// thread — returns null at once, counts nothing and reads no disk.
  StatePtr Lookup(uint64_t doc_id, uint64_t query_id,
                  const std::shared_ptr<DocCacheCounters>& doc);

  /// Inserts an externally loaded state (bundle import,
  /// Document::LoadPrepared). Counts as neither hit nor miss; an existing
  /// resident entry is kept. Subject to the same size-aware admission rule
  /// as built entries.
  void Insert(uint64_t doc_id, uint64_t query_id, uint64_t doc_fp,
              uint64_t query_fp, const std::shared_ptr<DocCacheCounters>& doc,
              const StatePtr& state);

  /// Entry re-charging: applies `delta_bytes` (positive or negative — a
  /// loaded bundle's raw counter section is released when the tables it
  /// encodes materialize) to the residency charge of (doc_id, query_id),
  /// provided the resident entry still holds exactly `state` (a hook fired
  /// by an evicted state must not adjust a later same-key entry). No-op
  /// otherwise. May evict (and spill).
  void Recharge(uint64_t doc_id, uint64_t query_id,
                const api_internal::PreparedState* state, int64_t delta_bytes);

  /// The recharge hook PreparedState instances for this key should carry.
  static std::function<void(const api_internal::PreparedState*, int64_t)>
  RechargeHookFor(uint64_t doc_id, uint64_t query_id);

  /// Drops a dead Document's entries — the keys (doc_id, query_id) for the
  /// given query ids; see DocCacheCounters::query_ids. Not counted as
  /// evictions and not spilled (the grammar handle is gone; content-equal
  /// documents re-spill on their own evictions).
  void EraseDocument(uint64_t doc_id, const std::vector<uint64_t>& query_ids);

  /// Changes the byte budget; shrinking evicts (and spills) immediately.
  void SetByteBudget(uint64_t bytes);

  /// Swaps the disk tier (empty directory = disable). See
  /// Runtime::ConfigureSpill.
  Status ConfigureSpill(const SpillOptions& opts);

  /// Spills every resident entry not already on disk (keeps them resident).
  void SpillResident();

  /// Blocks until queued write-behind spill work is on disk.
  void FlushSpill();

  Runtime::CacheStats Stats() const;

 private:
  struct Key {
    uint64_t doc_id = 0;
    uint64_t query_id = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Fibonacci mixing of both ids (they are small dense counters).
      uint64_t h = k.doc_id * 0x9E3779B97F4A7C15ull;
      h ^= k.query_id * 0xC2B2AE3D27D4EB4Full;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

  struct Entry {
    Key key;
    StatePtr state;
    std::shared_ptr<DocCacheCounters> doc;
    uint64_t bytes = 0;
    uint64_t doc_fp = 0;    // content fingerprints — the disk-tier key
    uint64_t query_fp = 0;
  };

  /// Single-flight rendezvous for one in-progress preparation. Both fields
  /// are written under the owning shard's mu (a Build cannot carry a
  /// GUARDED_BY naming it — the shard owns the mutex, not the Build).
  struct Build {
    bool done = false;
    StatePtr result;
  };

  struct Shard {
    mutable util::Mutex mu;
    util::CondVar cv;  // notified when any in-flight build lands
    std::list<Entry> lru GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map
        GUARDED_BY(mu);
    std::unordered_map<Key, std::shared_ptr<Build>, KeyHash> inflight
        GUARDED_BY(mu);
    uint64_t bytes GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash{}(key)&shard_mask_];
  }

  uint64_t PerShardBudget() const {
    return budget_.load(std::memory_order_relaxed) / shards_.size();
  }

  /// A RAM hit on `entry`: moves it to the LRU front and counts the hit.
  StatePtr HitLocked(Shard& shard, std::list<Entry>::iterator entry,
                     DocCacheCounters& doc) REQUIRES(shard.mu);

  /// Drops LRU-tail entries until `shard` fits its budget slice, moving the
  /// victims into `spill_candidates` for the caller to hand to the disk
  /// tier *after* releasing shard.mu.
  void EvictOverBudgetLocked(Shard& shard, std::vector<Entry>* spill_candidates)
      REQUIRES(shard.mu);

  /// Records `query_id` in the document's erase list (see
  /// DocCacheCounters::query_ids). Takes doc->mu; call with no shard lock
  /// held (lock order: shard.mu before doc.mu never holds).
  static void RecordQueryId(const std::shared_ptr<DocCacheCounters>& doc,
                            uint64_t query_id);

  /// Serializes and writes the victims to the disk tier — write-behind on
  /// the spill thread unless configured synchronous. Must be called without
  /// any shard lock held. No-op when spilling is disabled.
  void SpillVictims(std::vector<Entry> victims) EXCLUDES(spill_mu_);

  std::shared_ptr<storage::SpillStore> SpillSnapshot() const
      EXCLUDES(spill_mu_);

  uint32_t shard_mask_ = 0;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> budget_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> admission_rejects_{0};

  mutable util::Mutex spill_mu_;
  std::shared_ptr<storage::SpillStore> spill_
      GUARDED_BY(spill_mu_);  // null = disabled
  std::unique_ptr<util::ThreadPool> spill_pool_
      GUARDED_BY(spill_mu_);  // created on first enable, never destroyed
  bool spill_synchronous_ GUARDED_BY(spill_mu_) = false;
};

}  // namespace runtime_internal
}  // namespace slpspan

#endif  // SLPSPAN_RUNTIME_PREPARED_CACHE_H_
