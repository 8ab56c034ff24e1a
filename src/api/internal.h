// Shared implementation state behind the public API handles. Private to
// src/api/; public headers only forward-declare these types.

#ifndef SLPSPAN_API_INTERNAL_H_
#define SLPSPAN_API_INTERNAL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/count.h"
#include "core/enumerate.h"
#include "core/evaluator.h"
#include "slpspan/document.h"
#include "slpspan/engine.h"
#include "slpspan/query.h"
#include "spanner/spanner.h"

namespace slpspan {
namespace api_internal {

/// Compiled-query state shared by all copies of one Query.
struct QueryState {
  uint64_t id = 0;
  uint64_t fingerprint = 0;  ///< content hash of the evaluation automaton
  QueryOptions options;
  Spanner spanner;
  SpannerEvaluator evaluator;

  QueryState(uint64_t id_in, uint64_t fingerprint_in, QueryOptions options_in,
             Spanner spanner_in, SpannerEvaluator evaluator_in)
      : id(id_in),
        fingerprint(fingerprint_in),
        options(options_in),
        spanner(std::move(spanner_in)),
        evaluator(std::move(evaluator_in)) {}
};

/// Per-(document, query) prepared evaluation state: the sentinel-extended
/// grammar + Lemma 6.5 tables, plus lazily-built counting tables. Cached
/// inside the Document and shared by every Engine/ResultStream that uses it.
struct PreparedState {
  /// Entry re-charging: invoked with the byte delta when the lazily-built
  /// counting tables materialize after insertion (positive for the new
  /// tables, net of any raw bundle section freed at the same time), so the
  /// cache keeps this entry's residency charge honest. `self` identifies
  /// the firing state: a hook outliving its eviction must not re-charge a
  /// later entry under the same key.
  using RechargeFn = std::function<void(const PreparedState* self,
                                        int64_t delta_bytes)>;

  /// Materializes counting tables from a persisted bundle's counter section
  /// (storage layer). Returning nullopt (e.g. the section failed
  /// validation) falls back to building them from scratch.
  using CounterLoader = std::function<std::optional<CountTables>(
      const Slp&, const Nfa&, const EvalTables&, const std::string& section)>;

  explicit PreparedState(PreparedDocument prepared_in,
                         RechargeFn recharge = nullptr,
                         std::string counter_section = {},
                         CounterLoader counter_loader = nullptr,
                         PrepareStats stats = {})
      : prepared(std::move(prepared_in)),
        prepare_stats(stats),
        recharge_(std::move(recharge)),
        counter_section_(std::move(counter_section)),
        counter_loader_(std::move(counter_loader)) {}

  const PreparedDocument prepared;

  /// What the preparation that built this state did (all-zero — waves == 0
  /// — for state deserialized from a bundle, which never ran the pass).
  /// Reported by Document::PreparedFor for cache hits and misses alike: the
  /// stats describe the build that produced the cached state.
  const PrepareStats prepare_stats;

  /// Bytes charged to the runtime prepared-state cache at insertion: the
  /// sentinel-extended grammar plus the Lemma 6.5 bit-matrices — the
  /// dominant per-pair cost, O(size(S)·q²/8) — plus a loaded bundle's raw
  /// counter section while it is still held. The lazily-built counting
  /// tables are charged separately when they materialize, via recharge_.
  uint64_t MemoryUsage() const {
    return sizeof(*this) + prepared.slp().MemoryUsage() +
           prepared.tables().MemoryUsage() + counter_section_.capacity();
  }

  /// Counting tables for Count/At/Sample; materialized once on first use —
  /// from the bundle's counter section when one was loaded (the raw bytes
  /// are released afterwards), else built in O(size(S)·q²) — then
  /// re-charged to the cache entry. The caller must ensure the query is
  /// determinized (CountTables requires it).
  const CountTables& Counter(const SpannerEvaluator& evaluator) const {
    std::call_once(counter_once_, [&] {
      if (counter_loader_ && !counter_section_.empty()) {
        counter_ = counter_loader_(prepared.slp(), evaluator.eval_nfa(),
                                   prepared.tables(), counter_section_);
      }
      if (!counter_) {
        counter_.emplace(prepared.slp(), evaluator.eval_nfa(),
                         prepared.tables());
      }
      const int64_t freed = static_cast<int64_t>(counter_section_.capacity());
      counter_section_ = std::string();  // the parsed tables replace the bytes
      counter_loader_ = nullptr;
      counter_ready_.store(true, std::memory_order_release);
      if (recharge_) {
        recharge_(this, static_cast<int64_t>(counter_->MemoryUsage()) - freed);
      }
    });
    return *counter_;
  }

  /// The counting tables if they have already materialized, else null.
  /// Never builds — this is the spill-time snapshot the serializer uses.
  const CountTables* CounterIfReady() const {
    return counter_ready_.load(std::memory_order_acquire) ? &*counter_
                                                          : nullptr;
  }

 private:
  RechargeFn recharge_;
  mutable std::string counter_section_;   // raw bundle section, until parsed
  mutable CounterLoader counter_loader_;  // both released by Counter()
  mutable std::once_flag counter_once_;
  mutable std::atomic<bool> counter_ready_{false};
  mutable std::optional<CountTables> counter_;
};

/// Everything a live ResultStream owns. Declaration order matters: the
/// enumerator borrows from `query`/`prep`, so they must be initialized
/// first and destroyed last.
struct StreamState {
  Query query;
  DocumentPtr document;
  std::shared_ptr<const PreparedState> prep;
  CompressedEnumerator enumerator;
  std::optional<uint64_t> limit;
  std::function<bool()> cancel;  ///< polled at every stream step; see below
  uint64_t emitted = 0;
  bool valid = false;
  bool cancelled = false;  ///< the cancel checkpoint fired (vs exhaustion)

  StreamState(Query query_in, DocumentPtr document_in,
              std::shared_ptr<const PreparedState> prep_in, const Nfa* eval_nfa,
              uint32_t num_vars, std::optional<uint64_t> limit_in,
              std::function<bool()> cancel_in)
      : query(std::move(query_in)),
        document(std::move(document_in)),
        prep(std::move(prep_in)),
        enumerator(&prep->prepared.slp(), eval_nfa, &prep->prepared.tables(),
                   num_vars),
        limit(limit_in),
        cancel(std::move(cancel_in)) {
    // Checkpoint before the first tuple is surfaced (Engine::Extract checks
    // once more before the enumerator's first-tuple search even starts).
    if (ShouldCancel()) return;
    if (enumerator.Valid() && (!limit || *limit > 0)) {
      emitted = 1;
      valid = true;
    }
  }

  /// Cancellation checkpoint: a cancelled/expired request stops at the next
  /// stream step — no tuple past the checkpoint is ever computed.
  bool ShouldCancel() {
    if (cancel && cancel()) {
      cancelled = true;
      valid = false;
      return true;
    }
    return false;
  }

  void Advance() {
    // Programmer contract, mirrored by ResultStream::Next's public CHECK.
    SLPSPAN_CHECK(valid);  // repo-lint: allow(check-in-library)
    if (ShouldCancel()) return;
    if (limit && emitted >= *limit) {
      valid = false;  // early exit: never compute tuples past the limit
      return;
    }
    enumerator.Next();
    if (!enumerator.Valid()) {
      valid = false;
      return;
    }
    ++emitted;
  }
};

}  // namespace api_internal
}  // namespace slpspan

#endif  // SLPSPAN_API_INTERNAL_H_
