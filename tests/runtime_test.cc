// Tests for the runtime layer (slpspan/runtime.h): the process-wide sharded
// byte-budgeted prepared-state cache (single-flight coalescing, the
// never-building resident lookup, eviction, per-document and global stats)
// and Session::EvalBatch (request dedup,
// per-request Results, correctness vs the serial loop), plus the
// Document::FromFile read path.

#include "slpspan/slpspan.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "api/internal.h"
#include "core/bool_matrix.h"
#include "gtest/gtest.h"
#include "runtime/prepared_cache.h"
#include "slp/factory.h"
#include "slpspan/textgen.h"
#include "util/thread_pool.h"
#include "test_util.h"

namespace slpspan {
namespace {

using testing_util::ExpectSameTupleSet;

constexpr uint64_t kDefaultBudget = RuntimeOptions{}.cache_bytes;

/// Restores the global cache budget even when a test fails mid-way.
struct BudgetGuard {
  ~BudgetGuard() { Runtime::SetCacheByteBudget(kDefaultBudget); }
};

Query MustCompile(const std::string& pattern, const std::string& alphabet) {
  Result<Query> q = Query::Compile(pattern, alphabet);
  SLPSPAN_CHECK(q.ok());
  return *q;
}

// --------------------------------------------------------- single-flight ----

// Satellite regression: racing builders for one (document, query) pair used
// to each pay the O(size(S)·q³) preparation, with all but one discarded.
// The runtime cache must coalesce them: a latch releases many threads at
// once against a fresh document and exactly one build may happen.
TEST(RuntimeCache, SingleFlightCoalescesConcurrentBuilds) {
  const Query query =
      MustCompile(".*user=x{u[0-9]+}.*", [] {
        std::string ascii;
        for (char c = 32; c < 127; ++c) ascii += c;
        return ascii + '\n';
      }());
  // A preparation that takes long enough for the threads to pile up.
  const DocumentPtr doc =
      *Document::FromText(GenerateLog({.lines = 2000, .seed = 11}));

  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<uint64_t> counts(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();  // all threads hit the cold cache together
        const Engine engine(query, doc);
        Result<CountInfo> count = engine.Count();
        SLPSPAN_CHECK(count.ok());
        counts[t] = count->value;
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(counts[0], counts[t]);
  const Document::CacheStats stats = doc->cache_stats();
  EXPECT_EQ(1u, stats.misses) << "concurrent builds must coalesce";
  EXPECT_EQ(kThreads - 1u, stats.hits);
  EXPECT_EQ(1u, stats.entries);
  EXPECT_GT(stats.bytes, 0u);
}

// ------------------------------------------------------- resident lookup ----

using runtime_internal::DocCacheCounters;
using runtime_internal::PreparedCache;

/// A small prepared state to park under arbitrary keys of a private cache.
PreparedCache::StatePtr SmallPreparedState() {
  Result<Spanner> spanner = Spanner::Compile(".*x{ab}.*", "ab");
  SLPSPAN_CHECK(spanner.ok());
  const SpannerEvaluator evaluator(*spanner);
  return std::make_shared<const api_internal::PreparedState>(
      evaluator.Prepare(SlpFromString("abaabb").value()));
}

TEST(RuntimeCache, LookupMissReturnsNullAndCountsNothing) {
  PreparedCache cache(uint64_t{1} << 30, /*shards=*/1);
  const auto doc = std::make_shared<DocCacheCounters>();
  const PreparedCache::StatePtr state = SmallPreparedState();

  EXPECT_EQ(nullptr, cache.Lookup(1, 1, doc));
  Runtime::CacheStats stats = cache.Stats();
  EXPECT_EQ(0u, stats.hits);
  EXPECT_EQ(0u, stats.misses);
  EXPECT_EQ(0u, stats.entries);
  EXPECT_EQ(0u, doc->hits.load());
  EXPECT_EQ(0u, doc->misses.load());

  // A build in flight on another thread is not waited for. The builder
  // gives up after 10 s, so a Lookup that blocked on it would see the state
  // land and fail below instead of hanging the suite.
  std::latch building(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread leader([&] {
    (void)cache.GetOrBuild(1, 1, 0, 0, doc, [&] {
      building.count_down();
      released.wait_for(std::chrono::seconds(10));
      return state;
    });
  });
  building.wait();
  EXPECT_EQ(nullptr, cache.Lookup(1, 1, doc)) << "must not wait on a build";
  release.set_value();
  leader.join();
  stats = cache.Stats();
  EXPECT_EQ(0u, stats.hits);
  EXPECT_EQ(1u, stats.misses) << "only the builder's own miss";
  EXPECT_EQ(1u, doc->misses.load());

  EXPECT_EQ(state, cache.Lookup(1, 1, doc));
  EXPECT_EQ(1u, cache.Stats().hits);
  EXPECT_EQ(1u, doc->hits.load());
}

TEST(RuntimeCache, LookupHitRefreshesLruPosition) {
  const PreparedCache::StatePtr state = SmallPreparedState();
  const uint64_t bytes = state->MemoryUsage();
  // One shard holding two entries: the third insert evicts the LRU tail.
  PreparedCache cache(2 * bytes + bytes / 2, /*shards=*/1);
  const auto doc = std::make_shared<DocCacheCounters>();
  const auto build = [&] { return state; };

  (void)cache.GetOrBuild(1, 1, 0, 0, doc, build);
  (void)cache.GetOrBuild(1, 2, 0, 0, doc, build);  // LRU order: 2, 1
  ASSERT_EQ(state, cache.Lookup(1, 1, doc));        // LRU order: 1, 2
  EXPECT_EQ(1u, cache.Stats().hits);
  EXPECT_EQ(1u, doc->hits.load());

  (void)cache.GetOrBuild(1, 3, 0, 0, doc, build);
  EXPECT_EQ(1u, cache.Stats().evictions);
  EXPECT_EQ(nullptr, cache.Lookup(1, 2, doc)) << "the colder entry goes";
  EXPECT_EQ(state, cache.Lookup(1, 1, doc)) << "the looked-up entry stays";
}

// ------------------------------------------------------------- EvalBatch ----

TEST(Session, BatchMatchesSerialEvaluation) {
  const Query q1 = MustCompile("(b|c)*x{a}.*y{cc*}.*", "abc");
  const Query q2 = MustCompile(".*x{a}.*", "abc");
  const DocumentPtr d1 = *Document::FromText("abccaabcca");
  const DocumentPtr d2 = *Document::FromText("bcbcbcabc", Compression::kLz78);

  std::vector<EngineRequest> requests;
  for (const Query& q : {q1, q2}) {
    for (const DocumentPtr& d : {d1, d2}) {
      requests.push_back({.query = q, .document = d,
                          .op = EngineRequest::Op::kIsNonEmpty, .limit = {}});
      requests.push_back({.query = q, .document = d,
                          .op = EngineRequest::Op::kCount, .limit = {}});
      requests.push_back({.query = q, .document = d,
                          .op = EngineRequest::Op::kExtract, .limit = {}});
      requests.push_back({.query = q, .document = d,
                          .op = EngineRequest::Op::kExtract,
                          .limit = 2});
    }
  }
  // Duplicates of an earlier request (same pair, op and limit).
  requests.push_back(requests[2]);
  requests.push_back(requests[2]);
  // A null document: per-request error, must not poison the batch.
  requests.push_back({.query = q1, .document = nullptr,
                      .op = EngineRequest::Op::kCount, .limit = {}});

  const Session session({.num_threads = 4});
  EXPECT_EQ(4u, session.num_threads());
  const std::vector<Result<EngineOutput>> outputs = session.EvalBatch(requests);
  ASSERT_EQ(requests.size(), outputs.size());

  for (size_t i = 0; i < requests.size(); ++i) {
    const EngineRequest& r = requests[i];
    if (r.document == nullptr) {
      ASSERT_FALSE(outputs[i].ok());
      EXPECT_EQ(StatusCode::kInvalidArgument, outputs[i].status().code());
      continue;
    }
    ASSERT_TRUE(outputs[i].ok()) << "request " << i;
    const Engine engine(r.query, r.document);
    switch (r.op) {
      case EngineRequest::Op::kIsNonEmpty:
        EXPECT_EQ(engine.IsNonEmpty(), outputs[i]->nonempty) << "request " << i;
        break;
      case EngineRequest::Op::kCount:
        EXPECT_EQ(engine.Count()->value, outputs[i]->count.value)
            << "request " << i;
        break;
      case EngineRequest::Op::kExtract:
        ExpectSameTupleSet(engine.ExtractAll({.limit = r.limit}),
                           outputs[i]->tuples);
        break;
    }
  }
}

TEST(Session, BatchDeduplicatesIdenticalRequests) {
  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");
  const DocumentPtr doc = *Document::FromText("abccaabccaabcca");

  std::vector<EngineRequest> requests(
      16, EngineRequest{.query = query, .document = doc,
                        .op = EngineRequest::Op::kExtract, .limit = 4});
  const Session session({.num_threads = 4});
  const std::vector<Result<EngineOutput>> outputs = session.EvalBatch(requests);
  ASSERT_EQ(16u, outputs.size());
  for (const Result<EngineOutput>& out : outputs) {
    ASSERT_TRUE(out.ok());
    ExpectSameTupleSet(outputs[0]->tuples, out->tuples);
  }
  // 16 identical requests: one preparation, and the evaluation itself ran
  // once (misses + hits == cache lookups == evaluations, not requests).
  const Document::CacheStats stats = doc->cache_stats();
  EXPECT_EQ(1u, stats.misses);
  EXPECT_EQ(0u, stats.hits) << "identical requests must share one evaluation";
}

TEST(Session, EmptyBatch) {
  const Session session({.num_threads = 2});
  EXPECT_TRUE(session.EvalBatch({}).empty());
}

// -------------------------------------------------------------- eviction ----

TEST(RuntimeCache, EvictionRespectsByteBudget) {
  BudgetGuard guard;
  const Runtime::CacheStats before = Runtime::cache_stats();

  // Size one entry, then budget the cache so only ~one entry fits in total
  // (per shard the slice is even smaller).
  const Query query = MustCompile(".*x{ab}.*", "ab");
  const DocumentPtr probe = *Document::FromText(
      [] {
        std::string s;
        for (int i = 0; i < 512; ++i) s += (i % 3) ? "ab" : "aabb";
        return s;
      }(),
      Compression::kBalanced);
  (void)Engine(query, probe).Count();
  const uint64_t entry_bytes = probe->cache_stats().bytes;
  ASSERT_GT(entry_bytes, 0u);

  Runtime::SetCacheByteBudget(entry_bytes + entry_bytes / 2);

  std::vector<DocumentPtr> docs;
  for (int i = 0; i < 6; ++i) {
    docs.push_back(Document::FromSlp(probe->slp()));
    Result<CountInfo> count = Engine(query, docs.back()).Count();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(Engine(query, probe).Count()->value, count->value)
        << "evicted-and-rebuilt state must stay correct";
  }

  const Runtime::CacheStats after = Runtime::cache_stats();
  EXPECT_GT(after.evictions, before.evictions) << "budget must force evictions";
  EXPECT_LE(after.bytes, after.budget_bytes);
  // Monotone counters.
  EXPECT_GE(after.hits, before.hits);
  EXPECT_GE(after.misses, before.misses);

  uint64_t doc_evictions = 0;
  for (const DocumentPtr& doc : docs) {
    doc_evictions += doc->cache_stats().evictions;
  }
  EXPECT_GT(doc_evictions + probe->cache_stats().evictions, 0u)
      << "per-document eviction counters must account the drops";
}

TEST(RuntimeCache, EvictedStateStaysAliveForHolders) {
  BudgetGuard guard;
  Runtime::SetCacheByteBudget(0);  // nothing may stay resident

  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");
  const DocumentPtr doc = *Document::FromText("abccaabcca");
  const Engine engine(query, doc);

  // The stream's prepared state is evicted the moment it is built; the
  // shared_ptr held by the stream must keep it alive to the last tuple.
  std::vector<SpanTuple> streamed;
  for (ResultStream s = engine.Extract(); s.Valid(); s.Next()) {
    streamed.push_back(s.Current());
  }
  ExpectSameTupleSet(engine.ExtractAll(), streamed);

  const Document::CacheStats stats = doc->cache_stats();
  EXPECT_EQ(0u, stats.entries);
  EXPECT_EQ(0u, stats.bytes);
  EXPECT_GT(stats.evictions, 0u);
}

// ----------------------------------------------------------------- stats ----

TEST(RuntimeCache, GlobalStatsReflectConfiguredBudget) {
  BudgetGuard guard;
  Runtime::SetCacheByteBudget(123 << 20);
  const Runtime::CacheStats stats = Runtime::cache_stats();
  EXPECT_EQ(uint64_t{123} << 20, stats.budget_bytes);
  EXPECT_GE(stats.shards, 1u);
}

TEST(RuntimeCache, MemoryAccountingIsVisible) {
  const Query query = MustCompile(".*x{abc}.*", "abc");
  const DocumentPtr doc = *Document::FromText("abcabcabcabc");
  EXPECT_GT(doc->slp().MemoryUsage(), 0u);

  EXPECT_EQ(0u, doc->cache_stats().bytes);
  (void)Engine(query, doc).Count();
  const Document::CacheStats stats = doc->cache_stats();
  EXPECT_EQ(1u, stats.entries);
  // The entry must be charged at least the grammar + one bit-matrix pair.
  EXPECT_GT(stats.bytes, doc->slp().MemoryUsage());
}

// Satellite regression: BoolMatrix::MemoryUsage() used to charge the
// logical (n+63)/64 words per row, under-reporting once rows were padded
// to the kernel layer's 32-byte stride — cache eviction would then run
// over budget. It must charge the real padded capacity plus the popcount
// cache.
TEST(RuntimeCache, BoolMatrixMemoryUsageChargesPaddedCapacity) {
  BoolMatrix m(65);  // logical 2 words/row, padded to 4
  ASSERT_EQ(m.logical_words_per_row(), 2u);
  ASSERT_EQ(m.words_per_row(), 4u);
  const uint64_t base = m.MemoryUsage();
  // 65 rows x 4 padded words x 8 bytes of heap, plus the object itself.
  EXPECT_GE(base, sizeof(BoolMatrix) + uint64_t{65} * 4 * 8);
  // The popcount cache is heap too: caching must grow the reported bytes.
  m.CacheRowPopcounts();
  EXPECT_GE(m.MemoryUsage(), base + uint64_t{65} * sizeof(uint32_t));
}

// ------------------------------------------------------ Document::FromFile ----

TEST(DocumentFromFile, ReadsFileOnce) {
  const std::string path = ::testing::TempDir() + "/fromfile.txt";
  const std::string text = "abccaabccaabcca";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  Result<DocumentPtr> doc = Document::FromFile(path);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(text.size(), (*doc)->length());
  EXPECT_EQ(text, (*doc)->slp().ExpandToString());
  std::remove(path.c_str());
}

TEST(DocumentFromFile, EmptyFileIsAClearError) {
  const std::string path = ::testing::TempDir() + "/empty.txt";
  { std::ofstream out(path, std::ios::binary); }
  Result<DocumentPtr> doc = Document::FromFile(path);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, doc.status().code());
  EXPECT_NE(std::string::npos, doc.status().message().find("empty"));
  std::remove(path.c_str());
}

TEST(DocumentFromFile, MissingFileIsRecoverable) {
  Result<DocumentPtr> doc = Document::FromFile("/nonexistent/없다.txt");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, doc.status().code());
}

}  // namespace
}  // namespace slpspan
