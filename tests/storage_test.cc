// Tests for the persistent prepared-state store (src/storage/ + its runtime
// and API wiring): bundle round-trips (random SLPs × spanners must evaluate
// identically after reload), strict rejection of corrupt/truncated/
// mismatched bundles (Status, never a crash — this suite runs under
// ASan+UBSan in CI), the disk spill tier (write-behind on eviction, disk
// hits on later misses, restart survival, LRU reclamation, pre-warming),
// size-aware admission and CountTables entry re-charging.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "slpspan/slpspan.h"
#include "slpspan/textgen.h"
#include "storage/bundle_format.h"
#include "storage/prepared_bundle.h"
#include "storage/spill_store.h"
#include "test_util.h"
#include "util/rng.h"

namespace slpspan {
namespace {

namespace fs = std::filesystem;
using testing_util::ExpectSameTupleSet;

constexpr uint64_t kDefaultBudget = RuntimeOptions{}.cache_bytes;

/// Restores the cache budget and disables the spill tier even when a test
/// fails mid-way.
struct RuntimeGuard {
  ~RuntimeGuard() {
    Runtime::SetCacheByteBudget(kDefaultBudget);
    (void)Runtime::ConfigureSpill({});
  }
};

Query MustCompile(const std::string& pattern, const std::string& alphabet) {
  Result<Query> q = Query::Compile(pattern, alphabet);
  SLPSPAN_CHECK(q.ok());
  return *q;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string RandomText(Rng* rng, size_t min_len, size_t max_len) {
  const size_t len = rng->Range(min_len, max_len);
  std::string text;
  text.reserve(len);
  for (size_t i = 0; i < len; ++i) text += "abc"[rng->Below(3)];
  return text;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

size_t CountBundles(const std::string& dir) {
  size_t n = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    n += e.path().extension() == ".prep";
  }
  return n;
}

std::string DataPath(const std::string& name) {
  return (fs::path(__FILE__).parent_path() / "data" / name).string();
}

// The document and query of the tests/data/ bundles.
constexpr char kGoldenText[] = "abccaabccaabccabbacbacabbacc";
constexpr char kGoldenPattern[] = ".*x{a}y{b?cc*}.*";

// The golden document as `slpspan compress` + `slpspan prepare` see it: the
// .slp round trip renumbers the grammar, so its fingerprint differs from
// that of the grammar Document::FromText builds.
DocumentPtr GoldenDocumentViaSlpFile() {
  const std::string path = TempPath("golden.slp");
  SLPSPAN_CHECK((*Document::FromText(kGoldenText))->Save(path).ok());
  Result<DocumentPtr> doc = Document::FromSlpFile(path);
  SLPSPAN_CHECK(doc.ok());
  std::remove(path.c_str());
  return *doc;
}

// ------------------------------------------------------------ round trip ----

// Property test: random documents × spanners, every task must agree after a
// bundle round-trip, and the reloaded document must never re-prepare.
TEST(PreparedBundle, RoundTripPreservesAllTasks) {
  const std::vector<Query> queries = {
      MustCompile(".*x{a}y{b?cc*}.*", "abc"),
      MustCompile("(b|c)*x{a}.*y{cc*}.*", "abc"),
      MustCompile(".*x{ab|bc}.*", "abc"),
  };
  const Compression methods[] = {Compression::kRePair, Compression::kLz78,
                                 Compression::kBalanced};
  Rng rng(20260726);
  for (int round = 0; round < 6; ++round) {
    const std::string text = RandomText(&rng, 40, 400);
    const Query& query = queries[round % queries.size()];
    const DocumentPtr original =
        *Document::FromText(text, methods[round % 3]);
    const Engine engine(query, original);

    const std::string path = TempPath("roundtrip.prep");
    ASSERT_TRUE(original->SavePrepared(query, path).ok()) << "round " << round;

    const DocumentPtr reloaded = Document::FromSlp(original->slp());
    ASSERT_TRUE(reloaded->LoadPrepared(query, path).ok()) << "round " << round;
    const Engine warm(query, reloaded);

    EXPECT_EQ(engine.IsNonEmpty(), warm.IsNonEmpty());
    EXPECT_EQ(engine.Count()->value, warm.Count()->value);
    ExpectSameTupleSet(engine.ExtractAll(), warm.ExtractAll());
    const uint64_t total = warm.Count()->value;
    if (total > 0) {
      EXPECT_EQ(*engine.At(0), *warm.At(0));
      EXPECT_EQ(*engine.At(total - 1), *warm.At(total - 1));
    }
    // Every operation above must have been served from the imported bundle.
    EXPECT_EQ(0u, reloaded->cache_stats().misses)
        << "LoadPrepared must pre-warm the cache (round " << round << ")";
    std::remove(path.c_str());
  }
}

TEST(PreparedBundle, MemoryUsageParityAfterReload) {
  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");
  const DocumentPtr original =
      *Document::FromText(GenerateLog({.lines = 50, .seed = 3}), Compression::kRePair);
  (void)Engine(query, original).ExtractAll({.limit = 1});
  const uint64_t original_bytes = original->cache_stats().bytes;
  ASSERT_GT(original_bytes, 0u);

  const std::string path = TempPath("parity.prep");
  ASSERT_TRUE(original->SavePrepared(query, path).ok());
  const DocumentPtr reloaded = Document::FromSlp(original->slp());
  ASSERT_TRUE(reloaded->LoadPrepared(query, path).ok());
  const uint64_t reloaded_bytes = reloaded->cache_stats().bytes;

  // Reloaded vectors are exact-sized, so the charge may only shrink — and
  // not by much (the bit-matrices dominate and round-trip 1:1). SavePrepared
  // materialized the counter on `original`, re-charging it, so compare
  // against the pre-counter charge.
  EXPECT_GT(reloaded_bytes, 0u);
  EXPECT_LE(reloaded_bytes, original->cache_stats().bytes);
  EXPECT_GE(reloaded_bytes, original_bytes / 2);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- rejection ----

TEST(PreparedBundle, CorruptTruncatedAndMismatchedBundlesAreStatusErrors) {
  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");
  const DocumentPtr doc = *Document::FromText("abccaabccaabcca");
  const std::string path = TempPath("victim.prep");
  ASSERT_TRUE(doc->SavePrepared(query, path).ok());
  const std::string image = ReadFile(path);
  ASSERT_GT(image.size(), storage::kBundleHeaderSize);

  // Flipped payload bytes: the checksum must catch every one of them.
  for (const size_t pos :
       {storage::kBundleHeaderSize, image.size() / 2, image.size() - 1}) {
    std::string bad = image;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5A);
    WriteFile(path, bad);
    const Status st = doc->LoadPrepared(query, path);
    ASSERT_FALSE(st.ok()) << "flipped byte at " << pos;
    EXPECT_EQ(StatusCode::kCorruption, st.code());
  }

  // Truncations at every interesting boundary.
  for (const size_t len : {size_t{0}, size_t{5}, storage::kBundleHeaderSize - 1,
                           storage::kBundleHeaderSize, image.size() / 3,
                           image.size() - 1}) {
    WriteFile(path, image.substr(0, len));
    const Status st = doc->LoadPrepared(query, path);
    ASSERT_FALSE(st.ok()) << "truncated to " << len;
    EXPECT_EQ(StatusCode::kCorruption, st.code()) << "truncated to " << len;
  }

  // Wrong magic and unsupported version.
  {
    std::string bad = image;
    bad[0] = 'X';
    WriteFile(path, bad);
    EXPECT_EQ(StatusCode::kCorruption, doc->LoadPrepared(query, path).code());
    bad = image;
    bad[8] = 99;  // version field (little-endian low byte)
    WriteFile(path, bad);
    EXPECT_EQ(StatusCode::kCorruption, doc->LoadPrepared(query, path).code());
  }

  // Garbage that never was a bundle.
  WriteFile(path, "slpspan-slp v1\nnts 1 root 0\nL 0 97\n");
  EXPECT_EQ(StatusCode::kCorruption, doc->LoadPrepared(query, path).code());

  // Intact bundle, wrong document / wrong query: fingerprint mismatch.
  WriteFile(path, image);
  const DocumentPtr other_doc = *Document::FromText("cbacbacba");
  EXPECT_EQ(StatusCode::kInvalidArgument,
            other_doc->LoadPrepared(query, path).code());
  const Query other_query = MustCompile(".*x{b}.*", "abc");
  EXPECT_EQ(StatusCode::kInvalidArgument,
            doc->LoadPrepared(other_query, path).code());

  // Missing file.
  std::remove(path.c_str());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            doc->LoadPrepared(query, path).code());
}

TEST(BundleFormat, ReaderIsBoundsChecked) {
  const uint8_t bytes[3] = {1, 2, 3};
  storage::BundleReader reader(bytes, sizeof(bytes));
  uint32_t u32 = 0;
  EXPECT_FALSE(reader.U32(&u32).ok());  // only 3 bytes left
  uint8_t u8 = 0;
  ASSERT_TRUE(reader.U8(&u8).ok());
  EXPECT_EQ(1u, u8);
  uint64_t u64 = 0;
  EXPECT_FALSE(reader.U64(&u64).ok());
  EXPECT_EQ(2u, reader.remaining());
}

// ------------------------------------------------------------ spill tier ----

TEST(SpillTier, EvictionSpillsAndMissLoadsFromDisk) {
  RuntimeGuard guard;
  const std::string dir = FreshDir("spill_evict");
  ASSERT_TRUE(Runtime::ConfigureSpill(
                  {.directory = dir, .synchronous = true})
                  .ok());

  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");
  const DocumentPtr doc = *Document::FromText("abccaabccaabcca");
  const uint64_t count = Engine(query, doc).Count()->value;

  // Evict everything: the entry must be written to the spill directory.
  Runtime::SetCacheByteBudget(0);
  EXPECT_EQ(0u, doc->cache_stats().entries);
  Runtime::CacheStats stats = Runtime::cache_stats();
  EXPECT_GE(stats.spill_entries, 1u);
  EXPECT_GT(stats.spilled_bytes, 0u);
  EXPECT_GE(CountBundles(dir), 1u);

  // A miss (fresh wrapper of the same grammar — same content fingerprint)
  // must be served from disk, not rebuilt.
  Runtime::SetCacheByteBudget(kDefaultBudget);
  const uint64_t disk_hits_before = stats.disk_hits;
  const DocumentPtr again = Document::FromSlp(doc->slp());
  EXPECT_EQ(count, Engine(query, again).Count()->value);
  stats = Runtime::cache_stats();
  EXPECT_EQ(disk_hits_before + 1, stats.disk_hits)
      << "the RAM miss must hit the disk tier";
  EXPECT_EQ(1u, again->cache_stats().misses)
      << "a disk hit still counts as a RAM miss";
}

TEST(SpillTier, SurvivesStoreReopenLikeARestart) {
  RuntimeGuard guard;
  const std::string dir = FreshDir("spill_restart");
  ASSERT_TRUE(Runtime::ConfigureSpill(
                  {.directory = dir, .synchronous = true})
                  .ok());

  const Query query = MustCompile("(b|c)*x{a}.*y{cc*}.*", "abc");
  const DocumentPtr doc = *Document::FromText("bcbcabccca");
  const uint64_t count = Engine(query, doc).Count()->value;
  Runtime::SetCacheByteBudget(0);  // spill it
  ASSERT_GE(CountBundles(dir), 1u);
  Runtime::SetCacheByteBudget(kDefaultBudget);

  // Re-configuring rescans the directory — the moral equivalent of a new
  // process adopting what the last one left behind.
  ASSERT_TRUE(Runtime::ConfigureSpill(
                  {.directory = dir, .synchronous = true})
                  .ok());
  EXPECT_GE(Runtime::cache_stats().spill_entries, 1u);
  const DocumentPtr revived = Document::FromSlp(doc->slp());
  EXPECT_EQ(count, Engine(query, revived).Count()->value);
  EXPECT_GE(Runtime::cache_stats().disk_hits, 1u);
}

TEST(SpillTier, SpillResidentPersistsACleanShutdown) {
  RuntimeGuard guard;
  const std::string dir = FreshDir("spill_shutdown");
  ASSERT_TRUE(Runtime::ConfigureSpill(
                  {.directory = dir, .synchronous = true})
                  .ok());
  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");
  const DocumentPtr doc = *Document::FromText("abccaabccaabcca");
  const uint64_t count = Engine(query, doc).Count()->value;

  // Ample budget: nothing evicts, so only the shutdown hook persists it.
  ASSERT_EQ(1u, doc->cache_stats().entries);
  ASSERT_EQ(0u, CountBundles(dir));
  Runtime::SpillResident();
  Runtime::FlushSpill();
  EXPECT_GE(CountBundles(dir), 1u);
  EXPECT_EQ(1u, doc->cache_stats().entries) << "spilling must not evict";
  // Second SpillResident: everything already on disk, nothing rewritten.
  const uint64_t written = Runtime::cache_stats().spilled_bytes;
  Runtime::SpillResident();
  EXPECT_EQ(written, Runtime::cache_stats().spilled_bytes);

  // "Restart": rescan the directory, serve a fresh wrapper from disk.
  ASSERT_TRUE(Runtime::ConfigureSpill(
                  {.directory = dir, .synchronous = true})
                  .ok());
  const DocumentPtr revived = Document::FromSlp(doc->slp());
  EXPECT_EQ(count, Engine(query, revived).Count()->value);
  EXPECT_GE(Runtime::cache_stats().disk_hits, 1u);
}

TEST(SpillTier, SavePreparedUnderCanonicalNamePreWarms) {
  RuntimeGuard guard;
  const std::string dir = FreshDir("spill_prewarm");
  const Query query = MustCompile(".*x{ab}.*", "abc");
  const DocumentPtr doc = *Document::FromText("abcabcabab");

  // Export under the canonical spill name *before* enabling the tier.
  const std::string name = Runtime::SpillBundleName(*doc, query);
  ASSERT_TRUE(doc->SavePrepared(query, dir + "/" + name).ok());
  ASSERT_TRUE(Runtime::ConfigureSpill(
                  {.directory = dir, .synchronous = true})
                  .ok());

  const DocumentPtr warm = Document::FromSlp(doc->slp());
  const uint64_t expected = Engine(query, doc).Count()->value;
  EXPECT_EQ(expected, Engine(query, warm).Count()->value);
  EXPECT_GE(Runtime::cache_stats().disk_hits, 1u);
}

TEST(SpillTier, ByteBudgetReclaimsLeastRecentlyUsedBundles) {
  RuntimeGuard guard;
  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");

  // Size one bundle, then budget the store for about two of them.
  const std::string probe_dir = FreshDir("spill_probe");
  ASSERT_TRUE(Runtime::ConfigureSpill(
                  {.directory = probe_dir, .synchronous = true})
                  .ok());
  const DocumentPtr probe = *Document::FromText("abccaabccaabcca");
  (void)Engine(query, probe).Count();
  Runtime::SetCacheByteBudget(0);
  const uint64_t bundle_bytes = Runtime::cache_stats().spill_bytes;
  ASSERT_GT(bundle_bytes, 0u);
  Runtime::SetCacheByteBudget(kDefaultBudget);

  const std::string dir = FreshDir("spill_reclaim");
  ASSERT_TRUE(Runtime::ConfigureSpill({.directory = dir,
                                       .byte_budget = bundle_bytes * 5 / 2,
                                       .synchronous = true})
                  .ok());
  // Spill four distinct documents (distinct texts => distinct fingerprints
  // and similar bundle sizes).
  Runtime::SetCacheByteBudget(0);
  for (const char* text : {"abccaabccaabcca", "ccbaaccbaaccbaa",
                           "bacbacbacbacbac", "cabbacabbacabba"}) {
    const DocumentPtr doc = *Document::FromText(text);
    (void)Engine(query, doc).Count();
  }
  const Runtime::CacheStats stats = Runtime::cache_stats();
  EXPECT_GT(stats.spill_reclaimed, 0u) << "budget must delete old bundles";
  EXPECT_LE(stats.spill_bytes, stats.spill_budget_bytes);
  EXPECT_LT(CountBundles(dir), 4u) << "4 spilled, at least one reclaimed";
  EXPECT_EQ(CountBundles(dir), stats.spill_entries);
}

// Spills `doc`'s prepared state, rewrites the spilled bundle with
// `damage`, then checks that the next lookup rejects the bundle, deletes it
// and rebuilds the right count.
void ExpectDamagedSpillIsRebuilt(
    const DocumentPtr& doc,
    const std::function<std::string(std::string)>& damage) {
  RuntimeGuard guard;
  const std::string dir = FreshDir("spill_corrupt");
  ASSERT_TRUE(Runtime::ConfigureSpill(
                  {.directory = dir, .synchronous = true})
                  .ok());
  const Query query = MustCompile(kGoldenPattern, "abc");
  const uint64_t count = Engine(query, doc).Count()->value;
  Runtime::SetCacheByteBudget(0);
  ASSERT_EQ(1u, CountBundles(dir));

  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".prep") continue;
    WriteFile(e.path().string(), damage(ReadFile(e.path().string())));
  }
  Runtime::SetCacheByteBudget(kDefaultBudget);

  const DocumentPtr again = Document::FromSlp(doc->slp());
  EXPECT_EQ(count, Engine(query, again).Count()->value);
  EXPECT_EQ(0u, CountBundles(dir)) << "corrupt bundles are deleted on sight";
}

TEST(SpillTier, CorruptSpilledBundleFallsBackToBuild) {
  // A byte flipped in place.
  ExpectDamagedSpillIsRebuilt(*Document::FromText("abccaabccaabcca"),
                              [](std::string bytes) {
                                bytes[bytes.size() / 2] ^= 0x5A;
                                return bytes;
                              });
  // An intact v2 bundle an older build wrote for the same pair with a
  // since-retired stream codec.
  const std::string retired = ReadFile(DataPath("retired_auto_v2.prep"));
  ASSERT_FALSE(retired.empty());
  ExpectDamagedSpillIsRebuilt(GoldenDocumentViaSlpFile(),
                              [&](std::string) { return retired; });
}

// ------------------------------------------------- admission + recharge ----

TEST(SizeAwareAdmission, OversizedEntryDoesNotThrashTheShard) {
  RuntimeGuard guard;
  const Query query = MustCompile(".*x{ab}.*", "ab");

  // Measure a small entry (with its counter — Count re-charges it) and a
  // big entry's *tables-only* size, which is what admission sees at insert
  // time (the counter materializes later).
  const DocumentPtr small = *Document::FromText("abababab");
  (void)Engine(query, small).Count();
  const uint64_t small_bytes = small->cache_stats().bytes;
  const DocumentPtr big = *Document::FromText(
      [] {
        // Random (incompressible) text => a large grammar => big tables.
        Rng rng(7);
        std::string s;
        for (int i = 0; i < 6000; ++i) s += "ab"[rng.Below(2)];
        return s;
      }(),
      Compression::kLz78);
  (void)Engine(query, big).ExtractAll({.limit = 1});
  const uint64_t big_tables_bytes = big->cache_stats().bytes;
  ASSERT_GT(big_tables_bytes, small_bytes * 2);

  // Budget so a shard slice sits strictly between the two sizes.
  const uint32_t shards = Runtime::cache_stats().shards;
  Runtime::SetCacheByteBudget((small_bytes + big_tables_bytes) / 2 * shards);

  const uint64_t rejects_before = Runtime::cache_stats().admission_rejects;
  const DocumentPtr resident = Document::FromSlp(small->slp());
  Result<CountInfo> small_count = Engine(query, resident).Count();
  ASSERT_TRUE(small_count.ok());
  EXPECT_EQ(1u, resident->cache_stats().entries) << "small entry fits a slice";

  const DocumentPtr rejected = Document::FromSlp(big->slp());
  Result<CountInfo> big_count = Engine(query, rejected).Count();
  ASSERT_TRUE(big_count.ok());
  EXPECT_EQ(Engine(query, big).Count()->value, big_count->value)
      << "a rejected entry must still serve the caller";
  EXPECT_EQ(0u, rejected->cache_stats().entries) << "too big to admit";
  EXPECT_GT(rejected->cache_stats().evictions, 0u);
  EXPECT_GT(Runtime::cache_stats().admission_rejects, rejects_before);
  EXPECT_EQ(1u, resident->cache_stats().entries)
      << "rejecting the oversized entry must not evict the resident one";
}

// ------------------------------------------------------ warm-start index ----

// The spill.index fast path must reproduce exactly what the stat walk would
// have found: same entries, same byte totals, and the LRU order the last
// process left behind (MRU first), so budget reclamation after a restart
// still deletes the coldest bundles first.
TEST(SpillIndex, RestartAdoptsIndexAndPreservesLruOrder) {
  const std::string dir = FreshDir("spill_index_warm");
  const std::string image_a(100, 'a');
  const std::string image_b(100, 'b');
  const std::string image_c(100, 'c');
  {
    Result<std::unique_ptr<storage::SpillStore>> store =
        storage::SpillStore::Open({.directory = dir});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(1, 10, image_a).ok());
    ASSERT_TRUE((*store)->Put(2, 10, image_b).ok());
    ASSERT_TRUE((*store)->Put(3, 10, image_c).ok());
    // Three Puts are below the flush interval: only the destructor's final
    // flush can produce the index the next Open adopts.
    EXPECT_EQ(0u, (*store)->GetStats().index_writes);
  }
  ASSERT_TRUE(fs::exists(dir + "/" + storage::kSpillIndexFileName));

  Result<std::unique_ptr<storage::SpillStore>> warm =
      storage::SpillStore::Open({.directory = dir});
  ASSERT_TRUE(warm.ok());
  const storage::SpillStore::Stats stats = (*warm)->GetStats();
  EXPECT_TRUE(stats.warmed_from_index);
  EXPECT_EQ(3u, stats.entries);
  EXPECT_EQ(300u, stats.bytes);
  EXPECT_TRUE((*warm)->Contains(1, 10));
  EXPECT_TRUE((*warm)->Contains(2, 10));
  EXPECT_TRUE((*warm)->Contains(3, 10));

  // A third process with a budget for one bundle must keep the bundle that
  // was most recently used *two* processes ago — order came from the index.
  { std::unique_ptr<storage::SpillStore> flush = std::move(*warm); }
  Result<std::unique_ptr<storage::SpillStore>> tight =
      storage::SpillStore::Open({.directory = dir, .byte_budget = 150});
  ASSERT_TRUE(tight.ok());
  EXPECT_TRUE((*tight)->GetStats().warmed_from_index);
  EXPECT_TRUE((*tight)->Contains(3, 10)) << "MRU bundle must survive";
  EXPECT_FALSE((*tight)->Contains(1, 10));
  EXPECT_FALSE((*tight)->Contains(2, 10));
}

// A corrupt, truncated, or stale index is a hint that failed validation:
// Open must fall back to the stat walk and still see every bundle.
TEST(SpillIndex, CorruptOrStaleIndexFallsBackToStatWalk) {
  const std::string dir = FreshDir("spill_index_corrupt");
  {
    Result<std::unique_ptr<storage::SpillStore>> store =
        storage::SpillStore::Open({.directory = dir});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(7, 70, std::string(64, 'x')).ok());
    ASSERT_TRUE((*store)->Put(8, 70, std::string(64, 'y')).ok());
  }
  const std::string index_path = dir + "/" + storage::kSpillIndexFileName;
  const std::string good_index = ReadFile(index_path);
  ASSERT_FALSE(good_index.empty());

  // Corruption: flip a payload byte, truncate, or scribble the magic.
  for (const std::string& bad :
       {[&] {
          std::string b = good_index;
          b[b.size() - 1] ^= 0x41;
          return b;
        }(),
        good_index.substr(0, good_index.size() / 2), std::string("SPIX")}) {
    WriteFile(index_path, bad);
    Result<std::unique_ptr<storage::SpillStore>> store =
        storage::SpillStore::Open({.directory = dir});
    ASSERT_TRUE(store.ok());
    const storage::SpillStore::Stats stats = (*store)->GetStats();
    EXPECT_FALSE(stats.warmed_from_index);
    EXPECT_EQ(2u, stats.entries) << "fallback walk must find every bundle";
    EXPECT_TRUE((*store)->Contains(7, 70));
    EXPECT_TRUE((*store)->Contains(8, 70));
    // Leave a fresh, valid index behind for the next iteration's overwrite.
  }

  // Staleness: a bundle deleted behind the store's back must invalidate the
  // index (names no longer match), not resurrect a phantom entry.
  ASSERT_TRUE(
      fs::remove(dir + "/" + storage::SpillFileName(8, 70)));
  Result<std::unique_ptr<storage::SpillStore>> stale =
      storage::SpillStore::Open({.directory = dir});
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE((*stale)->GetStats().warmed_from_index);
  EXPECT_EQ(1u, (*stale)->GetStats().entries);
  EXPECT_TRUE((*stale)->Contains(7, 70));
  EXPECT_FALSE((*stale)->Contains(8, 70));
}

// ---------------------------------------------------------------- format ----

// Every bundle must load back to behavior identical to the in-memory
// preparation.
TEST(BundleFormat, BitpackRoundTripsIdentically) {
  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");
  Rng rng(20260808);
  const std::string text = RandomText(&rng, 200, 400);
  const DocumentPtr original = *Document::FromText(text);
  const Engine fresh(query, original);
  const uint64_t count = fresh.Count()->value;

  const std::string path = TempPath("bitpack_roundtrip.prep");
  ASSERT_TRUE(original->SavePrepared(query, path).ok());
  const DocumentPtr reloaded = Document::FromSlp(original->slp());
  ASSERT_TRUE(reloaded->LoadPrepared(query, path).ok());
  const Engine warm(query, reloaded);
  EXPECT_EQ(fresh.IsNonEmpty(), warm.IsNonEmpty());
  EXPECT_EQ(count, warm.Count()->value);
  ExpectSameTupleSet(fresh.ExtractAll(), warm.ExtractAll());
  if (count > 0) {
    EXPECT_EQ(*fresh.At(count - 1), *warm.At(count - 1));
  }
  EXPECT_EQ(0u, reloaded->cache_stats().misses);
  std::remove(path.c_str());
}

// Save -> Load -> Save must reproduce the file byte-for-byte: the loaded
// state carries exactly the information the bundle did, and the writer is
// deterministic.
TEST(BundleFormat, ReserializeIsBitIdentical) {
  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");
  const DocumentPtr original = *Document::FromText(kGoldenText);
  const std::string path1 = TempPath("bitident1.prep");
  const std::string path2 = TempPath("bitident2.prep");
  ASSERT_TRUE(original->SavePrepared(query, path1).ok());
  const DocumentPtr reloaded = Document::FromSlp(original->slp());
  ASSERT_TRUE(reloaded->LoadPrepared(query, path1).ok());
  ASSERT_TRUE(reloaded->SavePrepared(query, path2).ok());
  EXPECT_EQ(ReadFile(path1), ReadFile(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

// Differential v1/v2 compatibility: golden_v1.prep, written by the
// pre-codec writer for the grammar Document::FromText builds, must stay
// loadable with identical results forever. The fixture is frozen: no
// build writes format v1 any more, so it can never be regenerated.
// Re-saving its loaded state writes format v2, which must be smaller.
TEST(BundleFormat, GoldenV1FixtureStaysReadable) {
  const std::string golden = DataPath("golden_v1.prep");
  ASSERT_TRUE(fs::exists(golden)) << golden << " missing from the repo";
  const Query query = MustCompile(kGoldenPattern, "abc");
  const DocumentPtr doc = *Document::FromText(kGoldenText);
  ASSERT_TRUE(doc->LoadPrepared(query, golden).ok())
      << "v1 bundles must stay readable byte-for-byte";
  const Engine warm(query, doc);
  const DocumentPtr fresh_doc = Document::FromSlp(doc->slp());
  const Engine fresh(query, fresh_doc);
  EXPECT_EQ(fresh.Count()->value, warm.Count()->value);
  ExpectSameTupleSet(fresh.ExtractAll(), warm.ExtractAll());
  EXPECT_EQ(0u, doc->cache_stats().misses);

  const std::string resaved = TempPath("golden_v1_resaved.prep");
  ASSERT_TRUE(doc->SavePrepared(query, resaved).ok());
  EXPECT_LT(fs::file_size(resaved), fs::file_size(golden))
      << "compression must not regress";
  std::remove(resaved.c_str());
}

// Pins the one writer: golden_v2.prep was written by the last build that
// offered a choice of stream codecs, with its codec flag set to bitpack, by
//   slpspan compress <(printf 'abccaabccaabccabbacbacabbacc') g.slp
//   slpspan prepare g.slp '.*x{a}y{b?cc*}.*' --alphabet=abc
//           -o tests/data/golden_v2.prep
// It must load with identical results, and both a fresh build and the
// loaded state must save back to exactly the fixture's bytes.
TEST(BundleFormat, GoldenV2FixtureRoundTripsByteForByte) {
  const std::string golden = DataPath("golden_v2.prep");
  ASSERT_TRUE(fs::exists(golden)) << golden << " missing from the repo";
  const Query query = MustCompile(kGoldenPattern, "abc");
  const DocumentPtr doc = GoldenDocumentViaSlpFile();
  ASSERT_TRUE(doc->LoadPrepared(query, golden).ok());
  const Engine warm(query, doc);
  const DocumentPtr fresh_doc = Document::FromSlp(doc->slp());
  const Engine fresh(query, fresh_doc);
  EXPECT_EQ(fresh.Count()->value, warm.Count()->value);
  ExpectSameTupleSet(fresh.ExtractAll(), warm.ExtractAll());
  EXPECT_EQ(0u, doc->cache_stats().misses);

  const std::string resaved = TempPath("golden_v2_resaved.prep");
  const std::string expected = ReadFile(golden);
  ASSERT_TRUE(doc->SavePrepared(query, resaved).ok());
  EXPECT_EQ(expected, ReadFile(resaved)) << "save after load";
  ASSERT_TRUE(fresh_doc->SavePrepared(query, resaved).ok());
  EXPECT_EQ(expected, ReadFile(resaved)) << "save after a fresh build";
  std::remove(resaved.c_str());
}

// retired_auto_v2.prep is the same pair written by that build under its
// default codec choice, which mixed group-varint (tag 1) and Elias-Fano
// (tag 3) streams in with bitpacked ones. The reader refuses it as corrupt.
TEST(BundleFormat, RetiredCodecBundleIsCorruption) {
  const Query query = MustCompile(kGoldenPattern, "abc");
  const DocumentPtr doc = GoldenDocumentViaSlpFile();
  const Status st = doc->LoadPrepared(query, DataPath("retired_auto_v2.prep"));
  EXPECT_EQ(StatusCode::kCorruption, st.code()) << st.ToString();
  EXPECT_NE(std::string::npos, st.message().find("codec tag")) << st.ToString();
}

// Structured fuzz over the v2 section decoders: mutate payload bytes and
// re-seal the checksum so corruption reaches the section parsers (the
// checksum would otherwise reject everything first). Decoding must return
// a Status — never crash, hang or read out of bounds. Runs under ASan in CI.
TEST(BundleFormat, ResealedPayloadMutationsNeverCrash) {
  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");
  const DocumentPtr doc = *Document::FromText("abccaabccaabccabbacbacabbacc");
  const std::string path = TempPath("reseal.prep");
  ASSERT_TRUE(doc->SavePrepared(query, path).ok());
  const std::string image = ReadFile(path);
  std::remove(path.c_str());
  ASSERT_GT(image.size(), storage::kBundleHeaderSize);
  const size_t payload_size = image.size() - storage::kBundleHeaderSize;

  const uint64_t doc_fp = doc->fingerprint();
  const uint64_t query_fp = query.fingerprint();
  auto reseal = [&](std::string* img) {
    // Patch payload_size (offset 32) and checksum (offset 40) so the header
    // admits the mutated payload and the section decoders see it.
    const uint64_t n = img->size() - storage::kBundleHeaderSize;
    const uint64_t ck = storage::Checksum64(
        reinterpret_cast<const uint8_t*>(img->data()) +
            storage::kBundleHeaderSize,
        static_cast<size_t>(n));
    for (int i = 0; i < 8; ++i) {
      (*img)[32 + i] = static_cast<char>(n >> (8 * i));
      (*img)[40 + i] = static_cast<char>(ck >> (8 * i));
    }
  };

  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 3000; ++round) {
    std::string mutated = image;
    switch (round % 3) {
      case 0: {  // flip 1..4 payload bytes
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < flips; ++f) {
          const size_t pos =
              storage::kBundleHeaderSize + rng() % payload_size;
          mutated[pos] = static_cast<char>(mutated[pos] ^ (1 + rng() % 255));
        }
        break;
      }
      case 1:  // truncate the payload
        mutated.resize(storage::kBundleHeaderSize + rng() % payload_size);
        break;
      default: {  // splice random garbage over a payload range
        const size_t pos = storage::kBundleHeaderSize + rng() % payload_size;
        const size_t len = std::min(mutated.size() - pos, rng() % 64);
        for (size_t i = 0; i < len; ++i) {
          mutated[pos + i] = static_cast<char>(rng());
        }
        break;
      }
    }
    reseal(&mutated);
    Result<storage::StatePtr> state = storage::DeserializePreparedState(
        reinterpret_cast<const uint8_t*>(mutated.data()), mutated.size(),
        doc_fp, query_fp, {});
    // Accidentally-valid mutations are fine (the checksum was resealed);
    // what is forbidden is crashing. Touch the status to keep it honest.
    if (!state.ok()) {
      EXPECT_FALSE(state.status().message().empty());
    }
  }
}

// Spill accounting regression: the write-behind tier's byte budget is
// charged with *encoded* bundle sizes, not with the entries' resident
// bytes — so a budget sized for ~2.2 resident entries must admit more.
TEST(SpillTier, CompressedBundlesAdmitMoreUnderSameBudget) {
  RuntimeGuard guard;
  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");
  const std::string texts[] = {
      GenerateLog({.lines = 30, .seed = 51}),
      GenerateLog({.lines = 30, .seed = 52}),
      GenerateLog({.lines = 30, .seed = 53}),
      GenerateLog({.lines = 30, .seed = 54}),
  };

  // Size each entry as the RAM cache charges it (tables plus counting
  // tables) and as its bundle encodes it.
  uint64_t max_resident = 0, max_encoded = 0;
  for (const std::string& text : texts) {
    const DocumentPtr doc = *Document::FromText(text);
    ASSERT_TRUE(Engine(query, doc).Count().ok());
    max_resident = std::max<uint64_t>(max_resident, doc->cache_stats().bytes);
    const std::string path = TempPath("admit_probe.prep");
    ASSERT_TRUE(doc->SavePrepared(query, path).ok());
    max_encoded = std::max<uint64_t>(max_encoded, fs::file_size(path));
    std::remove(path.c_str());
  }
  ASSERT_GT(max_encoded, 0u);
  // Without this gap the admission claim below is vacuous.
  EXPECT_GE(max_resident, max_encoded * 3 / 2);

  // Budget for ~2.2 resident entries; spill all four documents.
  const std::string dir = FreshDir("spill_admit");
  ASSERT_TRUE(Runtime::ConfigureSpill({.directory = dir,
                                       .byte_budget = max_resident * 11 / 5,
                                       .synchronous = true})
                  .ok());
  Runtime::SetCacheByteBudget(0);
  for (const std::string& text : texts) {
    const DocumentPtr doc = *Document::FromText(text);
    (void)Engine(query, doc).Count();
  }
  Runtime::SetCacheByteBudget(kDefaultBudget);
  const Runtime::CacheStats stats = Runtime::cache_stats();
  EXPECT_GE(CountBundles(dir), 3u)
      << "encoded-size accounting must admit more bundles than the "
         "resident sizes would allow";
  EXPECT_LE(stats.spill_bytes, stats.spill_budget_bytes);
}

TEST(Recharge, LazyCountTablesAreChargedWhenMaterialized) {
  const Query query = MustCompile(".*x{a}y{b?cc*}.*", "abc");
  const DocumentPtr doc = *Document::FromText("abccaabccaabcca");
  const Engine engine(query, doc);

  (void)engine.ExtractAll({.limit = 1});  // builds tables, not the counter
  const uint64_t before = doc->cache_stats().bytes;
  ASSERT_GT(before, 0u);
  ASSERT_TRUE(engine.Count().ok());  // materializes CountTables
  const uint64_t after = doc->cache_stats().bytes;
  EXPECT_GT(after, before)
      << "materialized CountTables must be re-charged to the entry";
  ASSERT_TRUE(engine.Count().ok());  // second Count: no double charge
  EXPECT_EQ(after, doc->cache_stats().bytes);
}

}  // namespace
}  // namespace slpspan
