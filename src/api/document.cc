// Document — public handle implementation: compression factories, SLP
// (de)serialization entry points, fingerprinting, prepared-state save/load,
// and per-document cache accounting (see slpspan/document.h).
#include "slpspan/document.h"

#include <atomic>
#include <fstream>
#include <utility>

#include "api/internal.h"
#include "runtime/prepared_cache.h"
#include "runtime/shared_memo_registry.h"
#include "slp/factory.h"
#include "slp/lz77.h"
#include "slp/lz78.h"
#include "slp/repair.h"
#include "slp/serialize.h"
#include "storage/fingerprint.h"
#include "storage/prepared_bundle.h"

namespace slpspan {

namespace {

uint64_t NextDocumentId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Document::Document(Slp slp)
    : slp_(std::move(slp)),
      id_(NextDocumentId()),
      counters_(std::make_shared<runtime_internal::DocCacheCounters>()) {}

Document::~Document() {
  std::vector<uint64_t> query_ids;
  {
    util::MutexLock lock(&counters_->mu);
    query_ids = counters_->query_ids;
  }
  // Only touch the global cache if this document ever put something in it
  // (never force the singleton into existence from a destructor).
  if (!query_ids.empty()) {
    runtime_internal::PreparedCache::Global().EraseDocument(id_, query_ids);
  }
}

Result<DocumentPtr> Document::FromText(std::string_view text,
                                       Compression method) {
  if (text.empty()) {
    return Status::InvalidArgument(
        "cannot compress an empty document (an SLP derives exactly one "
        "non-empty string)");
  }
  switch (method) {
    case Compression::kRePair:
      return FromSlp(RePairCompress(text));
    case Compression::kLz78:
      return FromSlp(Lz78Compress(text));
    case Compression::kLz77:
      return FromSlp(Lz77Compress(text));
    case Compression::kBalanced: {
      Result<Slp> slp = SlpFromString(text);
      if (!slp.ok()) return slp.status();  // unreachable: text is non-empty
      return FromSlp(std::move(slp).value());
    }
  }
  return Status::InvalidArgument("unknown compression method");
}

Result<DocumentPtr> Document::FromFile(const std::string& path,
                                       Compression method) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::InvalidArgument("cannot open " + path);
  std::string text;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size > 0) {
    // Single read into a pre-sized buffer (no stringstream double-copy).
    in.seekg(0, std::ios::beg);
    text.resize(static_cast<size_t>(size));
    in.read(text.data(), size);
    if (!in) return Status::InvalidArgument("short read on " + path);
  } else {
    // Not seekable (pipe, FIFO, /dev/stdin) or a seekable file reporting
    // size 0 (procfs/sysfs pseudo-files do, yet carry content): chunked
    // append from the start.
    in.clear();
    in.seekg(0, std::ios::beg);
    in.clear();
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
      text.append(buf, static_cast<size_t>(in.gcount()));
    }
  }
  if (text.empty()) {
    return Status::InvalidArgument(
        "file " + path +
        " is empty (an SLP derives exactly one non-empty document)");
  }
  return FromText(text, method);
}

DocumentPtr Document::FromSlp(Slp slp) {
  // Private constructor — not reachable by make_shared.
  return DocumentPtr(new Document(std::move(slp)));
}

Result<DocumentPtr> Document::FromSlpFile(const std::string& path) {
  Result<Slp> slp = LoadSlpFromFile(path);
  if (!slp.ok()) return slp.status();
  return FromSlp(std::move(slp).value());
}

Status Document::Save(const std::string& path) const {
  return SaveSlpToFile(slp_, path);
}

uint64_t Document::fingerprint() const {
  uint64_t fp = fingerprint_.load(std::memory_order_relaxed);
  if (fp == 0) {
    // Benign race: FingerprintSlp is deterministic, so concurrent first
    // callers store the same value.
    fp = storage::FingerprintSlp(slp_);
    fingerprint_.store(fp, std::memory_order_relaxed);
  }
  return fp;
}

Status Document::SavePrepared(const Query& query, const std::string& path,
                              PrepareStats* stats) const {
  std::shared_ptr<const api_internal::PreparedState> state =
      PreparedFor(query, stats);
  if (query.options().determinize) {
    // Materialize the counting tables so the bundle warms Count/At/Sample
    // too, not just IsNonEmpty/Extract.
    (void)state->Counter(query.state_->evaluator);
  }
  return storage::WritePreparedBundleFile(path, *state, fingerprint(),
                                          query.fingerprint());
}

Status Document::LoadPrepared(const Query& query, const std::string& path) const {
  Result<storage::StatePtr> loaded = storage::LoadPreparedBundleFile(
      path, fingerprint(), query.fingerprint(),
      runtime_internal::PreparedCache::RechargeHookFor(id_, query.id()));
  if (!loaded.ok()) return loaded.status();
  runtime_internal::PreparedCache::Global().Insert(
      id_, query.id(), fingerprint(), query.fingerprint(), counters_, *loaded);
  return Status::OK();
}

Document::CacheStats Document::cache_stats() const {
  const runtime_internal::DocCacheCounters& c = *counters_;
  return CacheStats{c.hits.load(std::memory_order_relaxed),
                    c.misses.load(std::memory_order_relaxed),
                    c.evictions.load(std::memory_order_relaxed),
                    c.entries.load(std::memory_order_relaxed),
                    c.bytes.load(std::memory_order_relaxed)};
}

std::shared_ptr<const api_internal::PreparedState>
Document::ResidentPreparedFor(const Query& query) const {
  return runtime_internal::PreparedCache::Global().Lookup(id_, query.id(),
                                                          counters_);
}

std::shared_ptr<const api_internal::PreparedState> Document::PreparedFor(
    const Query& query, PrepareStats* stats) const {
  std::shared_ptr<const api_internal::PreparedState> state =
      runtime_internal::PreparedCache::Global().GetOrBuild(
          id_, query.id(), fingerprint(), query.fingerprint(), counters_, [&] {
            PrepareStats build_stats;
            PrepareOptions opts = Runtime::prepare_options();
            if (opts.shared_memo == nullptr) {
              // A live corpus run over this query shares one product memo
              // across every document it prepares (src/corpus/): pick it
              // up here so preparations reached through the cache and
              // Session workers join the run without any API change.
              opts.shared_memo =
                  runtime_internal::SharedMemoRegistry::Global().Lookup(
                      query.fingerprint());
            }
            PreparedDocument prepared =
                query.state_->evaluator.Prepare(slp_, opts, &build_stats);
            return std::make_shared<const api_internal::PreparedState>(
                std::move(prepared),
                runtime_internal::PreparedCache::RechargeHookFor(id_,
                                                                 query.id()),
                std::string(), nullptr, build_stats);
          });
  if (stats != nullptr) *stats = state->prepare_stats;
  return state;
}

}  // namespace slpspan
