// Document — an immutable, shared handle on an SLP-compressed document.
//
// Documents are always held by shared_ptr (DocumentPtr): engines, streams
// and application code can share one compressed document without lifetime
// bookkeeping — the old PreparedDocument "must outlive the enumerator"
// footgun is gone, a ResultStream keeps everything it reads from alive.
//
// Prepared evaluation state (the sentinel-extended grammar plus the Lemma
// 6.5 tables, built in O(|M| + size(S)·q³)) lives in the process-wide
// sharded, byte-budgeted LRU cache (slpspan/runtime.h), keyed by
// (document-id, query-id). The first Engine operation that needs the tables
// pays that cost; every later operation with the same Query — from any
// Engine or thread — reuses the cached state, and concurrent first uses are
// coalesced so the preparation is never built twice. cache_stats() reports
// this Document's share of the cache (hits/misses/evictions/resident bytes).
//
// Loading and compression errors (unreadable files, corrupt .slp input,
// empty documents) surface as Result<DocumentPtr>.

#ifndef SLPSPAN_PUBLIC_DOCUMENT_H_
#define SLPSPAN_PUBLIC_DOCUMENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "slp/slp.h"
#include "slpspan/prepare.h"
#include "slpspan/query.h"
#include "slpspan/status.h"

namespace slpspan {

namespace api_internal {
struct PreparedState;
}  // namespace api_internal

namespace runtime_internal {
struct DocCacheCounters;
}  // namespace runtime_internal

class Document;

/// Documents are immutable; share them freely.
using DocumentPtr = std::shared_ptr<const Document>;

/// Grammar compressor used by Document::FromText / FromFile.
enum class Compression {
  kRePair,    ///< greedy digram replacement — best ratio on repetitive text
  kLz78,      ///< LZ78 parse converted to an SLP — fastest construction
  kLz77,      ///< LZ77 parse converted to an SLP (Theorem 4.6 route)
  kBalanced,  ///< balanced hash-consed grammar — O(log d) depth guarantee
};

class Document {
 public:
  /// Compresses `text` into an SLP. Fails with kInvalidArgument on empty
  /// input (an SLP derives exactly one non-empty document).
  static Result<DocumentPtr> FromText(std::string_view text,
                                      Compression method = Compression::kRePair);

  /// Reads a raw text file and compresses it.
  static Result<DocumentPtr> FromFile(const std::string& path,
                                      Compression method = Compression::kRePair);

  /// Wraps an already-built grammar (see slpspan/slp.h for constructions).
  static DocumentPtr FromSlp(Slp slp);

  /// Loads a persisted `.slp` grammar. Untrusted input is fully re-validated;
  /// fails with kCorruption instead of trusting the file.
  static Result<DocumentPtr> FromSlpFile(const std::string& path);

  /// Persists the grammar in the textual `.slp` format.
  Status Save(const std::string& path) const;

  /// Exports the prepared state for `query` as a checksummed bundle file
  /// (".prep"): the sentinel-extended grammar, the Lemma 6.5 tables and —
  /// for determinized queries — the counting tables, ready for
  /// LoadPrepared or a spill directory (Runtime::SpillBundleName). Pays the
  /// preparation at most once even when the state is too large for the
  /// cache to retain (the built state is serialized directly); `stats`,
  /// when non-null, receives the PrepareStats of the build the bundle was
  /// serialized from (see PreparedFor for the loaded/cached semantics).
  /// Always writes bundle format v2 with bitpacked integer streams
  /// (docs/STORAGE_CODECS.md); LoadPrepared also reads the older format v1.
  Status SavePrepared(const Query& query, const std::string& path,
                      PrepareStats* stats = nullptr) const;

  /// Imports a bundle written by SavePrepared into the process-wide cache,
  /// so the first Engine operation on (this document, `query`) skips
  /// preparation entirely. The bundle must match both sides: fails with
  /// kInvalidArgument on a document/query fingerprint mismatch and with
  /// kCorruption on a damaged, truncated or wrong-version file (including
  /// a v2 bundle an older build wrote with a since-retired stream codec) —
  /// never by crashing.
  Status LoadPrepared(const Query& query, const std::string& path) const;

  /// Evicts this Document's entries from the process-wide prepared-state
  /// cache (the bytes stop counting against the budget immediately).
  ~Document();

  // Documents are shared by handle (DocumentPtr), never by value: a copy
  // would alias id_/counters_ and its destructor would purge the original's
  // cache entries.
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// The underlying grammar (normal form, Section 4).
  const Slp& slp() const { return slp_; }

  /// d — length of the represented document.
  uint64_t length() const { return slp_.DocumentLength(); }

  /// Process-unique identity of this Document instance; together with
  /// Query::id() it keys the process-wide prepared-state cache.
  uint64_t id() const { return id_; }

  /// Content fingerprint of the grammar (never 0; computed once, lazily).
  /// Unlike id(), this survives restarts and is shared by structurally
  /// identical documents — it keys the disk spill tier and exported
  /// bundles.
  uint64_t fingerprint() const;

  Slp::Stats stats() const { return slp_.ComputeStats(); }

  /// This Document's view of the process-wide prepared-state cache (see
  /// Runtime::cache_stats() for the global picture).
  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;     ///< lookups that left RAM (bundle load or build)
    uint64_t evictions = 0;  ///< this document's entries dropped for budget
    uint64_t entries = 0;    ///< currently resident entries
    uint64_t bytes = 0;      ///< currently resident bytes
  };
  CacheStats cache_stats() const;

  /// Returns the prepared state for `query` from the process-wide cache,
  /// building it on first use with Runtime's default PrepareOptions (see
  /// Runtime::SetPrepareOptions). Thread-safe; concurrent builds for the
  /// same (document, query) pair are coalesced (single-flight). The handle
  /// is opaque — this is the explicit pre-warming hook (an Engine operation
  /// triggers the same path lazily). When `stats` is non-null it receives
  /// the PrepareStats of the build that produced the state: a cache hit
  /// reports the original build, a bundle-loaded state reports all zeros
  /// (waves == 0).
  std::shared_ptr<const api_internal::PreparedState> PreparedFor(
      const Query& query, PrepareStats* stats = nullptr) const;

 private:
  friend class Engine;

  explicit Document(Slp slp);

  /// The prepared state for `query` if it is resident in RAM, else null.
  /// Never builds, reads no disk and waits on no in-flight build; a hit is
  /// counted like any cache hit (Engine::IsNonEmpty's fast path).
  std::shared_ptr<const api_internal::PreparedState> ResidentPreparedFor(
      const Query& query) const;

  const Slp slp_;
  const uint64_t id_;
  const std::shared_ptr<runtime_internal::DocCacheCounters> counters_;
  mutable std::atomic<uint64_t> fingerprint_{0};  // 0 = not yet computed
};

}  // namespace slpspan

#endif  // SLPSPAN_PUBLIC_DOCUMENT_H_
