// Engine — binds one compiled Query to one shared Document and exposes the
// paper's evaluation tasks, all amortized over the same per-document
// preparation (cached inside the Document):
//
//   IsNonEmpty()  ⟦M⟧(D) ≠ ∅                Theorem 5.1(1), or F′ of the
//                                           resident Lemma 6.5 tables
//   Matches(t)    t ∈ ⟦M⟧(D)                Theorem 5.1(2)
//   Extract()     stream ⟦M⟧(D)             Theorem 8.10 (constant delay)
//   ExtractAll()  materialize ⟦M⟧(D)        Theorem 7.1
//   Count()       |⟦M⟧(D)| w/o enumeration  counting extension (core/count.h)
//   At(i)         i-th result, random access
//   Sample(k)     uniform draws from ⟦M⟧(D)
//
// Extract returns a ResultStream: a range-for-able pull cursor that OWNS the
// query, the document handle and the prepared tables, so it may outlive the
// Engine and every other handle. Results are produced lazily — with
// `ExtractOptions{.limit = n}` (or by just stopping) only the tuples actually
// consumed are computed, which is what makes `limit=1` on a document with
// billions of results instantaneous.
//
// Engines are cheap to construct (two shared handles; no evaluation work)
// and all methods are const and thread-safe.

#ifndef SLPSPAN_PUBLIC_ENGINE_H_
#define SLPSPAN_PUBLIC_ENGINE_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "slpspan/document.h"
#include "slpspan/query.h"
#include "slpspan/status.h"
#include "slpspan/types.h"

namespace slpspan {

namespace api_internal {
struct StreamState;
}  // namespace api_internal

struct ExtractOptions {
  /// Stop after emitting this many tuples. The stream performs early exit:
  /// tuples past the limit are never computed.
  std::optional<uint64_t> limit;

  /// Cooperative cancellation checkpoint. When set, the predicate is polled
  /// at every stream step — before the first-tuple search and before each
  /// Next() — and the moment it returns true the stream terminates (Valid()
  /// goes false; no further tuples are computed). This is what lets a
  /// serving layer stop a mid-flight extraction at the next step instead of
  /// waiting out a potentially astronomic result set; the async Session
  /// threads its cancellation tokens and deadlines through here.
  std::function<bool()> cancel;
};

/// Streaming view of ⟦M⟧(D) (RocksDB-iterator idiom):
///
///   for (const SpanTuple& t : engine.Extract()) { ... }          // range-for
///   for (auto s = engine.Extract(); s.Valid(); s.Next()) use(s.Current());
///
/// Move-only. Keeps the Query, Document and prepared tables alive for its
/// own lifetime; no external lifetime requirements.
class ResultStream {
 public:
  ResultStream(ResultStream&&) noexcept;
  ResultStream& operator=(ResultStream&&) noexcept;
  ~ResultStream();

  bool Valid() const;

  /// Advances to the next tuple; O(depth(S)·|X|) delay (O(log d·|X|) with a
  /// balanced or rebalanced document).
  void Next();

  /// The current tuple; valid until the next call to Next().
  const SpanTuple& Current() const;

  /// Tuples emitted so far (including the current one).
  uint64_t num_emitted() const;

  /// True when the stream terminated because the ExtractOptions::cancel
  /// checkpoint fired (as opposed to exhausting ⟦M⟧(D) or reaching the
  /// limit) — including a cancellation observed before the stream started.
  /// The consumer's signal that the tuple set is a truncated prefix.
  bool cancelled() const;

  // -- range-for support (input iteration) --------------------------------
  struct Sentinel {};
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = SpanTuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const SpanTuple*;
    using reference = const SpanTuple&;

    reference operator*() const { return stream_->Current(); }
    pointer operator->() const { return &stream_->Current(); }
    Iterator& operator++() {
      stream_->Next();
      return *this;
    }
    bool operator==(Sentinel) const { return !stream_->Valid(); }
    bool operator!=(Sentinel s) const { return !(*this == s); }

   private:
    friend class ResultStream;
    explicit Iterator(ResultStream* stream) : stream_(stream) {}
    ResultStream* stream_;
  };

  Iterator begin() { return Iterator(this); }
  Sentinel end() const { return {}; }

 private:
  friend class Engine;
  explicit ResultStream(std::unique_ptr<api_internal::StreamState> state);
  /// Stateless empty stream (limit == 0, or cancelled before the first
  /// preparation/search step even ran).
  ResultStream(std::nullptr_t, bool born_cancelled);

  std::unique_ptr<api_internal::StreamState> state_;
  bool born_cancelled_ = false;
};

/// Exact-count result; `exact == false` means arithmetic saturated and
/// `value` (== UINT64_MAX) is a lower bound.
struct CountInfo {
  uint64_t value = 0;
  bool exact = true;
};

class Engine {
 public:
  /// Binds `query` to `document`. No evaluation work happens here; the
  /// per-document preparation is paid lazily (and cached in the Document)
  /// by the first operation that needs it.
  Engine(Query query, DocumentPtr document);

  /// ⟦M⟧(D) ≠ ∅. O(q) when this pair's prepared state is resident in the
  /// cache: some accepting j has R_S[start, j] ≠ ⊥ (the F′ that Theorem
  /// 8.10 starts from). Otherwise O(|M| + size(S)·q³) by the Theorem 5.1(1)
  /// membership pass, which prepares nothing and adds no cache entry.
  bool IsNonEmpty() const;

  /// t ∈ ⟦M⟧(D) — O((size(S) + |X|·depth(S))·q³). Fails with
  /// kInvalidArgument on arity mismatch and kOutOfRange when a span points
  /// past the document.
  Result<bool> Matches(const SpanTuple& tuple) const;

  /// Lazy stream over ⟦M⟧(D); see ResultStream.
  ResultStream Extract(ExtractOptions opts = {}) const;

  /// Push-style overload: invokes `sink` per tuple until the stream is
  /// exhausted, `opts.limit` is reached, or `sink` returns false (early
  /// exit). Returns the number of tuples delivered.
  uint64_t Extract(const std::function<bool(const SpanTuple&)>& sink,
                   ExtractOptions opts = {}) const;

  /// Materializes (a prefix of) ⟦M⟧(D). Prefer Extract for large result
  /// sets.
  std::vector<SpanTuple> ExtractAll(ExtractOptions opts = {}) const;

  /// |⟦M⟧(D)| without enumeration — O(size(S)·q²) once, then cached.
  /// For non-determinized queries it falls back to the deduplicating
  /// materialization of Theorem 7.1 (exact, but O(|⟦M⟧(D)|) time and
  /// memory — prefer determinized queries when result sets are large).
  Result<CountInfo> Count() const;

  /// The idx-th tuple of ⟦M⟧(D) in the canonical order — O(depth(S)·q).
  /// Fails with kOutOfRange for idx ≥ |⟦M⟧(D)| and kNotSupported for
  /// non-determinized queries.
  Result<SpanTuple> At(uint64_t idx) const;

  /// `k` uniform i.i.d. draws from ⟦M⟧(D) (empty vector when ⟦M⟧(D) = ∅).
  /// Fails with kNotSupported for non-determinized queries or when the
  /// result count saturated.
  Result<std::vector<SpanTuple>> Sample(uint64_t k, uint64_t seed = 42) const;

  const Query& query() const { return query_; }
  const DocumentPtr& document() const { return document_; }

 private:
  std::shared_ptr<const api_internal::PreparedState> Prepared() const;

  Query query_;
  DocumentPtr document_;
};

}  // namespace slpspan

#endif  // SLPSPAN_PUBLIC_ENGINE_H_
