// Engine and ResultStream — the public query-execution surface: runs a
// compiled Query over a Document's prepared state and streams span tuples.
#include "slpspan/engine.h"

#include <utility>

#include "api/internal.h"
#include "util/rng.h"

namespace slpspan {

// ----------------------------------------------------------- ResultStream ---

ResultStream::ResultStream(std::unique_ptr<api_internal::StreamState> state)
    : state_(std::move(state)) {}

ResultStream::ResultStream(std::nullptr_t, bool born_cancelled)
    : born_cancelled_(born_cancelled) {}

ResultStream::ResultStream(ResultStream&&) noexcept = default;
ResultStream& ResultStream::operator=(ResultStream&&) noexcept = default;
ResultStream::~ResultStream() = default;

bool ResultStream::Valid() const { return state_ != nullptr && state_->valid; }

void ResultStream::Next() {
  // Programmer contract (documented on ResultStream), not user input: a
  // default-constructed or moved-from stream must not be advanced.
  SLPSPAN_CHECK(state_ != nullptr);  // repo-lint: allow(check-in-library)
  state_->Advance();
}

const SpanTuple& ResultStream::Current() const {
  // Programmer contract: Current() on an exhausted stream is API misuse.
  SLPSPAN_CHECK(Valid());  // repo-lint: allow(check-in-library)
  return state_->current;
}

uint64_t ResultStream::num_emitted() const {
  return state_ == nullptr ? 0 : state_->emitted;
}

bool ResultStream::cancelled() const {
  return state_ == nullptr ? born_cancelled_ : state_->cancelled;
}

// ------------------------------------------------------------------ Engine ---

Engine::Engine(Query query, DocumentPtr document)
    : query_(std::move(query)), document_(std::move(document)) {
  // Programmer contract: constructing an Engine over a null DocumentPtr is
  // API misuse (Document factories never return null on success).
  SLPSPAN_CHECK(document_ != nullptr);  // repo-lint: allow(check-in-library)
}

std::shared_ptr<const api_internal::PreparedState> Engine::Prepared() const {
  return document_->PreparedFor(query_);
}

bool Engine::IsNonEmpty() const {
  const SpannerEvaluator& evaluator = query_.state_->evaluator;
  // Resident Lemma 6.5 tables answer in O(q). Otherwise run the projected
  // membership check rather than prepare: it builds no cache entry and its
  // automaton is never determinized.
  if (auto prep = document_->ResidentPreparedFor(query_)) {
    return evaluator.CheckNonEmptiness(prep->prepared);
  }
  return evaluator.CheckNonEmptiness(document_->slp());
}

Result<bool> Engine::Matches(const SpanTuple& tuple) const {
  if (tuple.num_vars() != query_.num_vars()) {
    return Status::InvalidArgument(
        "span-tuple has " + std::to_string(tuple.num_vars()) +
        " variables, query has " + std::to_string(query_.num_vars()));
  }
  const uint64_t d = document_->length();
  for (VarId v = 0; v < tuple.num_vars(); ++v) {
    const auto& span = tuple.Get(v);
    if (!span.has_value()) continue;
    if (span->begin < 1 || span->begin > span->end) {
      return Status::InvalidArgument("malformed span for variable " +
                                     query_.vars().Name(v));
    }
    if (span->end > d + 1) {
      return Status::OutOfRange("span of variable " + query_.vars().Name(v) +
                                " ends past the document (d=" +
                                std::to_string(d) + ")");
    }
  }
  return query_.state_->evaluator.CheckModel(document_->slp(), tuple);
}

ResultStream Engine::Extract(ExtractOptions opts) const {
  if (opts.limit && *opts.limit == 0) {
    // Nothing may be emitted: skip the preparation and the first-tuple
    // search entirely (the stream contract says unneeded tuples are never
    // computed).
    return ResultStream(nullptr, /*born_cancelled=*/false);
  }
  if (opts.cancel && opts.cancel()) {
    // Cancelled before the stream started: never prepare, never search.
    return ResultStream(nullptr, /*born_cancelled=*/true);
  }
  auto state = std::make_unique<api_internal::StreamState>(
      query_, document_, Prepared(), &query_.state_->evaluator.eval_nfa(),
      query_.num_vars(), opts.limit, std::move(opts.cancel));
  return ResultStream(std::move(state));
}

uint64_t Engine::Extract(const std::function<bool(const SpanTuple&)>& sink,
                         ExtractOptions opts) const {
  uint64_t delivered = 0;
  for (ResultStream stream = Extract(opts); stream.Valid(); stream.Next()) {
    ++delivered;
    if (!sink(stream.Current())) break;
  }
  return delivered;
}

std::vector<SpanTuple> Engine::ExtractAll(ExtractOptions opts) const {
  std::vector<SpanTuple> out;
  for (ResultStream stream = Extract(opts); stream.Valid(); stream.Next()) {
    out.push_back(stream.Current());
  }
  return out;
}

Result<CountInfo> Engine::Count() const {
  auto prep = Prepared();
  if (!query_.options().determinize) {
    // No disjoint decomposition without determinism (Lemma 8.7); fall back
    // to the deduplicating materialization of Theorem 7.1.
    return CountInfo{
        query_.state_->evaluator.ComputeAllMarkers(prep->prepared).size(),
        true};
  }
  const CountTables& counter = prep->Counter(query_.state_->evaluator);
  return CountInfo{counter.Total(), !counter.overflowed()};
}

Result<SpanTuple> Engine::At(uint64_t idx) const {
  if (!query_.options().determinize) {
    return Status::NotSupported(
        "random access requires a determinized query (QueryOptions)");
  }
  auto prep = Prepared();
  const CountTables& counter = prep->Counter(query_.state_->evaluator);
  if (counter.overflowed()) {
    return Status::NotSupported(
        "result count exceeds 2^64; random access range unknown");
  }
  if (idx >= counter.Total()) {
    return Status::OutOfRange("index " + std::to_string(idx) +
                              " >= |result set| = " +
                              std::to_string(counter.Total()));
  }
  return query_.state_->evaluator.TupleOf(counter.Select(idx));
}

Result<std::vector<SpanTuple>> Engine::Sample(uint64_t k, uint64_t seed) const {
  if (!query_.options().determinize) {
    return Status::NotSupported(
        "sampling requires a determinized query (QueryOptions)");
  }
  auto prep = Prepared();
  const CountTables& counter = prep->Counter(query_.state_->evaluator);
  if (counter.overflowed()) {
    return Status::NotSupported(
        "result count exceeds 2^64; cannot sample uniformly");
  }
  std::vector<SpanTuple> out;
  if (counter.Total() == 0) return out;
  Rng rng(seed);
  // Cap the up-front reservation: k is caller-controlled and may be huge;
  // reserve(k) must not be the allocation that kills the process.
  out.reserve(std::min<uint64_t>(k, 4096));
  for (uint64_t i = 0; i < k; ++i) {
    out.push_back(
        query_.state_->evaluator.TupleOf(counter.Select(rng.Below(counter.Total()))));
  }
  return out;
}

}  // namespace slpspan
