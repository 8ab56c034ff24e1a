// In-memory span recorder and the traced serial replay.
//
// The replay walks a workload's seeded schedule one request at a time
// through each layer's public entry point, in the order the server calls
// them: frame decode, document/query lookup (grammar load, query compile),
// the prepared-state cache (RAM hit, bundle decode or Lemma 6.5 build),
// evaluation (count, non-emptiness, enumeration), page encode/decode and
// the Done frame. Every call is wrapped in a span (name, start, end,
// parent, request id); spans stay in memory until the run ends. A layer's
// self time is its spans' time minus the time of their child spans.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "slpspan/slpspan.h"
#include "wire.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: "<layer>.<what>" or "request"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  uint64_t request = 0;
};

class Tracer {
 public:
  /// Touches the span buffer up front: a page fault inside a request would
  /// be charged to it as uncovered time.
  Tracer() {
    spans_.resize(size_t{1} << 18);
    spans_.clear();
  }

  size_t Begin(const char* name, uint64_t request);
  void End(size_t span);
  /// Ends `span` and opens a sibling named `name` at the same instant, so
  /// consecutive layer spans of one request leave no uncovered gap.
  size_t Next(size_t span, const char* name);
  /// Opens a root span and its first child at one instant; returns the
  /// child. Close(child) ends the child and the root at one instant. The
  /// request span thus starts with its first layer and ends with its last.
  size_t Open(const char* root, uint64_t request, const char* first);
  void Close(size_t last_child);
  void Rename(size_t span, const char* name) { spans_[span].name = name; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one tab-separated line per span: request, index, parent, name,
  /// start_ns, end_ns.
  bool Write(const std::string& path) const;

  struct Summary {
    std::map<std::string, double> self_ns;  ///< per layer
    double request_ns = 0;     ///< sum of root ("request") spans
    double min_coverage = 1;   ///< worst per-request child coverage
    double mean_coverage = 1;
    uint64_t requests = 0;
    std::string top_layer;     ///< largest self time
  };
  /// Layer of a span: the name up to its first '.'; the self time of a
  /// root "request" span is charged to "harness" (the replay's own glue).
  Summary Summarize() const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Raw per-layer samples collected by the replay or the layer probe.
struct LayerSamples {
  std::vector<double> compile_us, load_us, decode_us, build_us;
  std::vector<double> tables_us, warm_us, loaded_us, nonempty_us;
  std::vector<double> first_tuple_us, delay_ns, delay_per_depth_ns;
  std::map<std::string, std::vector<double>> delay_ns_by_doc;
  std::vector<double> page_encode_us, page_decode_us;
  std::vector<double> encode_us, bundle_bytes;
  std::vector<double> request_us_by_op[3];  ///< replay totals per WireOp
  std::vector<double> states;
  uint64_t ram = 0, disk = 0, build = 0;
  uint64_t products = 0, distinct_products = 0, memo_hits = 0, waves = 0;
};

/// The replay's own documents and queries: loaded and compiled on first
/// use, as the server's lookup maps do.
class Replayer {
 public:
  Replayer(const Inputs& in, std::string docs_dir, Tracer* tracer,
           LayerSamples* samples);

  /// Replays one wire request (frame codec, lookup, cache, evaluation,
  /// pages, Done). Returns false when a layer call failed.
  bool Request(const WireRequest& r, uint64_t id);

  /// Replays the per-document work of one corpus evaluation: grammar load,
  /// prepared state under the run's shared memo, count.
  bool CorpusDocument(const std::string& file, const slpspan::Query& query,
                      uint64_t id);

  /// Unit costs of every layer on a fixed sample of pairs, measured the
  /// same way; covers layers the workload's own schedule leaves idle and
  /// the spill write path (SavePrepared + bundle size, then LoadPrepared).
  bool Probe(const std::vector<std::pair<uint32_t, uint32_t>>& sample,
             const std::string& scratch_dir);

  /// Points later spans and samples elsewhere (e.g. an untraced warm-up
  /// that must share this replayer's documents and cache entries).
  void Retarget(Tracer* tracer, LayerSamples* samples) {
    tracer_ = tracer;
    samples_ = samples;
  }

  slpspan::Result<slpspan::DocumentPtr> Doc(uint32_t doc);
  slpspan::Result<slpspan::Query> Pattern(uint32_t pattern);

 private:
  /// Opens the cache span after `span`: a PreparedFor lookup, renamed by
  /// its outcome (cache.ram, storage.decode or prepare.build). The count
  /// that follows is named after it: count.warm on a resident state,
  /// count.loaded after a bundle decode, count.tables after a fresh build
  /// (which pays the lazy counting tables).
  size_t Prepare(size_t span, const slpspan::DocumentPtr& doc,
                 const slpspan::Query& q, const char** count_span, bool* ok);
  /// Opens the enumerate span after `span`; page encodes are its children.
  size_t Extract(size_t span, const slpspan::Engine& engine, uint64_t limit,
                 uint64_t id, std::vector<std::string>* frames);
  /// Turns the spans of the finished request rooted at `root` into
  /// samples, after its last span closed (no bookkeeping inside spans).
  void Collect(size_t root, uint32_t doc_index);

  const Inputs& in_;
  const std::string docs_dir_;
  Tracer* tracer_;
  LayerSamples* samples_;
  std::map<uint32_t, slpspan::DocumentPtr> docs_;
  std::map<uint32_t, slpspan::Query> queries_;
  std::map<uint32_t, uint32_t> depth_;  // depth(S) per loaded document
  // Facts of the request in flight that spans cannot carry.
  slpspan::PrepareStats build_stats_;
  uint64_t first_tuple_ns_ = 0;
  uint64_t tuples_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
