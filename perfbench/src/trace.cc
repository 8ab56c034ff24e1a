// Span recorder and traced replay — see trace.h.

#include "trace.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "corpus/query_context.h"
#include "net/frame.h"

namespace perfbench {

using slpspan::DocumentPtr;
using slpspan::Engine;
using slpspan::Query;
using slpspan::Result;
using slpspan::SpanTuple;
namespace net = slpspan::net;

size_t Tracer::Begin(const char* name, uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  if (request == 0 && s.parent >= 0) s.request = spans_[open_.back()].request;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void Tracer::End(size_t span) {
  spans_[span].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "request\tspan\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.request << '\t' << i << '\t' << s.parent << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

Tracer::Summary Tracer::Summarize() const {
  std::vector<double> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  Summary out;
  double coverage_sum = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const std::string name = s.name;
    const bool root = s.parent < 0;
    const std::string layer =
        root ? "harness" : name.substr(0, name.find('.'));
    out.self_ns[layer] += dur - child_ns[i];
    if (root) {
      out.request_ns += dur;
      const double coverage = dur > 0 ? child_ns[i] / dur : 1.0;
      out.min_coverage = std::min(out.min_coverage, coverage);
      coverage_sum += coverage;
      ++out.requests;
    }
  }
  if (out.requests > 0) {
    out.mean_coverage = coverage_sum / static_cast<double>(out.requests);
  }
  double best = -1;
  for (const auto& [layer, ns] : out.self_ns) {
    if (layer != "harness" && ns > best) {
      best = ns;
      out.top_layer = layer;
    }
  }
  return out;
}

size_t Tracer::Next(size_t span, const char* name) {
  const uint64_t t = NowNs();
  spans_[span].end_ns = t;
  if (!open_.empty() && open_.back() == span) open_.pop_back();
  Span s;
  s.name = name;
  s.request = spans_[span].request;
  s.parent = spans_[span].parent;
  s.start_ns = t;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

size_t Tracer::Open(const char* root, uint64_t request, const char* first) {
  const size_t r = Begin(root, request);
  const size_t c = Begin(first, request);
  spans_[r].start_ns = spans_[c].start_ns;
  return c;
}

void Tracer::Close(size_t last_child) {
  const size_t root = static_cast<size_t>(spans_[last_child].parent);
  End(last_child);
  End(root);
  spans_[root].end_ns = spans_[last_child].end_ns;
}

namespace {

double Us(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
}

const uint8_t* Payload(const std::string& frame) {
  return reinterpret_cast<const uint8_t*>(frame.data()) +
         net::kFrameHeaderBytes;
}

size_t PayloadSize(const std::string& frame) {
  return frame.size() - net::kFrameHeaderBytes;
}

}  // namespace

Replayer::Replayer(const Inputs& in, std::string docs_dir, Tracer* tracer,
                   LayerSamples* samples)
    : in_(in),
      docs_dir_(std::move(docs_dir)),
      tracer_(tracer),
      samples_(samples) {}

Result<DocumentPtr> Replayer::Doc(uint32_t doc) {
  auto it = docs_.find(doc);
  if (it != docs_.end()) return it->second;
  const size_t s = tracer_->Begin("slp.load", 0);
  Result<DocumentPtr> loaded = slpspan::Document::FromSlpFile(
      docs_dir_ + "/" + in_.DocName(doc) + ".slp");
  tracer_->End(s);
  if (loaded.ok()) docs_.emplace(doc, loaded.value());
  return loaded;
}

Result<Query> Replayer::Pattern(uint32_t pattern) {
  auto it = queries_.find(pattern);
  if (it != queries_.end()) return it->second;
  const size_t s = tracer_->Begin("spanner.compile", 0);
  Result<Query> q = Query::Compile(in_.PatternText(pattern), QueryAlphabet());
  tracer_->End(s);
  if (q.ok()) {
    samples_->states.push_back(q.value().num_states());
    queries_.emplace(pattern, q.value());
  }
  return q;
}

size_t Replayer::Prepare(size_t span, const DocumentPtr& doc, const Query& q,
                         const char** count_span, bool* ok) {
  const size_t s = tracer_->Next(span, "cache.lookup");
  const uint64_t misses = doc->cache_stats().misses;
  slpspan::PrepareStats ps;
  *ok = doc->PreparedFor(q, &ps) != nullptr && *ok;
  if (doc->cache_stats().misses == misses) {
    tracer_->Rename(s, "cache.ram");
    *count_span = "count.warm";
  } else if (ps.waves == 0) {
    tracer_->Rename(s, "storage.decode");
    *count_span = "count.loaded";
  } else {
    tracer_->Rename(s, "prepare.build");
    build_stats_ = ps;
    *count_span = "count.tables";
  }
  return s;
}

size_t Replayer::Extract(size_t span, const Engine& engine, uint64_t limit,
                         uint64_t id, std::vector<std::string>* frames) {
  constexpr size_t kPageTuples = 256;  // ServerOptions::page_tuples default
  std::vector<SpanTuple> page;
  page.reserve(kPageTuples);
  const auto flush = [&] {
    const size_t e = tracer_->Begin("net.page_encode", id);
    std::string frame;
    net::AppendPage(id, page, &frame);
    tracer_->End(e);
    frames->push_back(std::move(frame));
    page.clear();
  };
  const size_t s = tracer_->Next(span, "enumerate.extract");
  tuples_ = 0;
  engine.Extract(
      [&](const SpanTuple& t) {
        if (tuples_++ == 0) first_tuple_ns_ = NowNs();
        page.push_back(t);
        if (page.size() == kPageTuples) flush();
        return true;
      },
      slpspan::ExtractOptions{.limit = limit});
  if (!page.empty()) flush();
  return s;
}

void Replayer::Collect(size_t root, uint32_t doc_index) {
  const std::vector<Span>& spans = tracer_->spans();
  LayerSamples& out = *samples_;
  for (size_t i = root + 1; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view name = s.name;
    const double us = Us(s);
    if (name == "slp.load") {
      out.load_us.push_back(us);
    } else if (name == "spanner.compile") {
      out.compile_us.push_back(us);
    } else if (name == "cache.ram") {
      ++out.ram;
    } else if (name == "storage.decode" || name == "storage.load_prepared") {
      out.decode_us.push_back(us);
      if (name == "storage.decode") ++out.disk;
    } else if (name == "storage.save_prepared") {
      out.encode_us.push_back(us);
    } else if (name == "prepare.build") {
      out.build_us.push_back(us);
      ++out.build;
      out.products += build_stats_.products;
      out.distinct_products += build_stats_.distinct_products;
      out.memo_hits += build_stats_.memo_hits;
      out.waves += build_stats_.waves;
    } else if (name == "count.tables") {
      out.tables_us.push_back(us);
    } else if (name == "count.warm") {
      out.warm_us.push_back(us);
    } else if (name == "count.loaded") {
      out.loaded_us.push_back(us);
    } else if (name == "nonempty.eval") {
      out.nonempty_us.push_back(us);
    } else if (name == "net.page_encode") {
      out.page_encode_us.push_back(us);
    } else if (name == "net.page_decode") {
      out.page_decode_us.push_back(us);
    } else if (name == "enumerate.extract" && tuples_ > 0) {
      // Time to the first tuple, then per-tuple delay net of page encodes.
      double encode_ns = 0;
      for (size_t c = i + 1; c < spans.size() && spans[c].parent ==
                                                     static_cast<int64_t>(i);
           ++c) {
        encode_ns += static_cast<double>(spans[c].end_ns - spans[c].start_ns);
      }
      out.first_tuple_us.push_back(
          static_cast<double>(first_tuple_ns_ - s.start_ns) * 1e-3);
      if (tuples_ > 1) {
        const double delay =
            (static_cast<double>(s.end_ns - first_tuple_ns_) - encode_ns) /
            static_cast<double>(tuples_ - 1);
        const uint32_t depth = depth_.at(doc_index);
        out.delay_ns.push_back(delay);
        out.delay_per_depth_ns.push_back(delay / std::max(1u, depth));
        out.delay_ns_by_doc[in_.DocName(doc_index) + " depth=" +
                            std::to_string(depth)]
            .push_back(delay);
      }
    }
  }
}

bool Replayer::Request(const WireRequest& r, uint64_t id) {
  size_t s = tracer_->Open("request", id, "net.request_frame");
  const size_t root = static_cast<size_t>(tracer_->spans()[s].parent);
  net::RequestFrame f;
  f.id = id;
  f.op = r.op;
  f.priority = r.priority;
  f.limit = r.limit;
  f.document = in_.DocName(r.doc);
  f.pattern = in_.PatternText(r.pattern);
  std::string wire;
  net::AppendRequest(f, &wire);
  bool ok = net::DecodeRequest(Payload(wire), PayloadSize(wire)).ok();

  s = tracer_->Next(s, "lookup.maps");
  Result<DocumentPtr> doc = Doc(r.doc);
  Result<Query> query = Pattern(r.pattern);
  if (!doc.ok() || !query.ok()) {
    tracer_->Close(s);
    return false;
  }
  const Engine engine(query.value(), doc.value());

  net::DoneFrame done;
  done.id = id;
  std::vector<std::string> frames;
  switch (r.op) {
    case net::WireOp::kCheck:
      s = tracer_->Next(s, "nonempty.eval");
      done.nonempty = engine.IsNonEmpty();
      break;
    case net::WireOp::kCount: {
      const char* count_span = nullptr;
      s = Prepare(s, doc.value(), query.value(), &count_span, &ok);
      s = tracer_->Next(s, count_span);
      Result<slpspan::CountInfo> c = engine.Count();
      ok = ok && c.ok();
      if (c.ok()) done.count_value = c.value().value;
      break;
    }
    case net::WireOp::kExtract: {
      const char* count_span = nullptr;
      s = Prepare(s, doc.value(), query.value(), &count_span, &ok);
      s = Extract(s, engine, r.limit, id, &frames);
      for (const std::string& frame : frames) {
        s = tracer_->Next(s, "net.page_decode");
        ok = net::DecodePage(Payload(frame), PayloadSize(frame)).ok() && ok;
      }
      done.tuples_streamed = tuples_;
      break;
    }
  }
  s = tracer_->Next(s, "net.done_frame");
  wire.clear();
  net::AppendDone(done, &wire);
  ok = net::DecodeDone(Payload(wire), PayloadSize(wire)).ok() && ok;
  tracer_->Close(s);

  if (!depth_.count(r.doc)) depth_[r.doc] = doc.value()->stats().depth;
  Collect(root, r.doc);
  samples_->request_us_by_op[static_cast<size_t>(r.op)].push_back(
      Us(tracer_->spans()[root]));
  return ok;
}

bool Replayer::CorpusDocument(const std::string& file, const Query& query,
                              uint64_t id) {
  size_t s = tracer_->Open("request", id, "slp.load");
  const size_t root = static_cast<size_t>(tracer_->spans()[s].parent);
  Result<DocumentPtr> doc =
      slpspan::Document::FromSlpFile(docs_dir_ + "/" + file);
  bool ok = doc.ok();
  if (ok) {
    const char* count_span = nullptr;
    s = Prepare(s, doc.value(), query, &count_span, &ok);
    s = tracer_->Next(s, count_span);
    ok = Engine(query, doc.value()).Count().ok() && ok;
  }
  tracer_->Close(s);
  Collect(root, UINT32_MAX);
  samples_->request_us_by_op[static_cast<size_t>(net::WireOp::kCount)]
      .push_back(Us(tracer_->spans()[root]));
  return ok;
}

bool Replayer::Probe(const std::vector<std::pair<uint32_t, uint32_t>>& sample,
                     const std::string& scratch_dir) {
  bool ok = true;
  uint64_t id = 1;
  const std::string bundle = scratch_dir + "/probe.prep";
  for (const auto& [d, p] : sample) {
    // Fresh handles every time, so the cache starts cold for this pair.
    docs_.clear();
    queries_.clear();
    const size_t root = tracer_->Begin("probe", id);
    size_t s = tracer_->Begin("lookup.maps", id);
    Result<DocumentPtr> doc = Doc(d);
    Result<Query> query = Pattern(p);
    if (!doc.ok() || !query.ok()) {
      tracer_->End(s);
      tracer_->End(root);
      return false;
    }
    depth_[d] = doc.value()->stats().depth;
    const Engine engine(query.value(), doc.value());
    const char* count_span = nullptr;
    s = Prepare(s, doc.value(), query.value(), &count_span, &ok);
    s = tracer_->Next(s, count_span);
    ok = engine.Count().ok() && ok;
    s = tracer_->Next(s, "count.warm");
    ok = engine.Count().ok() && ok;
    s = tracer_->Next(s, "nonempty.eval");
    (void)engine.IsNonEmpty();
    std::vector<std::string> frames;
    s = Extract(s, engine, 512, id, &frames);
    for (const std::string& frame : frames) {
      s = tracer_->Next(s, "net.page_decode");
      ok = net::DecodePage(Payload(frame), PayloadSize(frame)).ok() && ok;
    }
    // The spill write path: serialize the prepared state as a bundle.
    s = tracer_->Next(s, "storage.save_prepared");
    ok = doc.value()->SavePrepared(query.value(), bundle).ok() && ok;
    tracer_->End(s);
    std::error_code ec;
    samples_->bundle_bytes.push_back(
        static_cast<double>(std::filesystem::file_size(bundle, ec)));
    // The read path: a fresh handle imports the bundle.
    Result<DocumentPtr> fresh = slpspan::Document::FromSlpFile(
        docs_dir_ + "/" + in_.DocName(d) + ".slp");
    if (!fresh.ok()) return false;
    s = tracer_->Begin("storage.load_prepared", id);
    ok = fresh.value()->LoadPrepared(query.value(), bundle).ok() && ok;
    s = tracer_->Next(s, "count.loaded");
    ok = Engine(query.value(), fresh.value()).Count().ok() && ok;
    tracer_->End(s);
    tracer_->End(root);
    Collect(root, d);
    std::filesystem::remove(bundle, ec);
    ++id;
  }
  return ok;
}

}  // namespace perfbench
