// perfbench — the layered end-to-end benchmark of slpspan.
//
//   perfbench --workload warm_stream|spill_churn|corpus_scan --seed N
//             --seconds S --trace 0|1 --work DIR [--rate R] [--smoke]
//             [--trace-out FILE] [--commit ID]
//
// One process runs one workload, because the prepared-state cache, the
// spill tier and the shared-memo registry are process-wide. The wire
// workloads drive a real slpspan::Server (2 Session workers plus its event
// loop) over loopback TCP from one client thread with 4 connections: an
// open-loop latency phase at the fixed rate R (60% of --seconds), then a
// closed-loop capacity phase. corpus_scan runs Corpus::Eval(kCount) back to
// back in-process.
// Every answer is checked against a direct Engine outside the timed phase.
//
// With --trace 1 the run then replays the same seeded schedule serially
// through each layer's public entry points (trace.h), writes the spans to
// --trace-out and reports per-layer metrics.
//
// Output: a human summary on stderr; on stdout a "REPORT {...}" line with
// every detail (metadata, input hash, sample counts, per-op percentiles),
// then, as the last line, {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <tuple>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/kernels/kernels.h"
#include "corpus/query_context.h"
#include "inputs.h"
#include "slpspan/server.h"
#include "slpspan/slpspan.h"
#include "trace.h"
#include "wire.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using slpspan::Corpus;
using slpspan::DocumentPtr;
using slpspan::Engine;
using slpspan::Query;
using slpspan::Result;
using slpspan::Runtime;
using slpspan::net::WireOp;

constexpr uint32_t kServerThreads = 2;
constexpr uint32_t kConnections = 4;
constexpr int kSetupRepeats = 3;
constexpr double kWindowSeconds = 2.0;  // open-loop percentile windows
constexpr size_t kClosedBlocks = 8;     // closed-loop throughput blocks
constexpr const char* kOpNames[] = {"check", "count", "extract"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  double rate = 0;  // open-loop requests per second (wire workloads)
  std::string work;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(1);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--rate") {
      o.rate = std::atof(v.c_str());
    } else if (a == "--work") {
      o.work = v;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (o.work.empty()) Usage("--work is required");
  if (o.seconds <= 0) Usage("--seconds must be positive");
  return o;
}

// ------------------------------------------------------------- host info --

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Share of all CPU time the hypervisor stole, from /proc/stat, since the
/// snapshot `*prev` (updated) — host noise the benchmark cannot remove,
/// reported so a reader can discount a run taken on a busy host.
double StealShare(std::vector<double>* prev) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::vector<double> now;
  in >> cpu;
  for (double v; now.size() < 8 && in >> v;) now.push_back(v);
  double total = 0, steal = 0;
  if (prev->size() == now.size() && now.size() == 8) {
    for (size_t i = 0; i < 8; ++i) total += now[i] - (*prev)[i];
    steal = now[7] - (*prev)[7];
  }
  *prev = now;
  return total > 0 ? steal / total : 0;
}

double RssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

/// Samples VmRSS every 50 ms on its own thread while alive; the median of
/// the samples is the footprint of the timed phase.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the median sample in MiB.
  double Stop() {
    if (thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      thread_.join();
      samples_.push_back(RssMiB());
    }
    return Median(samples_);
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return stop_; })) {
      samples_.push_back(RssMiB());
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> samples_;  // written by the thread until joined
  std::thread thread_;
};

std::string Metadata(const Options& o, uint64_t input_hash) {
  const char* env_kernel = std::getenv("SLPSPAN_KERNEL");
  Json j;
  j.Str("workload", o.workload)
      .Int("seed", o.seed)
      .Str("input_hash", [&] {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(input_hash));
        return std::string(buf);
      }())
      .Num("seconds", o.seconds)
      .Bool("smoke", o.smoke)
      .Str("cpu", CpuModel())
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("kernel", slpspan::kernels::ActiveKernel().name)
      .Str("kernel_env", env_kernel != nullptr ? env_kernel : "")
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("commit", o.commit);
  return j.str();
}

// ----------------------------------------------------------- result sink --

/// Collects metrics, sample counts and details, then prints the report.
struct Report {
  Metrics e2e;
  Metrics layer;
  Json detail;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors + wrong answers + never completed
  std::vector<std::string> notes;

  void Print(const Options& o, const std::string& meta) const {
    const auto metrics_json = [](const Metrics& m) {
      Json j;
      for (const auto& [name, metric] : m) {
        Json v;
        v.Num("value", metric.value).Str("unit", metric.unit);
        j.Raw(name, v.str());
      }
      return j.str();
    };
    for (const auto& [name, m] : e2e) {
      std::fprintf(stderr, "  %-36s %14.6g %s\n", name.c_str(), m.value,
                   m.unit.c_str());
    }
    for (const auto& [name, m] : layer) {
      std::fprintf(stderr, "  %-36s %14.6g %s\n", name.c_str(), m.value,
                   m.unit.c_str());
    }
    for (const std::string& n : notes) std::fprintf(stderr, "  %s\n", n.c_str());
    Json report;
    report.Raw("meta", meta)
        .Raw("end_to_end", metrics_json(e2e))
        .Raw("per_layer", metrics_json(layer))
        .Raw("detail", detail.str());
    std::printf("REPORT %s\n", report.str().c_str());
    Json result;
    result.Bool("correct", failed == 0)
        .Int("attempted", std::max<uint64_t>(attempted, 1))
        .Int("failed", failed)
        .Raw("metrics", metrics_json(o.trace ? layer : e2e));
    std::printf("%s\n", result.str().c_str());
    std::fflush(stdout);
  }
};

/// Latency percentiles of one request class, with sample counts.
void PutLatency(Json* d, const std::string& name, std::vector<double> ms) {
  double tail_p = 0;
  const size_t n = ms.size();
  const double p50 = Percentile(ms, 0.5);
  const double tail = TailPercentile(ms, &tail_p);
  Json j;
  j.Num("p50_ms", p50)
      .Num("tail_ms", tail)
      .Num("tail_percentile", tail_p * 100)
      .Int("samples", n)
      .Int("samples_beyond_tail",
           static_cast<uint64_t>(static_cast<double>(n) * (1 - tail_p)));
  if (n >= 1000) j.Num("p99_ms", Percentile(ms, 0.99));
  d->Raw(name, j.str());
}

// ------------------------------------------------------------------ setup --

/// Writes every document as "<name>.slp" under `dir`; returns the summed
/// compression time.
double WriteDocuments(const Inputs& in, const std::string& dir) {
  fs::create_directories(dir);
  double compress_s = 0;
  for (const DocInput& d : in.docs) {
    const uint64_t t = NowNs();
    Result<DocumentPtr> doc = slpspan::Document::FromText(d.text, d.method);
    compress_s += SecondsSince(t);
    if (!doc.ok() || !doc.value()->Save(dir + "/" + d.name + ".slp").ok()) {
      Die("cannot write " + d.name);
    }
  }
  return compress_s;
}

/// spill_churn set-up: prepares every P0 pair in-process, one document at a
/// time, writes each to the spill tier and drops it from RAM; returns the
/// resident bytes the whole set would take.
uint64_t PrewarmSpill(const Inputs& in, const std::string& docs_dir) {
  std::vector<Query> queries;
  for (const std::string& p : in.base_patterns) {
    Result<Query> q = Query::Compile(p, QueryAlphabet());
    if (!q.ok()) Die("pattern does not compile: " + p);
    queries.push_back(q.value());
  }
  uint64_t bytes = 0;
  for (const DocInput& d : in.docs) {
    Result<DocumentPtr> loaded =
        slpspan::Document::FromSlpFile(docs_dir + "/" + d.name + ".slp");
    if (!loaded.ok()) Die("cannot load " + d.name);
    const DocumentPtr doc = loaded.value();
    const uint64_t before = Runtime::cache_stats().bytes;
    for (const Query& q : queries) {
      if (!Engine(q, doc).Count().ok()) Die("pre-warm count failed");
    }
    bytes += Runtime::cache_stats().bytes - before;
    Runtime::SpillResident();
    Runtime::FlushSpill();
  }  // each document's entries leave RAM (not disk) with its handle
  return bytes;
}

struct WireWorld {
  std::string dir, docs_dir, spill_dir;
  std::unique_ptr<slpspan::Server> server;
  WireClient client;
  uint64_t ram_budget = 0;  // spill_churn
  double compress_s = 0;
};

WireNames NamesFor(const Inputs& in) {
  return WireNames{[&in](uint32_t d) { return in.DocName(d); },
                   [&in](uint32_t p) { return in.PatternText(p); }};
}

/// One complete wire set-up: inputs on disk, (spill tier pre-warmed,)
/// server started, clients connected, (pairs pre-warmed over the wire).
std::unique_ptr<WireWorld> SetupWire(const Inputs& in, const std::string& dir) {
  auto w = std::make_unique<WireWorld>();
  w->dir = dir;
  w->docs_dir = dir + "/docs";
  w->compress_s = WriteDocuments(in, w->docs_dir);
  Runtime::SetCacheByteBudget(slpspan::RuntimeOptions{}.cache_bytes);
  if (in.kind == Kind::kSpillChurn) {
    w->spill_dir = dir + "/spill";
    if (!Runtime::ConfigureSpill({.directory = w->spill_dir}).ok()) {
      Die("cannot open spill directory " + w->spill_dir);
    }
    w->ram_budget = PrewarmSpill(in, w->docs_dir) / 4;
    Runtime::SetCacheByteBudget(w->ram_budget);
  }
  slpspan::ServerOptions so;
  so.threads = kServerThreads;
  so.document_root = w->docs_dir;
  w->server = std::make_unique<slpspan::Server>(so);
  if (!w->server->Start().ok() ||
      !w->client.Connect(w->server->port(), kConnections)) {
    Die("server start failed");
  }
  if (in.kind == Kind::kWarmStream) {
    std::vector<WireRequest> warm;
    for (const auto& [d, p] : in.pairs) {
      warm.push_back(WireRequest{WireOp::kCount, 0, d, p});
    }
    const WirePhase phase = w->client.RunSerial(NamesFor(in), warm);
    for (const WireResult& r : phase.results) {
      if (!r.done || r.code != 0) Die("pre-warm request failed");
    }
  }
  return w;
}

// ----------------------------------------------------------- verification --

/// Direct-Engine answers, computed once per distinct (pair, op) with fresh
/// handles, on all cores once the timed phases are over.
class Oracle {
 public:
  struct Answer {
    bool nonempty = false;
    uint64_t count = 0;
    std::vector<slpspan::SpanTuple> first;  // first page-size tuples
  };

  Oracle(const Inputs& in, const std::string& docs_dir,
         const std::vector<const WirePhase*>& phases) {
    std::set<Key> keys;
    for (const WirePhase* phase : phases) {
      for (const WireRequest& r : phase->requests) {
        keys.emplace(r.doc, r.pattern, static_cast<int>(r.op));
      }
    }
    std::map<uint32_t, DocumentPtr> docs;
    for (const Key& k : keys) {
      const uint32_t d = std::get<0>(k);
      if (docs.count(d)) continue;
      Result<DocumentPtr> doc = slpspan::Document::FromSlpFile(
          docs_dir + "/" + in.DocName(d) + ".slp");
      if (doc.ok()) docs.emplace(d, doc.value());
    }
    const std::vector<Key> todo(keys.begin(), keys.end());
    std::vector<std::optional<Answer>> out(todo.size());
    std::atomic<size_t> next{0};
    const auto work = [&] {
      for (size_t i; (i = next.fetch_add(1)) < todo.size();) {
        const auto [d, p, op] = todo[i];
        Result<Query> q = Query::Compile(in.PatternText(p), QueryAlphabet());
        if (!q.ok() || !docs.count(d)) continue;
        const Engine engine(q.value(), docs.at(d));
        Answer a;
        if (static_cast<WireOp>(op) == WireOp::kCheck) {
          a.nonempty = engine.IsNonEmpty();
        } else {
          Result<slpspan::CountInfo> c = engine.Count();
          if (!c.ok()) continue;
          a.count = c.value().value;
          if (static_cast<WireOp>(op) == WireOp::kExtract) {
            a.first = engine.ExtractAll({.limit = 256});
          }
        }
        out[i] = std::move(a);
      }
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kVerifyThreads; ++t) threads.emplace_back(work);
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < todo.size(); ++i) {
      if (out[i]) answers_.emplace(todo[i], std::move(*out[i]));
    }
  }

  /// The reference answer, or nullptr when the direct Engine failed too.
  const Answer* Get(uint32_t doc, uint32_t pattern, WireOp op) const {
    auto it = answers_.find(Key(doc, pattern, static_cast<int>(op)));
    return it == answers_.end() ? nullptr : &it->second;
  }

 private:
  using Key = std::tuple<uint32_t, uint32_t, int>;
  static constexpr unsigned kVerifyThreads = 4;
  std::map<Key, Answer> answers_;
};

/// Counts failed or wrong wire answers of `phase`.
uint64_t VerifyPhase(const WirePhase& phase, const Oracle& oracle) {
  uint64_t bad = phase.wire_errors;
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const WireRequest& q = phase.requests[i];
    const WireResult& r = phase.results[i];
    if (!r.done || r.code != 0) {
      ++bad;
      continue;
    }
    const Oracle::Answer* a = oracle.Get(q.doc, q.pattern, q.op);
    if (a == nullptr) {
      ++bad;
      continue;
    }
    bool ok = true;
    switch (q.op) {
      case WireOp::kCheck:
        ok = r.nonempty == a->nonempty;
        break;
      case WireOp::kCount:
        ok = r.count == a->count;
        break;
      case WireOp::kExtract: {
        const uint64_t want = std::min(q.limit, a->count);
        ok = r.tuples_streamed == want && r.tuples_received == want &&
             r.first_page.size() <= a->first.size() &&
             std::equal(r.first_page.begin(), r.first_page.end(),
                        a->first.begin()) &&
             r.first_page.size() == std::min<uint64_t>(want, 256);
        break;
      }
    }
    if (!ok) ++bad;
  }
  return bad;
}

// --------------------------------------------------------- per-layer view --

const std::vector<double>& Pick(const std::vector<double>& replay,
                                const std::vector<double>& probe) {
  return replay.empty() ? probe : replay;
}

double P(std::vector<double> v, double p) { return Percentile(v, p); }

void PutLayerSamples(const LayerSamples& r, const LayerSamples& probe,
                     Metrics* m) {
  auto put = [m](const std::string& name, double v, const char* unit) {
    (*m)[name] = Metric{v, unit};
  };
  put("net.page_encode_us", P(Pick(r.page_encode_us, probe.page_encode_us), .5),
      "us");
  put("net.page_decode_us", P(Pick(r.page_decode_us, probe.page_decode_us), .5),
      "us");
  const std::vector<double>& decode = Pick(r.decode_us, probe.decode_us);
  put("storage.decode_p50_us", P(decode, .5), "us");
  put("storage.decode_p99_us", P(decode, .99), "us");
  put("storage.encode_p50_us", P(probe.encode_us, .5), "us");
  put("storage.bundle_bytes_p50", P(probe.bundle_bytes, .5), "B");
  const std::vector<double>& build = Pick(r.build_us, probe.build_us);
  put("prepare.build_p50_us", P(build, .5), "us");
  put("prepare.build_p99_us", P(build, .99), "us");
  const LayerSamples& ps = r.build > 0 ? r : probe;
  put("prepare.products", static_cast<double>(ps.products), "count");
  put("prepare.distinct_products", static_cast<double>(ps.distinct_products),
      "count");
  put("prepare.memo_hit_rate",
      ps.products == 0 ? 0
                       : static_cast<double>(ps.memo_hits) /
                             static_cast<double>(ps.products),
      "fraction");
  put("prepare.waves", static_cast<double>(ps.waves), "count");
  put("count.tables_p50_us", P(Pick(r.tables_us, probe.tables_us), .5), "us");
  put("count.warm_us", P(Pick(r.warm_us, probe.warm_us), .5), "us");
  put("count.loaded_p50_us", P(Pick(r.loaded_us, probe.loaded_us), .5), "us");
  put("nonempty.eval_p50_us", P(Pick(r.nonempty_us, probe.nonempty_us), .5),
      "us");
  put("enumerate.first_tuple_us",
      P(Pick(r.first_tuple_us, probe.first_tuple_us), .5), "us");
  put("enumerate.delay_ns", P(Pick(r.delay_ns, probe.delay_ns), .5), "ns");
  put("enumerate.delay_ns_per_depth",
      P(Pick(r.delay_per_depth_ns, probe.delay_per_depth_ns), .5), "ns");
  put("spanner.compile_p50_us", P(Pick(r.compile_us, probe.compile_us), .5),
      "us");
  put("spanner.compiles", static_cast<double>(r.compile_us.size()), "count");
  put("spanner.states", P(Pick(r.states, probe.states), .5), "count");
  put("slp.load_p50_us", P(Pick(r.load_us, probe.load_us), .5), "us");
  const double lookups = static_cast<double>(r.ram + r.disk + r.build);
  put("cache.ram_hit_rate", lookups > 0 ? r.ram / lookups : 0, "fraction");
  put("cache.disk_hit_rate", lookups > 0 ? r.disk / lookups : 0, "fraction");
  put("cache.build_rate", lookups > 0 ? r.build / lookups : 0, "fraction");
}

void PutTraceSummary(const Tracer::Summary& s, Metrics* m, Json* d,
                     std::vector<std::string>* notes) {
  const char* layers[] = {"net",     "lookup",   "cache",     "storage",
                          "prepare", "count",    "nonempty",  "enumerate",
                          "spanner", "slp"};
  Json self;
  for (const char* layer : layers) {
    auto it = s.self_ns.find(layer);
    const double ns = it == s.self_ns.end() ? 0 : it->second;
    (*m)[std::string("self_share.") + layer] =
        Metric{s.request_ns > 0 ? ns / s.request_ns : 0, "fraction"};
    self.Num(layer, ns * 1e-3);
  }
  (*m)["trace.coverage_min"] = Metric{s.min_coverage, "fraction"};
  (*m)["trace.requests"] = Metric{static_cast<double>(s.requests), "count"};
  d->Raw("self_us_by_layer", self.str())
      .Num("trace_coverage_mean", s.mean_coverage)
      .Str("top_layer", s.top_layer);
  notes->push_back("largest self time: " + s.top_layer);
}

// ------------------------------------------------------------- workloads --

uint64_t HashOf(const Inputs& in, const std::vector<WireRequest>& schedule) {
  InputHash h;
  HashInputs(in, schedule, &h);
  return h.value();
}

int RunWire(const Options& o, Kind kind) {
  const Inputs in = MakeInputs(kind, o.seed, o.smoke);
  const WireNames names = NamesFor(in);
  const double closed_s = o.seconds * 0.4;
  const double open_s = o.seconds - closed_s;
  std::vector<WireRequest> schedule = OpenSchedule(in, o.seed, o.rate, open_s);
  // The closed loop's request stream is a prefix of this generator; hash a
  // fixed-length prefix so both phases are covered.
  std::vector<WireRequest> closed_prefix;
  {
    RequestGen gen(in, o.seed, 0);
    for (int i = 0; i < 4096; ++i) closed_prefix.push_back(gen.Next());
  }
  closed_prefix.insert(closed_prefix.end(), schedule.begin(), schedule.end());
  const uint64_t input_hash = HashOf(in, closed_prefix);

  // Set-up, several times; the last world is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<WireWorld> world;
  const int repeats = o.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < repeats; ++k) {
    if (world != nullptr) {
      world.reset();
      fs::remove_all(o.work + "/setup" + std::to_string(k - 1));
    }
    const uint64_t t = NowNs();
    world = SetupWire(in, o.work + "/setup" + std::to_string(k));
    setup_s.push_back(SecondsSince(t));
  }
  std::string snapshot;
  if (o.trace && kind == Kind::kSpillChurn) {
    // The replay restarts from this exact spill state.
    Runtime::FlushSpill();
    snapshot = o.work + "/spill_snapshot";
    fs::copy(world->spill_dir, snapshot, fs::copy_options::recursive);
  }

  Report rep;
  // ---- timed phases -------------------------------------------------------
  // Open loop first: its work is fixed by the schedule, so the footprint and
  // the cache mix it leaves do not depend on how fast the host ran, and the
  // replay can restart from exactly the state it started from.
  std::vector<double> cpu_ticks;
  (void)StealShare(&cpu_ticks);
  RssSampler rss_sampler;
  const Runtime::CacheStats c0 = Runtime::cache_stats();
  const WirePhase open = world->client.RunOpen(names, schedule);
  const Runtime::CacheStats c1 = Runtime::cache_stats();
  const double rss = rss_sampler.Stop();
  RequestGen gen(in, o.seed, 0);
  const WirePhase closed =
      world->client.RunClosed(names, [&] { return gen.Next(); }, closed_s);
  const double steal = StealShare(&cpu_ticks);
  Runtime::FlushSpill();
  const Runtime::CacheStats cend = Runtime::cache_stats();
  const slpspan::Server::Stats sstats = world->server->stats();

  // ---- verification (outside the timed phases) ----------------------------
  Runtime::ConfigureSpill({}).ok();
  const uint64_t verify_start = NowNs();
  const Oracle oracle(in, world->docs_dir, {&closed, &open});
  const uint64_t bad = VerifyPhase(closed, oracle) + VerifyPhase(open, oracle);
  rep.attempted = closed.requests.size() + open.requests.size();
  rep.failed = bad;

  // ---- end-to-end metrics -------------------------------------------------
  // Each end-to-end figure is the median over short windows of the phase,
  // so a burst of host noise in one window does not move it.
  const size_t open_windows =
      std::max<size_t>(1, static_cast<size_t>(open_s / kWindowSeconds));
  std::vector<std::vector<double>> win_all(open_windows);
  std::vector<std::vector<double>> win_interactive(open_windows);
  std::vector<double> all_ms;
  std::vector<double> interactive_ms;
  std::vector<double> by_op[3];
  std::vector<double> lag_ms;
  for (size_t i = 0; i < open.requests.size(); ++i) {
    const WireResult& r = open.results[i];
    // A failed request misses every latency limit.
    const double ms = r.done && r.code == 0 ? r.latency_ms : 1e300;
    const size_t w = std::min(
        open_windows - 1,
        static_cast<size_t>(static_cast<double>(open.requests[i].due_ns) *
                            1e-9 / kWindowSeconds));
    all_ms.push_back(ms);
    win_all[w].push_back(ms);
    if (open.requests[i].priority == 0) {
      interactive_ms.push_back(ms);
      win_interactive[w].push_back(ms);
    }
    by_op[static_cast<size_t>(open.requests[i].op)].push_back(ms);
    lag_ms.push_back(r.lag_ms);
  }
  std::vector<double> win_p50, win_p90;
  for (size_t w = 0; w < open_windows; ++w) {
    win_p50.push_back(P(win_interactive[w], 0.5));
    win_p90.push_back(P(win_all[w], 0.9));
  }
  // Closed-loop throughput of each of kClosedBlocks equal runs of
  // consecutive completions before the loop stopped sending.
  std::vector<double> done_s;
  uint64_t closed_tuples = 0;
  for (const WireResult& r : closed.results) {
    closed_tuples += r.tuples_received;
    if (r.done && r.code == 0 && r.done_s <= closed_s) done_s.push_back(r.done_s);
  }
  std::sort(done_s.begin(), done_s.end());
  std::vector<double> block_ops;
  const size_t per_block = done_s.size() / kClosedBlocks;
  double block_start = 0;
  for (size_t b = 0; per_block > 0 && b < kClosedBlocks; ++b) {
    const double block_end = done_s[(b + 1) * per_block - 1];
    block_ops.push_back(static_cast<double>(per_block) /
                        std::max(block_end - block_start, 1e-9));
    block_start = block_end;
  }
  rep.e2e["setup_s"] = Metric{Median(setup_s), "s"};
  rep.e2e["ops_per_s"] = Metric{Median(block_ops), "1/s"};
  rep.e2e["p50_ms"] = Metric{Median(win_p50), "ms"};
  rep.e2e["p90_ms"] = Metric{Median(win_p90), "ms"};
  rep.e2e["rss_mb"] = Metric{rss, "MiB"};

  Json& d = rep.detail;
  d.Num("cpu_steal_share", steal)
      .Num("open_loop_rate_per_s", o.rate)
      .Num("closed_loop_ops_per_s",
           static_cast<double>(closed.requests.size()) / closed.seconds)
      .Num("interactive_p50_ms_whole_phase", P(interactive_ms, 0.5))
      .Num("p90_ms_whole_phase", P(all_ms, 0.9))
      .Num("closed_loop_seconds", closed.seconds)
      .Num("open_loop_seconds", open.seconds)
      .Int("closed_loop_requests", closed.requests.size())
      .Int("open_loop_requests", open.requests.size())
      .Num("tuples_per_s", static_cast<double>(closed_tuples) / closed.seconds)
      .Num("error_rate", static_cast<double>(bad) /
                             static_cast<double>(std::max<uint64_t>(
                                 rep.attempted, 1)))
      .Raw("setup_s_runs", [&] {
        std::string s = "[";
        for (size_t i = 0; i < setup_s.size(); ++i) {
          s += (i ? ", " : "") + std::to_string(setup_s[i]);
        }
        return s + "]";
      }())
      .Num("compress_s", world->compress_s)
      .Num("verify_s", SecondsSince(verify_start));
  PutLatency(&d, "all", all_ms);
  PutLatency(&d, "interactive", interactive_ms);
  for (size_t op = 0; op < 3; ++op) {
    if (!by_op[op].empty()) PutLatency(&d, kOpNames[op], by_op[op]);
  }
  // Cache outcome mix of the open-loop phase, per request: every request
  // leaves RAM at most once (single-flight), so misses count disk + build.
  const double n_open = static_cast<double>(open.requests.size());
  const double wire_miss = static_cast<double>(c1.misses - c0.misses);
  const double wire_disk = static_cast<double>(c1.disk_hits - c0.disk_hits);
  const double wire_mix[3] = {(n_open - wire_miss) / n_open,
                              wire_disk / n_open,
                              (wire_miss - wire_disk) / n_open};
  d.Num("wire_ram_share", wire_mix[0])
      .Num("wire_disk_share", wire_mix[1])
      .Num("wire_build_share", wire_mix[2]);
  if (kind == Kind::kSpillChurn) {
    d.Num("stored_bytes_per_pair",
          cend.spill_entries == 0
              ? 0
              : static_cast<double>(cend.spill_bytes) /
                    static_cast<double>(cend.spill_entries))
        .Int("spill_entries", cend.spill_entries)
        .Int("ram_budget_bytes", world->ram_budget);
  }
  double lag_p = 0;
  const double lag_tail = TailPercentile(lag_ms, &lag_p);
  d.Num("loadgen_lag_tail_ms", lag_tail).Num("loadgen_lag_percentile", lag_p * 100);

  if (o.trace) {
    Metrics& m = rep.layer;
    m["loadgen.lag_p99_ms"] = Metric{P(lag_ms, 0.99), "ms"};
    m["net.bytes_per_tuple"] = Metric{
        sstats.tuples_sent == 0 ? 0
                                : static_cast<double>(sstats.bytes_out) /
                                      static_cast<double>(sstats.tuples_sent),
        "B"};
    m["net.backpressure_pauses"] =
        Metric{static_cast<double>(sstats.backpressure_pauses), "count"};
    uint64_t q_us = 0, q_n = 0;
    for (const auto& c : sstats.session.by_class) {
      q_us += c.queue_latency_micros;
      q_n += c.completed + c.cancelled + c.expired;
    }
    m["session.queue_mean_us"] =
        Metric{q_n == 0 ? 0 : static_cast<double>(q_us) / q_n, "us"};
    Json classes;
    for (size_t c = 0; c < slpspan::kNumPriorityClasses; ++c) {
      const auto& cs = sstats.session.by_class[c];
      Json j;
      j.Int("completed", cs.completed)
          .Int("queue_p50_us", cs.queue_latency_p50_micros)
          .Int("queue_p99_us", cs.queue_latency_p99_micros);
      classes.Raw(std::to_string(c), j.str());
    }
    d.Raw("session_by_class", classes.str());
    m["cache.evictions"] = Metric{static_cast<double>(cend.evictions), "count"};
    m["cache.admission_rejects"] =
        Metric{static_cast<double>(cend.admission_rejects), "count"};
    m["spill.bytes_written"] =
        Metric{static_cast<double>(cend.spilled_bytes), "B"};
    m["spill.reclaimed"] =
        Metric{static_cast<double>(cend.spill_reclaimed), "count"};
    m["slp.compress_s"] = Metric{world->compress_s, "s"};
    m["corpus.skip_rate"] = Metric{0, "fraction"};
    m["corpus.memo_hit_rate"] = Metric{0, "fraction"};
    m["corpus.docs_prepared"] = Metric{0, "count"};

    // Stop serving; the replay starts from the set-up state with its own
    // documents and queries.
    const std::string docs_dir = world->docs_dir;
    world->server.reset();
    {
      const uint64_t t = NowNs();
      Result<std::unique_ptr<Corpus>> c = Corpus::Open(docs_dir);
      m["corpus.open_s"] = Metric{SecondsSince(t), "s"};
      if (!c.ok()) rep.failed++;
    }
    if (kind == Kind::kSpillChurn) {
      const std::string replay_spill = o.work + "/spill_replay";
      fs::copy(snapshot, replay_spill, fs::copy_options::recursive);
      if (!Runtime::ConfigureSpill({.directory = replay_spill}).ok()) {
        Die("cannot open spill directory " + replay_spill);
      }
      Runtime::SetCacheByteBudget(world->ram_budget);
    }
    Tracer tracer, scratch_tracer;
    LayerSamples samples, scratch;
    Replayer replay(in, docs_dir, &scratch_tracer, &scratch);
    if (kind == Kind::kWarmStream) {
      for (const auto& [dd, pp] : in.pairs) {
        if (!replay.Request(WireRequest{WireOp::kCount, 0, dd, pp}, 0)) {
          rep.failed++;
        }
      }
    }
    // The open-loop schedule again, from the state the wire run started in.
    replay.Retarget(&tracer, &samples);
    const uint64_t replay_start = NowNs();
    const double replay_budget_s = o.smoke ? 1.0 : 3.0;
    for (size_t i = 0; i < schedule.size() && i < 2500; ++i) {
      if (SecondsSince(replay_start) > replay_budget_s) break;
      if (!replay.Request(schedule[i], i + 1)) rep.failed++;
    }
    const Tracer::Summary summary = tracer.Summarize();
    const double lookups =
        static_cast<double>(samples.ram + samples.disk + samples.build);
    double gap = 0;
    if (lookups > 0) {
      const double rm[3] = {samples.ram / lookups, samples.disk / lookups,
                            samples.build / lookups};
      // Only count requests consult the cache in both runs on spill_churn;
      // on warm_stream every lookup is a RAM hit.
      for (int k = 0; k < 3; ++k) gap = std::max(gap, std::abs(rm[k] - wire_mix[k]));
    }
    m["trace.mix_gap_points"] = Metric{gap * 100, "points"};

    // net overhead: untraced wire median minus the replay median, per op.
    const std::vector<double>& rc =
        samples.request_us_by_op[static_cast<size_t>(WireOp::kCount)];
    m["net.overhead_p50_us"] = Metric{
        rc.empty() ? 0 : P(by_op[1], 0.5) * 1000 - P(rc, 0.5), "us"};
    Json rby;
    for (size_t op = 0; op < 3; ++op) {
      if (!samples.request_us_by_op[op].empty()) {
        rby.Num(kOpNames[op], P(samples.request_us_by_op[op], 0.5));
      }
    }
    d.Raw("replay_p50_us_by_op", rby.str());
    Json delays;
    for (const auto& [doc, v] : samples.delay_ns_by_doc) delays.Num(doc, P(v, .5));
    d.Raw("enumerate_delay_ns_by_doc", delays.str());

    // Probe unit costs on a fixed sample of pairs, spill off.
    Runtime::ConfigureSpill({}).ok();
    Tracer probe_tracer;
    LayerSamples probe;
    Replayer prober(in, docs_dir, &probe_tracer, &probe);
    std::vector<std::pair<uint32_t, uint32_t>> sample;
    for (size_t i = 0; i < in.pairs.size() && sample.size() < 6;
         i += std::max<size_t>(1, in.pairs.size() / 6)) {
      sample.push_back(in.pairs[i]);
    }
    if (!prober.Probe(sample, o.work)) rep.failed++;
    PutLayerSamples(samples, probe, &m);
    PutTraceSummary(summary, &m, &d, &rep.notes);
    if (!o.trace_out.empty() && !tracer.Write(o.trace_out)) rep.failed++;
  }

  world.reset();
  rep.Print(o, Metadata(o, input_hash));
  return 0;
}

int RunCorpus(const Options& o) {
  const Inputs in = MakeInputs(Kind::kCorpusScan, o.seed, o.smoke);
  const uint64_t input_hash = HashOf(in, {});
  Runtime::ConfigureSpill({}).ok();
  Result<Query> query = Query::Compile(in.PatternText(0), QueryAlphabet());
  if (!query.ok()) Die("corpus query does not compile");
  const slpspan::CorpusEvalOptions eopts{.threads = 2};

  struct Scan {
    std::map<std::string, uint64_t> counts;
    slpspan::CorpusEvalStats stats;
    uint64_t errors = 0;
  };
  const auto scan = [&](const Corpus& corpus) {
    Scan s;
    const slpspan::Status st = corpus.Eval(
        query.value(), slpspan::EngineRequest::Op::kCount, eopts,
        [&](const slpspan::CorpusDocResult& r) {
          if (r.output.ok()) {
            s.counts[r.name] = r.output.value().count.value;
          } else {
            ++s.errors;
          }
          return true;
        },
        &s.stats);
    if (!st.ok()) ++s.errors;
    return s;
  };

  std::vector<double> setup_s;
  std::unique_ptr<Corpus> corpus;
  std::string dir;
  double compress_s = 0, open_s = 0;
  const int repeats = o.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < repeats; ++k) {
    if (corpus != nullptr) {
      corpus.reset();
      fs::remove_all(dir);
    }
    dir = o.work + "/corpus" + std::to_string(k);
    const uint64_t t = NowNs();
    compress_s = WriteDocuments(in, dir);
    const uint64_t t_open = NowNs();
    Result<std::unique_ptr<Corpus>> c = Corpus::Open(dir);
    open_s = SecondsSince(t_open);
    if (!c.ok()) Die("Corpus::Open failed: " + c.status().message());
    corpus = std::move(c).value();
    (void)scan(*corpus);  // pre-warm: page cache, allocator, threads
    setup_s.push_back(SecondsSince(t));
  }

  Report rep;
  std::vector<double> scan_ms;
  std::vector<double> gap_ms;
  Scan first;
  uint64_t docs_scanned = 0;
  uint64_t mismatched = 0;
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(o.seconds * 1e9);
  uint64_t last_end = start;
  std::vector<double> cpu_ticks;
  (void)StealShare(&cpu_ticks);
  RssSampler rss_sampler;
  while (NowNs() < stop) {
    const uint64_t t = NowNs();
    gap_ms.push_back(static_cast<double>(t - last_end) * 1e-6);
    Scan s = scan(*corpus);
    last_end = NowNs();
    scan_ms.push_back(static_cast<double>(last_end - t) * 1e-6);
    docs_scanned += s.stats.docs_scanned;
    rep.failed += s.errors;
    if (scan_ms.size() == 1) {
      first = std::move(s);
    } else if (s.counts != first.counts) {
      ++mismatched;  // every cold scan must give the same answers
    }
  }
  const double elapsed = SecondsSince(start);
  const double rss = rss_sampler.Stop();
  const double steal = StealShare(&cpu_ticks);
  rep.attempted = scan_ms.size();

  // Verification: a fixed sample of documents through a direct Engine;
  // skipped documents must have no match.
  Rng pick(o.seed);
  const auto& docs = corpus->documents();
  uint64_t wrong = 0;
  for (int i = 0; i < 12 && !docs.empty(); ++i) {
    const Corpus::DocumentInfo& info = docs[pick.Below(docs.size())];
    Result<DocumentPtr> doc =
        slpspan::Document::FromSlpFile(dir + "/" + info.name);
    if (!doc.ok()) {
      ++wrong;
      continue;
    }
    Result<slpspan::CountInfo> c = Engine(query.value(), doc.value()).Count();
    auto it = first.counts.find(info.name);
    const uint64_t got = it == first.counts.end() ? 0 : it->second;
    if (!c.ok() || c.value().value != got) ++wrong;
  }
  rep.failed += wrong + mismatched;

  rep.e2e["setup_s"] = Metric{Median(setup_s), "s"};
  // Documents per second of the median scan (a scan is one request).
  rep.e2e["ops_per_s"] = Metric{
      static_cast<double>(first.stats.docs_scanned) / (P(scan_ms, 0.5) * 1e-3),
      "1/s"};
  rep.e2e["p50_ms"] = Metric{P(scan_ms, 0.5), "ms"};
  rep.e2e["p90_ms"] = Metric{P(scan_ms, 0.9), "ms"};
  rep.e2e["rss_mb"] = Metric{rss, "MiB"};
  Json& d = rep.detail;
  d.Num("cpu_steal_share", steal)
      .Int("scans", scan_ms.size())
      .Num("docs_per_s_whole_run", static_cast<double>(docs_scanned) / elapsed)
      .Int("docs_per_scan", first.stats.docs_scanned)
      .Int("docs_evaluated_per_scan", first.stats.docs_evaluated)
      .Int("docs_matched_per_scan", first.stats.docs_matched)
      .Num("error_rate", static_cast<double>(rep.failed) /
                             static_cast<double>(std::max<uint64_t>(
                                 rep.attempted, 1)))
      .Num("compress_s", compress_s)
      .Num("corpus_open_s", open_s);
  PutLatency(&d, "scan", scan_ms);

  if (o.trace) {
    Metrics& m = rep.layer;
    const slpspan::CorpusEvalStats& st = first.stats;
    m["loadgen.lag_p99_ms"] = Metric{P(gap_ms, 0.99), "ms"};
    m["corpus.skip_rate"] =
        Metric{st.docs_scanned == 0
                   ? 0
                   : static_cast<double>(st.docs_skipped) / st.docs_scanned,
               "fraction"};
    m["corpus.memo_hit_rate"] = Metric{st.memo_hit_rate(), "fraction"};
    m["corpus.docs_prepared"] =
        Metric{static_cast<double>(st.docs_prepared), "count"};
    m["corpus.open_s"] = Metric{open_s, "s"};
    m["slp.compress_s"] = Metric{compress_s, "s"};
    m["net.bytes_per_tuple"] = Metric{0, "B"};
    m["net.backpressure_pauses"] = Metric{0, "count"};
    m["spill.bytes_written"] = Metric{0, "B"};
    m["spill.reclaimed"] = Metric{0, "count"};
    const Runtime::CacheStats before = Runtime::cache_stats();

    // Replay one scan: the documents Eval evaluated, in catalog order,
    // under one shared memo for the query (as Eval publishes it).
    Tracer tracer;
    LayerSamples samples;
    Replayer replay(in, dir, &tracer, &samples);
    {
      slpspan::corpus::CorpusQueryContext ctx(query.value().fingerprint(),
                                              true);
      uint64_t id = 1;
      for (const Corpus::DocumentInfo& info : docs) {
        if (!first.counts.count(info.name)) continue;  // pre-filter skipped
        if (!replay.CorpusDocument(info.name, query.value(), id++)) {
          rep.failed++;
        }
      }
    }
    const Runtime::CacheStats after = Runtime::cache_stats();
    m["cache.evictions"] =
        Metric{static_cast<double>(after.evictions - before.evictions), "count"};
    m["cache.admission_rejects"] = Metric{
        static_cast<double>(after.admission_rejects - before.admission_rejects),
        "count"};
    m["trace.mix_gap_points"] = Metric{0, "points"};
    const std::vector<double>& per_doc =
        samples.request_us_by_op[static_cast<size_t>(WireOp::kCount)];
    double replay_scan_us = 0;
    for (const double us : per_doc) replay_scan_us += us;
    m["net.overhead_p50_us"] =
        Metric{P(scan_ms, 0.5) * 1000 - replay_scan_us, "us"};

    // Probe unit costs on a few matching documents.
    const std::vector<std::pair<uint32_t, uint32_t>> sample(
        in.pairs.begin(), in.pairs.begin() + std::min<size_t>(6, in.pairs.size()));
    Tracer probe_tracer;
    LayerSamples probe;
    Replayer prober(in, dir, &probe_tracer, &probe);
    if (!prober.Probe(sample, o.work)) rep.failed++;
    PutLayerSamples(samples, probe, &m);
    m["spanner.compiles"] = Metric{1, "count"};
    {
      // Session hand-off, as Eval submits each surviving document.
      slpspan::Session session(slpspan::SessionOptions{.num_threads = 2});
      for (const auto& [doc_index, unused] : sample) {
        Result<DocumentPtr> doc =
            prober.Doc(static_cast<uint32_t>(doc_index));
        if (!doc.ok()) {
          rep.failed++;
          continue;
        }
        const slpspan::Ticket t = session.Submit(slpspan::EngineRequest{
            .query = query.value(),
            .document = doc.value(),
            .op = slpspan::EngineRequest::Op::kCount});
        if (!t.Wait().ok()) rep.failed++;
      }
      const slpspan::Session::Stats stats = session.stats();
      const auto& cs = stats.For(slpspan::Priority::kBatch);
      m["session.queue_mean_us"] = Metric{
          cs.completed == 0 ? 0
                            : static_cast<double>(cs.queue_latency_micros) /
                                  static_cast<double>(cs.completed),
          "us"};
    }
    PutTraceSummary(tracer.Summarize(), &m, &d, &rep.notes);
    if (!o.trace_out.empty() && !tracer.Write(o.trace_out)) rep.failed++;
  }
  corpus.reset();
  rep.Print(o, Metadata(o, input_hash));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = ParseArgs(argc, argv);
  std::filesystem::create_directories(o.work);
  if (o.workload == "warm_stream" || o.workload == "spill_churn") {
    if (o.rate <= 0) Usage("--rate is required for the wire workloads");
    return RunWire(o, o.workload == "warm_stream" ? Kind::kWarmStream
                                                  : Kind::kSpillChurn);
  }
  if (o.workload == "corpus_scan") return RunCorpus(o);
  Usage("unknown workload");
}
