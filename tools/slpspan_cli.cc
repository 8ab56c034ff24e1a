// slpspan — command-line front-end for the library, built entirely on the
// public API (include/slpspan/): Document for storage, Query for compiled
// patterns, Engine for evaluation.
//
//   slpspan compress  <in.txt> <out.slp> [--method=repair|lz77|lz78|balanced]
//                     [--rebalance]
//   slpspan stats     <in.slp>
//   slpspan decompress<in.slp> <out.txt>
//   slpspan extract   <in.slp> <pattern> [--alphabet=...] [--limit=N]
//   slpspan count     <in.slp> <pattern> [--alphabet=...]
//   slpspan sample    <in.slp> <pattern> <k> [--alphabet=...] [--seed=S]
//   slpspan check     <in.slp> <pattern> (non-emptiness only)
//   slpspan prepare   <in.slp> <pattern> (-o bundle.prep | --spill-dir=DIR)
//                     [--alphabet=...] [--threads=N] [--verbose] [--naive]
//   slpspan batch     <manifest> [--threads=N] [--cache-mb=M] [--alphabet=...]
//                     [--spill-dir=DIR] [--spill-mb=M] [--async]
//                     [--deadline-ms=T]
//   slpspan serve     --root=DIR [--port=P] [--threads=N] [--alphabet=...]
//                     [--max-conns=N] [--write-buffer-kb=K] [--drain-ms=T]
//                     [--duration-ms=T]
//   slpspan query     --connect=HOST:PORT <document> <pattern>
//                     [--op=check|count|extract] [--limit=N]
//                     [--priority=interactive|batch|background]
//                     [--deadline-ms=T]
//   slpspan corpus    build <dir>
//   slpspan corpus    query <dir> <pattern> [--op=check|count|extract]
//                     [--limit=N] [--threads=N] [--alphabet=CHARS]
//                     [--no-prefilter] [--no-share] [--verbose]
//
// `extract` streams span-tuples through Engine::Extract with early exit at
// --limit (Theorem 8.10; tuples past the limit are never computed), `count`
// uses the enumeration-free counting extension, `sample` draws uniformly
// from the result set, `check` is Theorem 5.1(1). Patterns use the spanner
// regex dialect (see README.md); the alphabet defaults to printable ASCII +
// newline + tab.
//
// `batch` runs a whole request manifest through the runtime layer: every
// line is `op<TAB>file.slp<TAB>pattern[<TAB>limit][<TAB>priority]` with op
// in {check, count, extract} and priority in {interactive, batch,
// background} (spaces work as separators too when the pattern contains
// none). Documents and queries are loaded/compiled once per distinct
// path/pattern, requests run on a worker pool sharing the byte-budgeted
// prepared-state cache, and identical requests are evaluated once.
// `--cache-mb` bounds the cache, `--threads` sizes the pool. `--spill-dir`
// enables the disk spill tier under the cache (budgeted by `--spill-mb`):
// evicted prepared state is written behind as ".prep" bundles and later
// misses load them back instead of re-preparing — across process runs too,
// since bundles are keyed by content fingerprints.
//
// With `--async` the manifest is driven through Session::Submit — every
// line becomes a ticket at its priority class (default batch), optionally
// bounded by `--deadline-ms` (relative; expired requests report `deadline
// exceeded` instead of running late) — and the run ends with a
// per-priority serving report: completed/cancelled/expired counts and mean
// queue latency per class. Without `--async` the priority column is
// accepted but ignored (EvalBatch runs everything at batch priority).
//
// `serve` runs the framed-TCP network front-end (docs/WIRE_PROTOCOL.md) over
// a directory of .slp documents: clients name documents relative to --root
// ("corpus" loads "<root>/corpus.slp") and stream extraction results back in
// pages with end-to-end backpressure. The server stops after --duration-ms
// (when non-zero) or on stdin EOF, drains gracefully, and prints a serving
// report. `query` is the matching client: one request against a running
// server, results printed as span lists (document text is not echoed — the
// client only has spans, by design).
//
// `corpus build` ingests a directory of .slp files into its checksummed
// "corpus.catalog" (fingerprints, sizes, pre-filter summaries; identical
// grammars share one entry). `corpus query` runs one compiled pattern over
// the whole catalogued corpus: documents refuted by the summary pre-filter
// are skipped without touching their grammar, survivors are evaluated on a
// Session worker pool sharing one cross-document product memo, and results
// stream in catalog order. `--no-prefilter` / `--no-share` disable the two
// optimizations (results are bit-identical; only the work changes) and the
// run ends with a corpus report: scanned/skipped/evaluated/matched counts
// and the corpus-wide memo hit rate.
//
// `prepare` exports the prepared state for one (document, pattern) pair as a
// bundle: `-o file.prep` for an explicit artifact, `--spill-dir=DIR` to drop
// it into a spill directory under its canonical name so a later batch run
// (or a whole fleet sharing that directory) starts warm. `--threads=N` runs
// the wave-parallel preparation on N workers, `--naive` disables the
// product memo (benchmark/debug baseline; tables are bit-identical either
// way), and `--verbose` prints the PrepareStats — waves, matrix ops,
// distinct products, memo hit rate.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <thread>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/client.h"
#include "slpspan/server.h"
#include "slpspan/slpspan.h"

namespace {

using namespace slpspan;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  slpspan compress <in.txt> <out.slp> [--method=repair|lz77|lz78|"
               "balanced] [--rebalance]\n"
               "  slpspan decompress <in.slp> <out.txt>\n"
               "  slpspan stats <in.slp>\n"
               "  slpspan check <in.slp> <pattern> [--alphabet=CHARS]\n"
               "  slpspan count <in.slp> <pattern> [--alphabet=CHARS]\n"
               "  slpspan extract <in.slp> <pattern> [--alphabet=CHARS] "
               "[--limit=N]\n"
               "  slpspan sample <in.slp> <pattern> <k> [--alphabet=CHARS] "
               "[--seed=S]\n"
               "  slpspan prepare <in.slp> <pattern> (-o out.prep | "
               "--spill-dir=DIR) [--alphabet=CHARS]\n"
               "                  [--threads=N] [--verbose] [--naive]\n"
               "  slpspan batch <manifest> [--threads=N] [--cache-mb=M] "
               "[--alphabet=CHARS] [--spill-dir=DIR] [--spill-mb=M]\n"
               "                [--async] [--deadline-ms=T]\n"
               "      manifest line: "
               "op<TAB>file.slp<TAB>pattern[<TAB>limit][<TAB>priority]\n"
               "      op in {check,count,extract}; priority in "
               "{interactive,batch,background} (--async)\n"
               "  slpspan serve --root=DIR [--port=P] [--threads=N] "
               "[--alphabet=CHARS] [--max-conns=N]\n"
               "                [--write-buffer-kb=K] [--drain-ms=T] "
               "[--duration-ms=T]\n"
               "  slpspan query --connect=HOST:PORT <document> <pattern> "
               "[--op=check|count|extract]\n"
               "                [--limit=N] [--priority=interactive|batch|"
               "background] [--deadline-ms=T]\n"
               "  slpspan corpus build <dir>\n"
               "  slpspan corpus query <dir> <pattern> "
               "[--op=check|count|extract] [--limit=N]\n"
               "                [--threads=N] [--alphabet=CHARS] "
               "[--no-prefilter] [--no-share] [--verbose]\n");
  return 2;
}

struct Flags {
  std::string method = "repair";
  std::string alphabet;
  std::string out;        // prepare: explicit bundle path (-o / --out=)
  std::string spill_dir;  // prepare/batch: spill directory
  uint64_t limit = 20;
  uint64_t seed = 42;
  uint64_t threads = 0;      // 0 = hardware concurrency
  uint64_t cache_mb = 0;     // 0 = library default
  uint64_t spill_mb = 0;     // 0 = library default
  uint64_t deadline_ms = 0;  // batch --async: per-request deadline; 0 = none
  std::string root;          // serve: document directory
  std::string connect;       // query: HOST:PORT of a running server
  std::string op = "extract";         // query: wire operation
  std::string priority = "batch";     // query: priority class
  uint64_t port = 0;                  // serve: 0 = ephemeral
  uint64_t max_conns = 1024;          // serve
  uint64_t write_buffer_kb = 1024;    // serve: per-connection queue budget
  uint64_t drain_ms = 5000;           // serve: graceful-drain timeout
  uint64_t duration_ms = 0;           // serve: 0 = run until stdin EOF
  bool async = false;        // batch: Submit/Ticket path instead of EvalBatch
  bool no_prefilter = false;  // corpus query: disable the summary pre-filter
  bool no_share = false;      // corpus query: isolate every preparation
  bool rebalance = false;
  bool verbose = false;      // prepare: print PrepareStats
  bool naive = false;        // prepare: disable product memoization
  bool parse_error = false;
  std::vector<std::string> positional;
};

/// Strict decimal parse; rejects empty strings, sign characters, trailing
/// garbage and overflow (no exceptions, no partial consumption).
bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - (c - '0')) / 10) return false;
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (char c = 32; c < 127; ++c) flags.alphabet += c;
  flags.alphabet += '\n';
  flags.alphabet += '\t';
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--method=", 0) == 0) {
      flags.method = arg.substr(9);
    } else if (arg.rfind("--alphabet=", 0) == 0) {
      flags.alphabet = arg.substr(11);
    } else if (arg.rfind("--limit=", 0) == 0) {
      flags.parse_error |= !ParseUint(arg.substr(8), &flags.limit);
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.parse_error |= !ParseUint(arg.substr(7), &flags.seed);
    } else if (arg.rfind("--threads=", 0) == 0) {
      flags.parse_error |= !ParseUint(arg.substr(10), &flags.threads);
    } else if (arg.rfind("--cache-mb=", 0) == 0) {
      flags.parse_error |= !ParseUint(arg.substr(11), &flags.cache_mb);
    } else if (arg.rfind("--spill-mb=", 0) == 0) {
      flags.parse_error |= !ParseUint(arg.substr(11), &flags.spill_mb);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      flags.parse_error |= !ParseUint(arg.substr(14), &flags.deadline_ms);
    } else if (arg.rfind("--root=", 0) == 0) {
      flags.root = arg.substr(7);
    } else if (arg.rfind("--connect=", 0) == 0) {
      flags.connect = arg.substr(10);
    } else if (arg.rfind("--op=", 0) == 0) {
      flags.op = arg.substr(5);
    } else if (arg.rfind("--priority=", 0) == 0) {
      flags.priority = arg.substr(11);
    } else if (arg.rfind("--port=", 0) == 0) {
      flags.parse_error |= !ParseUint(arg.substr(7), &flags.port);
    } else if (arg.rfind("--max-conns=", 0) == 0) {
      flags.parse_error |= !ParseUint(arg.substr(12), &flags.max_conns);
    } else if (arg.rfind("--write-buffer-kb=", 0) == 0) {
      flags.parse_error |= !ParseUint(arg.substr(18), &flags.write_buffer_kb);
    } else if (arg.rfind("--drain-ms=", 0) == 0) {
      flags.parse_error |= !ParseUint(arg.substr(11), &flags.drain_ms);
    } else if (arg.rfind("--duration-ms=", 0) == 0) {
      flags.parse_error |= !ParseUint(arg.substr(14), &flags.duration_ms);
    } else if (arg == "--async") {
      flags.async = true;
    } else if (arg == "--no-prefilter") {
      flags.no_prefilter = true;
    } else if (arg == "--no-share") {
      flags.no_share = true;
    } else if (arg.rfind("--spill-dir=", 0) == 0) {
      flags.spill_dir = arg.substr(12);
    } else if (arg.rfind("--out=", 0) == 0) {
      flags.out = arg.substr(6);
    } else if (arg == "-o") {
      if (i + 1 < argc) flags.out = argv[++i];
      else flags.parse_error = true;
    } else if (arg == "--rebalance") {
      flags.rebalance = true;
    } else if (arg == "--verbose") {
      flags.verbose = true;
    } else if (arg == "--naive") {
      flags.naive = true;
    } else {
      flags.positional.push_back(arg);
    }
  }
  return flags;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int Fail(const Status& st) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return 1;
}

int CmdCompress(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  Compression method = Compression::kRePair;
  if (flags.method == "lz77") method = Compression::kLz77;
  else if (flags.method == "lz78") method = Compression::kLz78;
  else if (flags.method == "balanced") method = Compression::kBalanced;
  else if (flags.method != "repair") return Usage();

  const auto start = std::chrono::steady_clock::now();
  Result<DocumentPtr> doc = Document::FromFile(flags.positional[0], method);
  if (!doc.ok()) return Fail(doc.status());
  if (flags.rebalance) *doc = Document::FromSlp(Rebalance((*doc)->slp()));
  const double ms = MillisSince(start);

  Status st = (*doc)->Save(flags.positional[1]);
  if (!st.ok()) return Fail(st);
  const Slp::Stats stats = (*doc)->stats();
  std::printf("%s: %llu symbols -> size(S)=%llu (%.2fx), depth=%u, %.1f ms (%s)\n",
              flags.positional[1].c_str(),
              static_cast<unsigned long long>(stats.document_length),
              static_cast<unsigned long long>(stats.paper_size),
              stats.compression_ratio, stats.depth, ms, flags.method.c_str());
  return 0;
}

int CmdDecompress(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  Result<DocumentPtr> doc = Document::FromSlpFile(flags.positional[0]);
  if (!doc.ok()) return Fail(doc.status());
  std::ofstream out(flags.positional[1], std::ios::binary);
  std::string buffer;
  buffer.reserve(1 << 20);
  (*doc)->slp().ForEachSymbol([&](SymbolId s) {
    buffer.push_back(static_cast<char>(static_cast<unsigned char>(s)));
    if (buffer.size() >= (1 << 20)) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  });
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  return out ? 0 : 1;
}

int CmdStats(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  Result<DocumentPtr> doc = Document::FromSlpFile(flags.positional[0]);
  if (!doc.ok()) return Fail(doc.status());
  const Slp::Stats s = (*doc)->stats();
  std::printf("document length : %llu\n",
              static_cast<unsigned long long>(s.document_length));
  std::printf("non-terminals   : %u (%u inner, %u leaves)\n", s.non_terminals,
              s.inner_non_terminals, s.leaf_non_terminals);
  std::printf("size(S)         : %llu\n",
              static_cast<unsigned long long>(s.paper_size));
  std::printf("depth(S)        : %u%s\n", s.depth,
              IsBalanced((*doc)->slp()) ? " (balanced)" : "");
  std::printf("ratio d/size(S) : %.2f\n", s.compression_ratio);
  return 0;
}

/// Loads the document and compiles the pattern into an Engine.
Result<Engine> LoadEngine(const Flags& flags) {
  Result<DocumentPtr> doc = Document::FromSlpFile(flags.positional[0]);
  if (!doc.ok()) return doc.status();
  Result<Query> query = Query::Compile(flags.positional[1], flags.alphabet);
  if (!query.ok()) return query.status();
  return Engine(std::move(query).value(), std::move(doc).value());
}

int CmdCheck(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  Result<Engine> engine = LoadEngine(flags);
  if (!engine.ok()) return Fail(engine.status());
  const bool nonempty = engine->IsNonEmpty();
  std::printf("%s\n", nonempty ? "non-empty" : "empty");
  return nonempty ? 0 : 3;
}

void PrintTuple(const Engine& engine, const SpanTuple& t) {
  const Slp& slp = engine.document()->slp();
  const VariableSet& vars = engine.query().vars();
  std::printf("(");
  for (VarId v = 0; v < t.num_vars(); ++v) {
    if (v > 0) std::printf(", ");
    std::printf("%s=", vars.Name(v).c_str());
    if (!t.Get(v).has_value()) {
      std::printf("_");
      continue;
    }
    const Span s = *t.Get(v);
    std::string value;
    const uint64_t end = std::min(s.end, s.begin + 40);  // clip long spans
    if (s.begin < end) {
      value = ToByteString(slp.ExpandRange(s.begin, end));
    }
    std::printf("[%llu,%llu>\"%s%s\"", static_cast<unsigned long long>(s.begin),
                static_cast<unsigned long long>(s.end), value.c_str(),
                end < s.end ? "..." : "");
  }
  std::printf(")\n");
}

int CmdExtract(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  Result<Engine> engine = LoadEngine(flags);
  if (!engine.ok()) return Fail(engine.status());
  // Streaming with early exit: tuples past --limit are never computed.
  const uint64_t shown = engine->Extract(
      [&](const SpanTuple& t) {
        PrintTuple(*engine, t);
        return true;
      },
      {.limit = flags.limit});
  std::printf("(%llu shown; --limit to change)\n",
              static_cast<unsigned long long>(shown));
  return 0;
}

int CmdCount(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  Result<Engine> engine = LoadEngine(flags);
  if (!engine.ok()) return Fail(engine.status());
  Result<CountInfo> count = engine->Count();
  if (!count.ok()) return Fail(count.status());
  std::printf("%llu%s\n", static_cast<unsigned long long>(count->value),
              count->exact ? "" : "+ (overflowed; lower bound)");
  return 0;
}

int CmdSample(const Flags& flags) {
  if (flags.positional.size() != 3) return Usage();
  uint64_t k = 0;
  if (!ParseUint(flags.positional[2], &k)) return Usage();
  Result<Engine> engine = LoadEngine(flags);
  if (!engine.ok()) return Fail(engine.status());
  if (k == 0) return 0;
  Result<std::vector<SpanTuple>> sample = engine->Sample(k, flags.seed);
  if (!sample.ok()) return Fail(sample.status());
  if (sample->empty()) {
    std::printf("(empty result set)\n");
    return 3;
  }
  for (const SpanTuple& t : *sample) PrintTuple(*engine, t);
  return 0;
}

// --------------------------------------------------------------- prepare ----

int CmdPrepare(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  if (flags.out.empty() == flags.spill_dir.empty()) {
    std::fprintf(stderr,
                 "prepare needs exactly one destination: -o/--out=PATH or "
                 "--spill-dir=DIR\n");
    return 2;
  }
  Result<DocumentPtr> doc = Document::FromSlpFile(flags.positional[0]);
  if (!doc.ok()) return Fail(doc.status());
  Result<Query> query = Query::Compile(flags.positional[1], flags.alphabet);
  if (!query.ok()) return Fail(query.status());

  // Preparation knobs: wave-parallel across --threads workers, product
  // memoization unless --naive. Results are bit-identical either way.
  Runtime::SetPrepareOptions(
      {.threads = flags.threads == 0 ? 1
                                     : static_cast<uint32_t>(flags.threads),
       .memoize = !flags.naive});

  std::string path = flags.out;
  if (path.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(flags.spill_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s\n", flags.spill_dir.c_str());
      return 1;
    }
    // The canonical spill-store name: a later run with --spill-dir on this
    // directory starts warm for this (document, pattern) pair.
    path = flags.spill_dir + "/" + Runtime::SpillBundleName(**doc, *query);
  }

  const auto start = std::chrono::steady_clock::now();
  // One preparation, observable stats: SavePrepared serializes exactly the
  // state it builds, even when the cache declines to retain it.
  PrepareStats stats;
  Status st = (*doc)->SavePrepared(*query, path, &stats);
  if (!st.ok()) return Fail(st);
  const double ms = MillisSince(start);

  std::error_code ec;
  const uint64_t bundle_bytes = std::filesystem::file_size(path, ec);
  std::printf("%s: prepared q=%u over size(S)=%llu -> %llu bundle bytes, %.1f ms\n",
              path.c_str(), query->num_states(),
              static_cast<unsigned long long>((*doc)->stats().paper_size),
              static_cast<unsigned long long>(ec ? 0 : bundle_bytes), ms);
  if (flags.verbose) {
    std::printf(
        "preparation: %llu rule(s) in %u wave(s) on %u thread(s); "
        "%llu matrix op(s), %llu distinct (%llu memo hit(s), %.1f%% hit "
        "rate), %llu pooled matrice(s)\n",
        static_cast<unsigned long long>(stats.rules), stats.waves,
        stats.threads, static_cast<unsigned long long>(stats.products),
        static_cast<unsigned long long>(stats.distinct_products),
        static_cast<unsigned long long>(stats.memo_hits),
        stats.hit_rate() * 100.0,
        static_cast<unsigned long long>(stats.pool_matrices));
  }
  return 0;
}

// ----------------------------------------------------------------- batch ----

struct ManifestLine {
  size_t lineno = 0;
  std::string op;
  std::string path;
  std::string pattern;
  std::optional<uint64_t> limit;
  Priority priority = Priority::kBatch;  // optional trailing column (--async)
};

bool ParsePriority(const std::string& s, Priority* out) {
  if (s == "interactive") *out = Priority::kInteractive;
  else if (s == "batch") *out = Priority::kBatch;
  else if (s == "background") *out = Priority::kBackground;
  else return false;
  return true;
}

const char* PriorityName(Priority p) {
  switch (p) {
    case Priority::kInteractive: return "interactive";
    case Priority::kBatch: return "batch";
    case Priority::kBackground: return "background";
  }
  return "?";
}

/// Splits a manifest line into fields: by tabs when any are present (allows
/// patterns containing spaces), otherwise by runs of whitespace.
std::vector<std::string> SplitManifestLine(const std::string& line) {
  std::vector<std::string> fields;
  if (line.find('\t') != std::string::npos) {
    size_t start = 0;
    while (start <= line.size()) {
      const size_t tab = line.find('\t', start);
      const size_t end = tab == std::string::npos ? line.size() : tab;
      if (end > start) fields.push_back(line.substr(start, end - start));
      if (tab == std::string::npos) break;
      start = tab + 1;
    }
    return fields;
  }
  std::istringstream ss(line);
  std::string field;
  while (ss >> field) fields.push_back(std::move(field));
  return fields;
}

int CmdBatch(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  std::ifstream in(flags.positional[0]);
  if (!in) {
    std::fprintf(stderr, "cannot read manifest %s\n",
                 flags.positional[0].c_str());
    return 1;
  }

  std::vector<ManifestLine> lines;
  std::string raw;
  for (size_t lineno = 1; std::getline(in, raw); ++lineno) {
    if (raw.empty() || raw[0] == '#') continue;
    std::vector<std::string> fields = SplitManifestLine(raw);
    if (fields.empty()) continue;
    ManifestLine line;
    line.lineno = lineno;
    if (fields.size() < 3 || fields.size() > 5 ||
        (fields[0] != "check" && fields[0] != "count" &&
         fields[0] != "extract")) {
      std::fprintf(stderr,
                   "manifest line %zu: expected `check|count|extract "
                   "<file.slp> <pattern> [limit] [priority]`\n",
                   lineno);
      return 2;
    }
    line.op = fields[0];
    line.path = fields[1];
    line.pattern = fields[2];
    // Trailing columns: a numeric limit and/or a priority class, in either
    // order (each at most once).
    bool have_limit = false, have_priority = false;
    for (size_t f = 3; f < fields.size(); ++f) {
      uint64_t limit = 0;
      if (!have_limit && ParseUint(fields[f], &limit)) {
        line.limit = limit;
        have_limit = true;
      } else if (!have_priority && ParsePriority(fields[f], &line.priority)) {
        have_priority = true;
      } else {
        std::fprintf(stderr,
                     "manifest line %zu: bad limit/priority '%s' (priority "
                     "in {interactive,batch,background})\n",
                     lineno, fields[f].c_str());
        return 2;
      }
    }
    if (!have_limit && line.op == "extract") line.limit = flags.limit;
    lines.push_back(std::move(line));
  }
  if (lines.empty()) {
    std::fprintf(stderr, "manifest has no requests\n");
    return 2;
  }

  if (flags.cache_mb > 0) {
    Runtime::SetCacheByteBudget(flags.cache_mb << 20);
  }
  if (!flags.spill_dir.empty()) {
    SpillOptions spill{.directory = flags.spill_dir};
    if (flags.spill_mb > 0) spill.byte_budget = flags.spill_mb << 20;
    Status st = Runtime::ConfigureSpill(spill);
    if (!st.ok()) return Fail(st);
  }

  // Load every distinct document and compile every distinct pattern once;
  // requests then share handles (and therefore cache slots).
  std::map<std::string, DocumentPtr> docs;
  std::map<std::string, Query> queries;
  for (const ManifestLine& line : lines) {
    if (docs.find(line.path) == docs.end()) {
      Result<DocumentPtr> doc = Document::FromSlpFile(line.path);
      if (!doc.ok()) return Fail(doc.status());
      docs.emplace(line.path, std::move(doc).value());
    }
    if (queries.find(line.pattern) == queries.end()) {
      Result<Query> query = Query::Compile(line.pattern, flags.alphabet);
      if (!query.ok()) return Fail(query.status());
      queries.emplace(line.pattern, std::move(query).value());
    }
  }

  std::vector<EngineRequest> requests;
  requests.reserve(lines.size());
  for (const ManifestLine& line : lines) {
    EngineRequest::Op op = EngineRequest::Op::kCount;
    if (line.op == "check") op = EngineRequest::Op::kIsNonEmpty;
    if (line.op == "extract") op = EngineRequest::Op::kExtract;
    requests.push_back(EngineRequest{.query = queries.at(line.pattern),
                                     .document = docs.at(line.path),
                                     .op = op,
                                     .limit = line.limit});
  }

  Session session({.num_threads = static_cast<uint32_t>(flags.threads)});
  const auto start = std::chrono::steady_clock::now();
  std::vector<Result<EngineOutput>> outputs;  // sync path only
  std::vector<Ticket> tickets;  // async path: results stay in the tickets
  if (flags.async) {
    // Asynchronous path: one ticket per line at its priority class, all
    // submitted up front (late lines still coalesce with queued identical
    // ones), then awaited in manifest order — results are printed straight
    // out of the tickets, never copied.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (flags.deadline_ms > 0) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(flags.deadline_ms);
    }
    tickets.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      tickets.push_back(session.Submit(
          requests[i],
          {.priority = lines[i].priority, .deadline = deadline}));
    }
    for (Ticket& ticket : tickets) ticket.Wait();
  } else {
    outputs = session.EvalBatch(requests);
  }
  const double ms = MillisSince(start);
  const auto result_at = [&](size_t i) -> const Result<EngineOutput>& {
    return flags.async ? tickets[i].Wait() : outputs[i];
  };

  int exit_code = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const ManifestLine& line = lines[i];
    std::printf("[%zu] %s %s '%s'", i, line.op.c_str(), line.path.c_str(),
                line.pattern.c_str());
    if (!result_at(i).ok()) {
      std::printf(" -> error: %s\n",
                  result_at(i).status().ToString().c_str());
      exit_code = 1;
      continue;
    }
    const EngineOutput& out = *result_at(i);
    if (line.op == "check") {
      std::printf(" -> %s\n", out.nonempty ? "non-empty" : "empty");
    } else if (line.op == "count") {
      std::printf(" -> %llu%s\n",
                  static_cast<unsigned long long>(out.count.value),
                  out.count.exact ? "" : "+ (overflowed; lower bound)");
    } else {
      std::printf(" -> %zu tuple(s)\n", out.tuples.size());
      const Engine engine(queries.at(line.pattern), docs.at(line.path));
      for (const SpanTuple& t : out.tuples) PrintTuple(engine, t);
    }
  }

  if (!flags.spill_dir.empty()) {
    // Clean shutdown: persist what is still resident (eviction only covers
    // what was squeezed out mid-run) and wait for the write-behind queue,
    // so the next run starts warm.
    Runtime::SpillResident();
    Runtime::FlushSpill();
  }
  const Runtime::CacheStats cache = Runtime::cache_stats();
  std::printf(
      "\n%zu requests in %.1f ms on %u thread(s); prepared-state cache: "
      "%llu hit(s), %llu miss(es), %llu eviction(s), %.1f MiB / %.0f MiB\n",
      requests.size(), ms, session.num_threads(),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<double>(cache.bytes) / (1 << 20),
      static_cast<double>(cache.budget_bytes) / (1 << 20));
  if (!flags.spill_dir.empty()) {
    std::printf(
        "spill tier (%s): %llu disk hit(s), %llu bundle(s) on disk "
        "(%.1f MiB / %.0f MiB), %llu byte(s) written, %llu reclaimed\n",
        flags.spill_dir.c_str(),
        static_cast<unsigned long long>(cache.disk_hits),
        static_cast<unsigned long long>(cache.spill_entries),
        static_cast<double>(cache.spill_bytes) / (1 << 20),
        static_cast<double>(cache.spill_budget_bytes) / (1 << 20),
        static_cast<unsigned long long>(cache.spilled_bytes),
        static_cast<unsigned long long>(cache.spill_reclaimed));
  }
  if (flags.async) {
    const Session::Stats stats = session.stats();
    for (size_t i = 0; i < kNumPriorityClasses; ++i) {
      const Session::Stats::ClassStats& c = stats.by_class[i];
      if (c.submitted == 0) continue;
      const uint64_t left_queue = c.completed + c.cancelled + c.expired;
      std::printf(
          "%-11s: %llu submitted, %llu completed, %llu cancelled, "
          "%llu expired, %llu coalesced, mean queue latency %.2f ms\n",
          PriorityName(static_cast<Priority>(i)),
          static_cast<unsigned long long>(c.submitted),
          static_cast<unsigned long long>(c.completed),
          static_cast<unsigned long long>(c.cancelled),
          static_cast<unsigned long long>(c.expired),
          static_cast<unsigned long long>(c.coalesced),
          static_cast<double>(c.queue_latency_micros) / 1000.0 /
              static_cast<double>(std::max<uint64_t>(1, left_queue)));
    }
  }
  return exit_code;
}

// ----------------------------------------------------------------- serve ----

int CmdServe(const Flags& flags) {
  if (!flags.positional.empty() || flags.root.empty()) return Usage();
  ServerOptions opts;
  opts.port = static_cast<uint16_t>(flags.port);
  opts.threads = static_cast<uint32_t>(flags.threads);
  opts.max_connections = static_cast<uint32_t>(flags.max_conns);
  opts.write_buffer_bytes = static_cast<size_t>(flags.write_buffer_kb) << 10;
  opts.drain_timeout = std::chrono::milliseconds(flags.drain_ms);
  opts.document_root = flags.root;
  opts.alphabet = flags.alphabet;
  Server server(std::move(opts));
  Status st = server.Start();
  if (!st.ok()) return Fail(st);
  std::printf("listening on 127.0.0.1:%u (root %s)\n", server.port(),
              flags.root.c_str());
  std::fflush(stdout);

  if (flags.duration_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(flags.duration_ms));
  } else {
    // Run until stdin closes — `slpspan serve < /some/fifo`, or interactive
    // ctrl-D. Any input line is ignored except "quit".
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line == "quit") break;
    }
  }

  const bool clean = server.Drain();
  const Server::Stats stats = server.stats();
  server.Stop();
  std::printf(
      "served %llu request(s) over %llu connection(s): %llu page(s), %llu "
      "tuple(s), %llu backpressure pause(s), %llu bad frame(s), drain %s\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.total_accepted),
      static_cast<unsigned long long>(stats.pages_sent),
      static_cast<unsigned long long>(stats.tuples_sent),
      static_cast<unsigned long long>(stats.backpressure_pauses),
      static_cast<unsigned long long>(stats.bad_frames),
      clean ? "clean" : "forced");
  for (size_t i = 0; i < kNumPriorityClasses; ++i) {
    const Session::Stats::ClassStats& c = stats.session.by_class[i];
    if (c.submitted == 0) continue;
    std::printf("%-11s: %llu submitted, queue latency p50 %llu us, p99 %llu "
                "us\n",
                PriorityName(static_cast<Priority>(i)),
                static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.queue_latency_p50_micros),
                static_cast<unsigned long long>(c.queue_latency_p99_micros));
  }
  return 0;
}

// ----------------------------------------------------------------- query ----

/// Splits --connect=HOST:PORT.
bool ParseHostPort(const std::string& s, std::string* host, uint16_t* port) {
  const size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  uint64_t p = 0;
  if (!ParseUint(s.substr(colon + 1), &p) || p == 0 || p > 65535) return false;
  *host = s.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

int CmdQuery(const Flags& flags) {
  if (flags.positional.size() != 2 || flags.connect.empty()) return Usage();
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(flags.connect, &host, &port)) {
    std::fprintf(stderr, "--connect expects HOST:PORT\n");
    return 2;
  }
  net::WireOp op;
  if (flags.op == "check") op = net::WireOp::kCheck;
  else if (flags.op == "count") op = net::WireOp::kCount;
  else if (flags.op == "extract") op = net::WireOp::kExtract;
  else return Usage();
  Priority priority = Priority::kBatch;
  if (!ParsePriority(flags.priority, &priority)) return Usage();

  Result<net::Client> client = net::Client::Connect(host, port);
  if (!client.ok()) return Fail(client.status());
  net::CallOptions opts;
  opts.limit = op == net::WireOp::kExtract ? flags.limit : UINT64_MAX;
  opts.priority = static_cast<uint8_t>(priority);
  opts.deadline_ms = static_cast<uint32_t>(flags.deadline_ms);
  Result<net::CallResult> result =
      client->Call(op, flags.positional[0], flags.positional[1], opts);
  if (!result.ok()) return Fail(result.status());
  if (!result->ok()) {
    std::fprintf(stderr, "server: error %u: %s\n", result->code,
                 result->message.c_str());
    return 1;
  }
  if (op == net::WireOp::kCheck) {
    std::printf("%s\n", result->nonempty ? "non-empty" : "empty");
    return result->nonempty ? 0 : 3;
  }
  if (op == net::WireOp::kCount) {
    std::printf("%llu%s\n",
                static_cast<unsigned long long>(result->count_value),
                result->count_exact ? "" : "+ (overflowed; lower bound)");
    return 0;
  }
  // Extract: the client has spans, not document text — print positions.
  for (const SpanTuple& t : result->tuples) {
    std::printf("(");
    for (VarId v = 0; v < t.num_vars(); ++v) {
      if (v > 0) std::printf(", ");
      if (!t.Get(v).has_value()) {
        std::printf("x%u=_", v);
        continue;
      }
      std::printf("x%u=[%llu,%llu>", v,
                  static_cast<unsigned long long>(t.Get(v)->begin),
                  static_cast<unsigned long long>(t.Get(v)->end));
    }
    std::printf(")\n");
  }
  std::printf("(%llu tuple(s) in %llu page(s))\n",
              static_cast<unsigned long long>(result->tuples_streamed),
              static_cast<unsigned long long>(result->pages));
  return 0;
}

// ---------------------------------------------------------------- corpus ----

int CmdCorpusBuild(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  const auto start = std::chrono::steady_clock::now();
  // rebuild = true: "build" is the explicit re-ingest command; plain
  // "corpus query" adopts a fresh catalog without it.
  Result<std::unique_ptr<Corpus>> corpus =
      Corpus::Open(flags.positional[1], {.rebuild = true});
  if (!corpus.ok()) return Fail(corpus.status());
  uint64_t files = 0;
  for (const Corpus::DocumentInfo& d : (*corpus)->documents()) {
    files += 1 + d.aliases.size();
  }
  std::printf("catalogued %llu distinct document(s) across %llu file(s) in "
              "%.1f ms\n",
              static_cast<unsigned long long>((*corpus)->documents().size()),
              static_cast<unsigned long long>(files), MillisSince(start));
  return 0;
}

int CmdCorpusQuery(const Flags& flags) {
  if (flags.positional.size() != 3) return Usage();
  EngineRequest::Op op = EngineRequest::Op::kExtract;
  if (flags.op == "check") op = EngineRequest::Op::kIsNonEmpty;
  else if (flags.op == "count") op = EngineRequest::Op::kCount;
  else if (flags.op != "extract") return Usage();

  Result<std::unique_ptr<Corpus>> corpus = Corpus::Open(flags.positional[1]);
  if (!corpus.ok()) return Fail(corpus.status());
  Result<Query> query = Query::Compile(flags.positional[2], flags.alphabet);
  if (!query.ok()) return Fail(query.status());

  CorpusEvalOptions opts;
  opts.threads = static_cast<uint32_t>(flags.threads);
  if (op == EngineRequest::Op::kExtract) opts.limit = flags.limit;
  opts.prefilter = !flags.no_prefilter;
  opts.share_memo = !flags.no_share;

  const VariableSet& vars = query->vars();
  const auto start = std::chrono::steady_clock::now();
  CorpusEvalStats stats;
  const Status st = (*corpus)->Eval(
      *query, op, opts,
      [&](const CorpusDocResult& r) {
        if (!r.output.ok()) {
          std::fprintf(stderr, "%s: %s\n", r.name.c_str(),
                       r.output.status().ToString().c_str());
          return true;  // a bad document fails alone, the run continues
        }
        const EngineOutput& out = *r.output;
        switch (op) {
          case EngineRequest::Op::kIsNonEmpty:
            if (out.nonempty) std::printf("%s\n", r.name.c_str());
            break;
          case EngineRequest::Op::kCount:
            if (out.count.value > 0) {
              std::printf("%s\t%llu%s\n", r.name.c_str(),
                          static_cast<unsigned long long>(out.count.value),
                          out.count.exact ? "" : "+");
            }
            break;
          case EngineRequest::Op::kExtract:
            if (!out.tuples.empty()) {
              std::printf("%s\t%llu tuple(s)\n", r.name.c_str(),
                          static_cast<unsigned long long>(out.tuples.size()));
              if (flags.verbose) {
                for (const SpanTuple& t : out.tuples) {
                  std::printf(" ");
                  for (VarId v = 0; v < t.num_vars(); ++v) {
                    if (!t.Get(v).has_value()) {
                      std::printf(" %s=_", vars.Name(v).c_str());
                      continue;
                    }
                    std::printf(" %s=[%llu,%llu>", vars.Name(v).c_str(),
                                static_cast<unsigned long long>(t.Get(v)->begin),
                                static_cast<unsigned long long>(t.Get(v)->end));
                  }
                  std::printf("\n");
                }
              }
            }
            break;
        }
        return true;
      },
      &stats);
  if (!st.ok()) return Fail(st);

  std::printf("-- %llu scanned, %llu skipped by pre-filter, %llu evaluated, "
              "%llu failed, %llu matched in %.1f ms\n",
              static_cast<unsigned long long>(stats.docs_scanned),
              static_cast<unsigned long long>(stats.docs_skipped),
              static_cast<unsigned long long>(stats.docs_evaluated),
              static_cast<unsigned long long>(stats.docs_failed),
              static_cast<unsigned long long>(stats.docs_matched),
              MillisSince(start));
  if (stats.docs_prepared > 0) {
    std::printf("-- %llu prepared; %llu matrix ops, %llu memo hits "
                "(%.1f%% corpus-wide)%s\n",
                static_cast<unsigned long long>(stats.docs_prepared),
                static_cast<unsigned long long>(stats.prepare_products),
                static_cast<unsigned long long>(stats.prepare_memo_hits),
                100.0 * stats.memo_hit_rate(),
                opts.share_memo ? "" : " [isolated]");
  }
  if (stats.memo_fallbacks > 0) {
    std::printf("-- shared memo full: %llu preparation(s) fell back to "
                "isolated memos\n",
                static_cast<unsigned long long>(stats.memo_fallbacks));
  }
  return stats.docs_matched > 0 ? 0 : 3;
}

int CmdCorpus(const Flags& flags) {
  if (flags.positional.empty()) return Usage();
  if (flags.positional[0] == "build") return CmdCorpusBuild(flags);
  if (flags.positional[0] == "query") return CmdCorpusQuery(flags);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const Flags flags = ParseFlags(argc, argv);
  if (flags.parse_error) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "compress") return CmdCompress(flags);
  if (cmd == "decompress") return CmdDecompress(flags);
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "check") return CmdCheck(flags);
  if (cmd == "count") return CmdCount(flags);
  if (cmd == "extract") return CmdExtract(flags);
  if (cmd == "sample") return CmdSample(flags);
  if (cmd == "prepare") return CmdPrepare(flags);
  if (cmd == "batch") return CmdBatch(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "query") return CmdQuery(flags);
  if (cmd == "corpus") return CmdCorpus(flags);
  return Usage();
}
