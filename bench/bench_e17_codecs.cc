// Experiment E17 — what a .prep bundle costs on disk.
//
// Over the E11 storage workloads (log 1k / log 16k / dna 256k), export the
// prepared state with the one bundle writer (format v2, bitpacked integer
// streams) and report its size and disk-warm load time. The acceptance
// bar, asserted by exit code:
//
//   (a) each bundle is at most its recorded size — 41 896, 587 974 and
//       346 683 bytes, what bitpacking wrote when it was still one choice
//       among several stream codecs — so the encoding never grows;
//   (b) every bundle loads back and answers Count identically to the
//       in-memory preparation — compression never trades away correctness.
//
// The load time lets the E11 ≥10× disk-warm story be sanity-checked
// against the decode cost; E11 itself enforces that bar.
//
// Emits one JSON document ("JSON: " line and --json=PATH) extending the
// BENCH_*.json trajectory.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "slpspan/slpspan.h"
#include "slpspan/textgen.h"

namespace slpspan {
namespace {

std::string TempDir() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "slpspan_e17").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

bool BundleSizes(const std::string& dir, bench::Json* json) {
  bench::Table table("E17: bundle bytes per workload",
                     {"workload", "bytes", "bound", "KiB", "t_load (us)"});

  struct Workload {
    const char* name;
    std::string text;
    const char* pattern;
    std::string alphabet;
    uint64_t max_bytes;
  };
  std::string ascii;
  for (char c = 32; c < 127; ++c) ascii += c;
  ascii += '\n';
  const Workload workloads[] = {
      {"log 1k lines", GenerateLog({.lines = 1000, .seed = 5}),
       ".*user=x{u[0-9]+}.*", ascii, 41896},
      {"log 16k lines", GenerateLog({.lines = 16000, .seed = 6}),
       ".*user=x{u[0-9]+}.*", ascii, 587974},
      {"dna 256k",
       GenerateDna({.length = 1 << 18, .motif_rate = 0.001, .seed = 7}),
       ".*x{ACGTACGT}.*", "ACGT", 346683},
  };

  bool ok = true;
  uint64_t sum_bytes = 0;
  std::vector<std::string> rows;
  int wi = 0;
  for (const Workload& w : workloads) {
    ++wi;
    Result<Query> query = Query::Compile(w.pattern, w.alphabet);
    SLPSPAN_CHECK(query.ok());
    const DocumentPtr doc = *Document::FromText(w.text);
    const uint64_t expected = Engine(*query, doc).Count()->value;

    const std::string path = dir + "/w" + std::to_string(wi) + ".prep";
    SLPSPAN_CHECK(doc->SavePrepared(*query, path).ok());
    const uint64_t bytes = std::filesystem::file_size(path);
    sum_bytes += bytes;
    // (a) the size bound.
    if (bytes > w.max_bytes) {
      std::fprintf(stderr, "E17 FAIL: %s bundle is %llu B > %llu B\n",
                   w.name, static_cast<unsigned long long>(bytes),
                   static_cast<unsigned long long>(w.max_bytes));
      ok = false;
    }

    // (b) correctness: load into a fresh wrapper and re-answer Count.
    const double t_load = bench::TimeSeconds([&] {
      const DocumentPtr fresh = Document::FromSlp(doc->slp());
      SLPSPAN_CHECK(fresh->LoadPrepared(*query, path).ok());
      SLPSPAN_CHECK(Engine(*query, fresh).Count().ok());
    });
    const DocumentPtr warm = Document::FromSlp(doc->slp());
    SLPSPAN_CHECK(warm->LoadPrepared(*query, path).ok());
    if (Engine(*query, warm).Count()->value != expected) {
      std::fprintf(stderr, "E17 FAIL: %s loads a wrong count\n", w.name);
      ok = false;
    }

    table.AddRow({w.name, std::to_string(bytes), std::to_string(w.max_bytes),
                  bench::FmtDouble(static_cast<double>(bytes) / 1024, 1),
                  bench::FmtMicros(t_load)});
    bench::Json row;
    row.Put("workload", std::string(w.name));
    row.Put("bytes", bytes);
    row.Put("max_bytes", w.max_bytes);
    row.Put("t_load_us", t_load * 1e6);
    rows.push_back(row.Str());
  }
  table.Print();

  std::printf("\nE17 corpus: %llu bundle bytes\n",
              static_cast<unsigned long long>(sum_bytes));
  json->PutRaw("e17_bundles", bench::Json::Array(rows));
  json->Put("e17_sum_bytes", sum_bytes);
  json->Put("e17_pass", std::string(ok ? "true" : "false"));
  return ok;
}

}  // namespace
}  // namespace slpspan

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  const std::string dir = slpspan::TempDir();
  slpspan::bench::Json json;
  json.Put("bench", std::string("e17_codecs"));
  const bool ok = slpspan::BundleSizes(dir, &json);
  std::filesystem::remove_all(dir);

  const std::string out = json.Str();
  std::printf("\nJSON: %s\n", out.c_str());
  if (!json_path.empty()) {
    std::ofstream f(json_path);
    f << out << "\n";
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}
