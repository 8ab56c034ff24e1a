// Example: one query over a whole corpus of compressed documents.
//
// Builds a small mixed corpus on disk — server logs that contain the
// user we are looking for, logs that do not, and DNA sequences that
// cannot possibly match — then runs a single compiled query across all
// of it with Corpus::Eval. The point to watch in the output: the DNA
// documents are skipped by the sound pre-filter without ever being
// prepared (their summaries lack the query's required symbols), and the
// log documents that *are* prepared share one product memo, so most of
// their matrix products are interned instead of recomputed. Results are
// bit-identical with both optimizations off (try it: flip the two
// options below). See docs/CORPUS.md for the design.

#include <cstdio>
#include <filesystem>
#include <string>

#include "slpspan/slpspan.h"
#include "slpspan/textgen.h"

int main() {
  using namespace slpspan;
  namespace fs = std::filesystem;

  const std::string dir =
      (fs::temp_directory_path() / "slpspan_corpus_example").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  // A mixed corpus: 6 logs (every seed mentions user u7 somewhere), 4
  // DNA sequences (alphabet acgt — no 'u', no '=': provably no match).
  for (int i = 0; i < 6; ++i) {
    const std::string text = GenerateLog(
        {.lines = 400, .distinct_users = 9, .seed = static_cast<uint64_t>(100 + i)});
    Result<DocumentPtr> doc = Document::FromText(text);
    if (!doc.ok()) return 1;
    const std::string path =
        dir + "/log" + std::to_string(i) + ".slp";
    if (!(*doc)->Save(path).ok()) return 1;
  }
  for (int i = 0; i < 4; ++i) {
    Result<DocumentPtr> doc = Document::FromText(
        GenerateDna({.length = 20000, .seed = static_cast<uint64_t>(7 + i)}));
    if (!doc.ok()) return 1;
    const std::string path =
        dir + "/dna" + std::to_string(i) + ".slp";
    if (!(*doc)->Save(path).ok()) return 1;
  }

  Result<std::unique_ptr<Corpus>> corpus = Corpus::Open(dir);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  std::printf("corpus       : %zu distinct document(s) under %s\n",
              (*corpus)->documents().size(), dir.c_str());

  std::string alphabet;
  for (char c = 32; c < 127; ++c) alphabet += c;
  alphabet += '\n';
  Result<Query> query =
      Query::Compile(".*user=x{u7} action=y{[A-Z]+}.*", alphabet);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }

  std::printf("\ndocuments mentioning user u7 (count of (u7, action) hits):\n");
  CorpusEvalStats stats;
  const Status st = (*corpus)->Eval(
      *query, EngineRequest::Op::kCount,
      {.threads = 2, .prefilter = true, .share_memo = true},
      [](const CorpusDocResult& r) {
        if (!r.output.ok()) {
          std::fprintf(stderr, "  %-12s ERROR %s\n", r.name.c_str(),
                       r.output.status().ToString().c_str());
        } else if (r.output->count.value > 0) {
          std::printf("  %-12s %llu\n", r.name.c_str(),
                      static_cast<unsigned long long>(r.output->count.value));
        }
        return true;
      },
      &stats);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("\nscanned %llu, pre-filter skipped %llu, evaluated %llu, "
              "matched %llu\n",
              static_cast<unsigned long long>(stats.docs_scanned),
              static_cast<unsigned long long>(stats.docs_skipped),
              static_cast<unsigned long long>(stats.docs_evaluated),
              static_cast<unsigned long long>(stats.docs_matched));
  std::printf("prepared %llu document(s): %llu matrix op(s), %llu from a "
              "memo (%.1f%% hit rate), %llu shared / %llu fallback\n",
              static_cast<unsigned long long>(stats.docs_prepared),
              static_cast<unsigned long long>(stats.prepare_products),
              static_cast<unsigned long long>(stats.prepare_memo_hits),
              100.0 * stats.memo_hit_rate(),
              static_cast<unsigned long long>(stats.memo_shared_preparations),
              static_cast<unsigned long long>(stats.memo_fallbacks));

  fs::remove_all(dir);
  return 0;
}
