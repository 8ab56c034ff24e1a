// Seeded inputs of the three workloads: the documents (text, compressor,
// file name), the pattern table and the request generators. The program
// under test only ever sees the files written here and the requests these
// generators produce; the same seed always yields the same bytes and the
// same schedule, which InputHash fingerprints.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "slpspan/document.h"
#include "wire.h"

namespace perfbench {

enum class Kind { kWarmStream, kSpillChurn, kCorpusScan };

struct DocInput {
  std::string name;    ///< file stem: "<name>.slp"
  std::string family;  ///< log / dna / refuted / neardup / distinct
  slpspan::Compression method = slpspan::Compression::kBalanced;
  std::string text;
};

/// Everything a workload is made of, generated from (kind, seed, smoke).
struct Inputs {
  Kind kind = Kind::kWarmStream;
  bool smoke = false;
  std::vector<DocInput> docs;

  /// Pattern ids below base_patterns.size() index this table; spill_churn
  /// derives higher ids in PatternText (a never-seen pattern per id).
  std::vector<std::string> base_patterns;

  /// warm_stream: the (doc, pattern) pairs requests draw from — each
  /// document with the patterns of its family. spill_churn: the revisit
  /// set P0 (every document x every base pattern), pre-warmed and spilled
  /// at set-up. corpus_scan: every matching document with the one query
  /// (pattern 0) run over the directory.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;

  std::string PatternText(uint32_t id) const;
  std::string DocName(uint32_t doc) const { return docs[doc].name; }
};

Inputs MakeInputs(Kind kind, uint64_t seed, bool smoke);

/// Alphabet every query is compiled over: the server default (printable
/// ASCII plus newline).
std::string QueryAlphabet();

const char* CompressionName(slpspan::Compression c);

/// Deterministic request stream of one phase. Closed-loop phases pull from
/// it on demand; open-loop phases take a prefix stamped with due times.
/// `phase` separates the fresh-pattern id ranges of the two wire phases.
///
/// The mix is stratified, not drawn independently: every block of
/// kBlock requests holds exactly the same number of each kind, in a seeded
/// order, and each kind walks its own seeded permutation of pairs (or
/// documents). The seed changes the inputs and the order, never the
/// proportions, so capacity does not swing with the draw.
class RequestGen {
 public:
  RequestGen(const Inputs& in, uint64_t seed, uint32_t phase);
  WireRequest Next();

  static constexpr size_t kBlock = 50;

 private:
  /// Next element of kind `k`'s walk over [0, n).
  uint32_t Walk(size_t k, size_t n);

  const Inputs& in_;
  Rng rng_;
  uint32_t next_fresh_;
  std::vector<uint8_t> block_;  // request kinds of the current block
  size_t pos_ = kBlock;
  std::vector<std::vector<uint32_t>> walks_;
  std::vector<size_t> walk_pos_;
  double limit_phase_;
};

/// Open-loop schedule: `rate` requests per second for `seconds`, evenly
/// spaced.
std::vector<WireRequest> OpenSchedule(const Inputs& in, uint64_t seed,
                                      double rate, double seconds);

/// Feeds documents, patterns and a schedule prefix into `h`.
void HashInputs(const Inputs& in, const std::vector<WireRequest>& schedule,
                InputHash* h);

/// Share of spill_churn requests that first-visit a new pair.
inline constexpr double kFreshShare = 0.2;

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
