// Experiment E9 — google-benchmark microbenchmarks for the kernels the
// complexity bounds are built from: the O(q^3/w) Boolean matrix product
// (Lemma 4.5), O(depth) SLP random access, the ⪯ comparison / sorted merge
// (Theorem 7.1), automaton normalization and subset construction.

#include <benchmark/benchmark.h>

#include "core/bool_matrix.h"
#include "core/tables.h"
#include "slp/factory.h"
#include "spanner/marker.h"
#include "spanner/spanner.h"
#include "util/rng.h"

namespace slpspan {
namespace {

BoolMatrix RandomMatrix(uint32_t n, uint64_t seed, uint32_t density_percent) {
  Rng rng(seed);
  BoolMatrix m(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      if (rng.Below(100) < density_percent) m.Set(i, j);
    }
  }
  return m;
}

void BM_BoolMatrixMultiply(benchmark::State& state) {
  const uint32_t q = static_cast<uint32_t>(state.range(0));
  const BoolMatrix a = RandomMatrix(q, 1, 20);
  const BoolMatrix b = RandomMatrix(q, 2, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoolMatrix::Multiply(a, b));
  }
  state.SetComplexityN(q);
}
BENCHMARK(BM_BoolMatrixMultiply)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Complexity(benchmark::oNCubed);

void BM_SlpSymbolAt(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  const Slp slp = SlpPowerString('a', k);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(slp.SymbolAt(1 + rng.Below(slp.DocumentLength())));
  }
}
BENCHMARK(BM_SlpSymbolAt)->Arg(10)->Arg(20)->Arg(30)->Arg(40);

MarkerSeq RandomSeq(Rng* rng, uint32_t entries) {
  std::vector<PosMark> pm;
  uint64_t pos = 0;
  for (uint32_t i = 0; i < entries; ++i) {
    pos += 1 + rng->Below(100);
    pm.push_back({pos, 1 + rng->Below(255)});
  }
  return MarkerSeq(std::move(pm));
}

void BM_MarkerSeqCompare(benchmark::State& state) {
  Rng rng(4);
  std::vector<MarkerSeq> seqs;
  for (int i = 0; i < 256; ++i) seqs.push_back(RandomSeq(&rng, 4));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MarkerSeq::Compare(seqs[i % 256], seqs[(i * 7 + 1) % 256]));
    ++i;
  }
}
BENCHMARK(BM_MarkerSeqCompare);

void BM_MergeSorted(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<MarkerSeq> a, b;
  for (size_t i = 0; i < n; ++i) {
    a.push_back(RandomSeq(&rng, 3));
    b.push_back(RandomSeq(&rng, 3));
  }
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeSorted(a, b));
  }
}
BENCHMARK(BM_MergeSorted)->Arg(64)->Arg(1024)->Arg(16384);

void BM_NormalizeAndDeterminize(benchmark::State& state) {
  Result<Spanner> sp = Spanner::Compile(".*x{(a|b)(a|b)*}.*y{c+}.*", "abc");
  SLPSPAN_CHECK(sp.ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Determinize(sp->normalized()));
  }
}
BENCHMARK(BM_NormalizeAndDeterminize);

void BM_EvalTablesBuild(benchmark::State& state) {
  Result<Spanner> sp = Spanner::Compile("(ab)*x{ab}(ab)*", "ab");
  SLPSPAN_CHECK(sp.ok());
  const Nfa nfa = AppendSentinel(Determinize(sp->normalized()).value());
  const Slp slp =
      SlpAppendSymbol(SlpRepeat("ab", uint64_t{1} << static_cast<uint32_t>(
                                          state.range(0))).value(),
                      kSentinelSymbol);
  for (auto _ : state) {
    EvalTables tables(slp, nfa);
    benchmark::DoNotOptimize(&tables);
  }
}
BENCHMARK(BM_EvalTablesBuild)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

}  // namespace
}  // namespace slpspan

BENCHMARK_MAIN();
