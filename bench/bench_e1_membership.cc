// Experiment E1 — Theorem 5.1(1): non-emptiness in O(size(S) * q^3) data
// complexity, versus the O(d)-scan on the uncompressed document.
//
// Documents: (ab)^(2^k) represented by SLPs of size O(k). The compressed
// check must scale linearly in s = O(k) while the uncompressed baseline
// scales linearly in d = 2^(k+1); on highly compressible inputs the
// compressed check wins by orders of magnitude (the paper's "sublinear data
// complexity" regime, Section 1.3).
//
// Runs on the public facade: on a pair with no resident prepared state,
// Engine::IsNonEmpty runs the Theorem 5.1(1) pass without preparing, so the
// measured cost is exactly that pass.

#include <cinttypes>

#include "harness.h"
#include "slpspan/reference.h"
#include "slpspan/slpspan.h"

namespace slpspan {
namespace {

void RunE1() {
  const std::string pattern = ".*x{abba}.*|.*y{bb}.*";
  Result<Query> query = Query::Compile(pattern, "ab");
  SLPSPAN_CHECK(query.ok());
  Result<Spanner> sp = Spanner::Compile(pattern, "ab");
  RefEvaluator ref(*sp);

  bench::Table table(
      "E1: non-emptiness — compressed O(s) vs uncompressed O(d) scan",
      {"k", "d", "size(S)", "t_slp (us)", "t_scan (us)", "t_scan/t_slp"});

  for (uint32_t k = 8; k <= 24; k += 2) {
    const DocumentPtr doc = Document::FromSlp(SlpRepeat("ab", uint64_t{1} << k).value());
    const uint64_t d = doc->length();
    const Engine engine(*query, doc);

    const double t_slp = bench::TimeSeconds([&] {
      volatile bool r = engine.IsNonEmpty();
      (void)r;
    });

    // The uncompressed baseline pays for the scan (documents above 64M
    // symbols are skipped to keep the binary quick; the trend is established
    // long before that).
    double t_scan = -1;
    if (d <= (1ull << 26)) {
      const std::string text = doc->slp().ExpandToString();
      t_scan = bench::TimeSeconds([&] {
        volatile bool r = ref.CheckNonEmptiness(text);
        (void)r;
      });
    }

    table.AddRow({std::to_string(k), bench::FmtCount(d),
                  std::to_string(doc->slp().PaperSize()), bench::FmtMicros(t_slp),
                  t_scan < 0 ? "(skipped)" : bench::FmtMicros(t_scan),
                  t_scan < 0 ? "-" : bench::FmtDouble(t_scan / t_slp, 1)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: t_slp grows ~linearly in size(S) (i.e. in k), the\n"
      "scan ~linearly in d = 2^(k+1); the ratio roughly doubles per row.\n");
}

}  // namespace
}  // namespace slpspan

int main() {
  slpspan::RunE1();
  return 0;
}
