// Robustness & failure-injection tests: untrusted serialized grammars,
// adversarial regex inputs, and boundary-condition documents must never
// crash the library — they either work correctly or fail with a Status.

#include <string>

#include "gtest/gtest.h"
#include "core/evaluator.h"
#include "slpspan/document.h"
#include "slpspan/query.h"
#include "slp/factory.h"
#include "slp/lz77.h"
#include "slp/lz78.h"
#include "slp/repair.h"
#include "slp/serialize.h"
#include "spanner/ref_eval.h"
#include "spanner/spanner.h"
#include "test_util.h"
#include "util/rng.h"

namespace slpspan {
namespace {

// ---------------------------------------------------------------------------
// Serializer fuzzing: byte-level mutations of a valid file.
// ---------------------------------------------------------------------------

class SerializeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeFuzzTest, MutatedFilesNeverBreakInvariants) {
  Rng rng(GetParam() * 2654435761ull + 9);
  const Slp original = SlpFromString("fuzzing the serializer layer").value();
  const std::string good = SaveSlpToString(original);

  for (int trial = 0; trial < 200; ++trial) {
    std::string bad = good;
    const int mutations = 1 + static_cast<int>(rng.Below(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Below(bad.size());
      switch (rng.Below(3)) {
        case 0:  // overwrite with a random printable byte
          bad[pos] = static_cast<char>('0' + rng.Below(75));
          break;
        case 1:  // delete a byte
          bad.erase(pos, 1);
          break;
        default:  // duplicate a byte
          bad.insert(pos, 1, bad[pos]);
          break;
      }
      if (bad.empty()) bad = "x";
    }
    Result<Slp> loaded = LoadSlpFromString(bad);
    if (loaded.ok()) {
      // If it parsed, it must be a *valid* SLP (every invariant intact).
      EXPECT_TRUE(loaded->Validate().ok());
      EXPECT_GE(loaded->DocumentLength(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzzTest, ::testing::Range<uint64_t>(0, 6));

TEST(SerializeFuzz, TruncationsAtEveryBoundary) {
  const std::string good = SaveSlpToString(testing_util::MakeExample42Slp());
  for (size_t len = 0; len < good.size(); len += 3) {
    Result<Slp> loaded = LoadSlpFromString(good.substr(0, len));
    if (loaded.ok()) {
      EXPECT_TRUE(loaded->Validate().ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Regex parser fuzzing: random metacharacter soup must parse or error.
// ---------------------------------------------------------------------------

class RegexFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegexFuzzTest, RandomPatternsNeverCrash) {
  Rng rng(GetParam() * 48271 + 3);
  const std::string pieces = "ab|*+?(){}[].\\^-x ";
  for (int trial = 0; trial < 300; ++trial) {
    std::string pattern;
    const uint64_t len = rng.Below(18);
    for (uint64_t i = 0; i < len; ++i) pattern += pieces[rng.Below(pieces.size())];
    Result<Spanner> sp = Spanner::Compile(pattern, "ab ");
    if (sp.ok()) {
      // Compiled spanners must be evaluable end to end.
      SpannerEvaluator ev(*sp);
      (void)ev.CheckNonEmptiness(SlpFromString("abab").value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexFuzzTest, ::testing::Range<uint64_t>(0, 6));

// ---------------------------------------------------------------------------
// Boundary-condition documents and spanners.
// ---------------------------------------------------------------------------

TEST(Robustness, SingleSymbolDocumentAllTasks) {
  Result<Spanner> sp = Spanner::Compile("x{a}|a", "a");
  ASSERT_TRUE(sp.ok());
  SpannerEvaluator ev(*sp);
  const Slp slp = SlpFromString("a").value();
  EXPECT_TRUE(ev.CheckNonEmptiness(slp));
  const std::vector<SpanTuple> all = ev.ComputeAll(slp);
  // Two results: x = [1,2> and x undefined (the bare-'a' branch).
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(ev.CountAll(slp), 2u);
}

TEST(Robustness, BinaryAlphabetExtremes) {
  // Bytes 0x00 and 0xFF in documents and patterns.
  const std::string doc{'\x00', '\xff', '\x00', '\xff'};
  const std::string alphabet{'\x00', '\xff'};
  Result<Spanner> sp = Spanner::Compile(".*x{\\0}.*", alphabet);
  ASSERT_TRUE(sp.ok());
  SpannerEvaluator ev(*sp);
  RefEvaluator ref(*sp);
  for (const Slp& slp : {SlpFromString(doc).value(), RePairCompress(doc), Lz78Compress(doc)}) {
    testing_util::ExpectSameTupleSet(ref.ComputeAll(doc), ev.ComputeAll(slp));
  }
}

TEST(Robustness, MaxVariableCount) {
  // 32 variables — the encoding limit — all captured in one match.
  std::string pattern;
  std::string doc;
  for (int v = 0; v < 32; ++v) {
    pattern += "v" + std::to_string(v) + "{a}";
    doc += 'a';
  }
  Result<Spanner> sp = Spanner::Compile(pattern, "a");
  ASSERT_TRUE(sp.ok());
  SpannerEvaluator ev(*sp);
  const std::vector<SpanTuple> all = ev.ComputeAll(SlpFromString(doc).value());
  ASSERT_EQ(all.size(), 1u);
  for (VarId v = 0; v < 32; ++v) {
    ASSERT_TRUE(all[0].Get(v).has_value());
    EXPECT_EQ(all[0].Get(v)->begin, v + 1);
  }
}

TEST(Robustness, ThirtyThreeVariablesRejected) {
  std::string pattern;
  for (int v = 0; v < 33; ++v) pattern += "v" + std::to_string(v) + "{a}";
  Result<Spanner> sp = Spanner::Compile(pattern, "a");
  ASSERT_FALSE(sp.ok());
  EXPECT_EQ(sp.status().code(), StatusCode::kNotSupported);
}

// "the 21st symbol from the end of x is an a": determinizing it needs 2^21
// subset states. Compilation used to abort inside the subset construction;
// it must stop at the packed-table cap and fail with a Status.
TEST(Robustness, DeterminizationBlowUpRejected) {
  std::string pattern = "x{(a|b)*a";
  for (int g = 0; g < 20; ++g) pattern += "(a|b)";
  pattern += "}";
  Result<Query> query = Query::Compile(pattern, "ab");
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kNotSupported);
  // Without determinization the automaton stays linear in the pattern.
  EXPECT_TRUE(Query::Compile(pattern, "ab", {.determinize = false}).ok());
}

TEST(Robustness, VeryDeepGrammarsDoNotOverflowTheStack) {
  // 30k-deep chain grammars exercise every recursive path that descends the
  // derivation (splice, enumeration tree build, AVL rebalance).
  const std::string doc(30000, 'a');
  const Slp chain = SlpChainFromString(doc).value();
  Result<Spanner> sp = Spanner::Compile("a*x{aa}a*", "a");
  ASSERT_TRUE(sp.ok());
  SpannerEvaluator ev(*sp);
  SpanTuple t(1);
  t.Set(0, Span{15000, 15002});
  EXPECT_TRUE(ev.CheckModel(chain, t));
  const Slp balanced = Rebalance(chain);
  EXPECT_LE(balanced.depth(), 25u);
  EXPECT_EQ(ev.CountAll(balanced), 29999u);
}

TEST(Robustness, PathologicalAlternationFanout) {
  // 64-way alternation with optional captures — stresses normalization and
  // determinization without blowing up.
  std::string pattern = "x{a}";
  for (int i = 0; i < 63; ++i) pattern += "|x{a}b";
  Result<Spanner> sp = Spanner::Compile(pattern, "ab");
  ASSERT_TRUE(sp.ok());
  SpannerEvaluator ev(*sp);
  EXPECT_EQ(ev.ComputeAll(SlpFromString("ab").value()).size(), 1u);
  EXPECT_EQ(ev.ComputeAll(SlpFromString("a").value()).size(), 1u);
  EXPECT_TRUE(ev.ComputeAll(SlpFromString("b").value()).empty());
}

TEST(Robustness, RepeatedPreparationIsDeterministic) {
  const Spanner sp = testing_util::MakeFigure2Spanner();
  SpannerEvaluator ev(sp);
  const Slp slp = RePairCompress(std::string("aabccaabaa"));
  const std::vector<SpanTuple> first = ev.ComputeAll(slp);
  for (int i = 0; i < 5; ++i) {
    testing_util::ExpectSameTupleSet(first, ev.ComputeAll(slp));
  }
}

// ---------------------------------------------------------------------------
// Factory preconditions: bad caller input returns Status, never aborts.
// ---------------------------------------------------------------------------

TEST(Robustness, FactoryRejectsEmptyInputsWithStatus) {
  // An SLP derives exactly one non-empty string, so every content-dependent
  // factory must reject emptiness as kInvalidArgument (these used to abort).
  EXPECT_EQ(SlpFromString("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(SlpFromSymbols({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SlpChainFromString("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SlpRepeat("", 3).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(SlpRepeat("ab", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SlpFibonacci(0).status().code(), StatusCode::kInvalidArgument);
}

TEST(Robustness, FactoryAcceptsMinimalInputs) {
  // The smallest legal instance of each rejecting factory still works.
  EXPECT_EQ(SlpFromString("a").value().ExpandToString(), "a");
  EXPECT_EQ(SlpFromSymbols({'z'}).value().ExpandToString(), "z");
  EXPECT_EQ(SlpChainFromString("q").value().ExpandToString(), "q");
  EXPECT_EQ(SlpRepeat("ab", 1).value().ExpandToString(), "ab");
  EXPECT_EQ(SlpFibonacci(1).value().ExpandToString(), "b");
}

TEST(Robustness, EmptyDocumentRejectedThroughPublicApi) {
  // Document::FromText routes through the same factory path; the error must
  // surface as a Status at the API boundary for every compression method.
  for (const Compression method :
       {Compression::kBalanced, Compression::kRePair, Compression::kLz78,
        Compression::kLz77}) {
    Result<DocumentPtr> doc = Document::FromText("", method);
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Robustness, CompressorsOnAllByteValues) {
  std::string doc;
  for (int rep = 0; rep < 4; ++rep) {
    for (int b = 0; b < 256; ++b) doc += static_cast<char>(b);
  }
  EXPECT_EQ(RePairCompress(doc).ExpandToString(), doc);
  EXPECT_EQ(Lz78Compress(doc).ExpandToString(), doc);
  EXPECT_EQ(Lz77Compress(doc).ExpandToString(), doc);
  EXPECT_EQ(SlpFromString(doc).value().ExpandToString(), doc);
}

}  // namespace
}  // namespace slpspan
