// Integration tests: full pipelines from raw text through compression,
// (de)serialization, balancing and evaluation, cross-validated against the
// uncompressed reference evaluator on realistic generated workloads — all
// driven through the public facade (Document / Query / Engine).

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "slpspan/reference.h"
#include "slpspan/slpspan.h"
#include "slpspan/textgen.h"
#include "test_util.h"

namespace slpspan {
namespace {

using testing_util::ExpectSameTupleSet;

std::string FullAsciiAlphabet() {
  std::string alphabet;
  for (char c = 32; c < 127; ++c) alphabet += c;
  alphabet += '\n';
  return alphabet;
}

std::vector<SpanTuple> DrainStream(const Engine& engine) {
  std::vector<SpanTuple> out;
  for (ResultStream s = engine.Extract(); s.Valid(); s.Next()) {
    out.push_back(s.Current());
  }
  return out;
}

/// Answers ⟦M⟧(D) ≠ ∅ three ways and checks each against `expected`: cold
/// (`doc` holds no prepared state for `query`: Theorem 5.1 membership, which
/// must leave the cache untouched), with the Lemma 6.5 tables resident after
/// PreparedFor, and with them resident in a fresh Document after a
/// SavePrepared/LoadPrepared round trip. The hit counter tells which path
/// answered.
void ExpectNonEmptinessOnEveryPath(const Query& query, const DocumentPtr& doc,
                                   bool expected) {
  const Document::CacheStats before = doc->cache_stats();
  EXPECT_EQ(expected, Engine(query, doc).IsNonEmpty()) << "cold";
  const Document::CacheStats cold = doc->cache_stats();
  EXPECT_EQ(before.misses, cold.misses) << "a cold check must not prepare";
  EXPECT_EQ(before.entries, cold.entries) << "a cold check adds no entry";
  EXPECT_EQ(before.hits, cold.hits) << "the pair was not resident";

  (void)doc->PreparedFor(query);
  const uint64_t hits = doc->cache_stats().hits;
  EXPECT_EQ(expected, Engine(query, doc).IsNonEmpty()) << "resident";
  EXPECT_EQ(hits + 1, doc->cache_stats().hits) << "answered from the tables";

  const std::string path = ::testing::TempDir() + "/slpspan_nonempty.prep";
  ASSERT_TRUE(doc->SavePrepared(query, path).ok());
  const DocumentPtr reloaded = Document::FromSlp(doc->slp());
  ASSERT_TRUE(reloaded->LoadPrepared(query, path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(expected, Engine(query, reloaded).IsNonEmpty()) << "loaded";
  const Document::CacheStats loaded = reloaded->cache_stats();
  EXPECT_EQ(1u, loaded.hits) << "answered from the loaded tables";
  EXPECT_EQ(0u, loaded.misses);
}

TEST(Integration, LogPipelineExtractErrorActions) {
  const std::string log = GenerateLog({.lines = 120, .distinct_users = 4, .seed = 21});
  const std::string pattern = ".*user=x{u[0-9]+} action=y{[A-Z]+} status=500\n.*";
  Result<Query> query = Query::Compile(pattern, FullAsciiAlphabet());
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  Result<Spanner> sp = Spanner::Compile(pattern, FullAsciiAlphabet());
  ASSERT_TRUE(sp.ok());
  RefEvaluator ref(*sp);
  const std::vector<SpanTuple> expected = ref.ComputeAll(log);

  for (Compression method :
       {Compression::kRePair, Compression::kLz78, Compression::kBalanced}) {
    Result<DocumentPtr> doc = Document::FromText(log, method);
    ASSERT_TRUE(doc.ok());
    ASSERT_EQ((*doc)->slp().ExpandToString(), log);
    ExpectNonEmptinessOnEveryPath(*query, *doc, !expected.empty());
    const Engine engine(*query, *doc);
    ExpectSameTupleSet(expected, engine.ExtractAll());
    ExpectSameTupleSet(expected, DrainStream(engine));
  }
}

// IsNonEmpty answers from resident tables when it can and by membership
// otherwise; every path must agree with the uncompressed reference, for
// determinized, non-determinized and rebalancing queries alike, on matching
// and non-matching pairs.
TEST(Integration, NonEmptinessAgreesOnEveryPath) {
  const std::string log =
      GenerateLog({.lines = 120, .distinct_users = 4, .seed = 21});
  struct Case {
    std::string text, pattern, alphabet;
  };
  const std::vector<Case> cases = {
      {log, ".*user=x{u[0-9]+} action=y{[A-Z]+} status=500\n.*",
       FullAsciiAlphabet()},
      {log, ".*status=x{999}.*", FullAsciiAlphabet()},
      {"abccaabcca", ".*x{a}y{b?cc*}.*", "abc"},
      {"bcbcbcabc", "(b|c)*x{a}.*y{cc*}.*", "abc"},
      {"ccbbccbbccbb", ".*x{a}.*", "abc"},
      {"aabbaabbaabb", "x{b}", "abc"},
      {GenerateRepeated("abbcab", 40) + "cc", ".*x{ca}y{b+}.*", "abc"},
      {GenerateRepeated("abbcab", 40) + "cc", ".*x{cc}y{a}.*", "abc"},
  };
  const QueryOptions option_sets[] = {
      {}, {.determinize = false}, {.rebalance = true}};
  int nonempty_cases = 0;
  for (const Case& c : cases) {
    Result<Spanner> sp = Spanner::Compile(c.pattern, c.alphabet);
    ASSERT_TRUE(sp.ok()) << c.pattern;
    const bool expected = RefEvaluator(*sp).CheckNonEmptiness(c.text);
    nonempty_cases += expected ? 1 : 0;
    for (const QueryOptions& opts : option_sets) {
      Result<Query> query = Query::Compile(c.pattern, c.alphabet, opts);
      ASSERT_TRUE(query.ok()) << c.pattern;
      for (Compression method :
           {Compression::kRePair, Compression::kLz78, Compression::kBalanced}) {
        Result<DocumentPtr> doc = Document::FromText(c.text, method);
        ASSERT_TRUE(doc.ok());
        SCOPED_TRACE(c.pattern + " determinize=" +
                     std::to_string(opts.determinize) +
                     " rebalance=" + std::to_string(opts.rebalance));
        ExpectNonEmptinessOnEveryPath(*query, *doc, expected);
      }
    }
  }
  // Both answers must be represented for the comparison to mean anything.
  EXPECT_GT(nonempty_cases, 0);
  EXPECT_LT(nonempty_cases, static_cast<int>(cases.size()));
}

TEST(Integration, DnaMotifContextExtraction) {
  const std::string dna =
      GenerateDna({.length = 3000, .motif = "ACGTACGT", .motif_rate = 0.004,
                   .seed = 22});
  // Capture each planted motif with one base of left/right context.
  const std::string pattern = ".*l{[ACGT]}m{ACGTACGT}r{[ACGT]}.*";
  Result<Query> query = Query::Compile(pattern, "ACGT");
  ASSERT_TRUE(query.ok());
  Result<Spanner> sp = Spanner::Compile(pattern, "ACGT");
  ASSERT_TRUE(sp.ok());
  RefEvaluator ref(*sp);
  Result<DocumentPtr> doc = Document::FromText(dna);
  ASSERT_TRUE(doc.ok());
  ExpectSameTupleSet(ref.ComputeAll(dna), Engine(*query, *doc).ExtractAll());
}

TEST(Integration, VersionedDocPipelineWithSerialization) {
  const std::string text =
      GenerateVersionedDoc({.base_length = 250, .versions = 8, .seed = 23});
  Result<DocumentPtr> compressed = Document::FromText(text);
  ASSERT_TRUE(compressed.ok());

  // Persist, reload, evaluate on the reloaded grammar.
  const std::string path = ::testing::TempDir() + "/slpspan_integration.slp";
  ASSERT_TRUE((*compressed)->Save(path).ok());
  Result<DocumentPtr> reloaded = Document::FromSlpFile(path);
  ASSERT_TRUE(reloaded.ok());
  std::remove(path.c_str());

  const std::string pattern = ".*x{ the }.*";
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz ,.\n";
  Result<Query> query = Query::Compile(pattern, alphabet);
  ASSERT_TRUE(query.ok());
  Result<Spanner> sp = Spanner::Compile(pattern, alphabet);
  ASSERT_TRUE(sp.ok());
  RefEvaluator ref(*sp);
  ExpectSameTupleSet(ref.ComputeAll(text),
                     Engine(*query, *reloaded).ExtractAll());
}

TEST(Integration, HugeSyntheticDocumentBeyondExpansion) {
  // A document of ~10^9 symbols defined purely by grammar: (ab)^(2^29).
  // Evaluation must finish off the 31-rule SLP; expansion would be 1 GiB.
  Result<Query> query = Query::Compile("(ab)*x{ab}(ab)*", "ab");
  ASSERT_TRUE(query.ok());
  CnfAssembler a;
  NtId ab = a.Pair(a.Leaf('a'), a.Leaf('b'));
  for (int i = 0; i < 29; ++i) ab = a.Pair(ab, ab);
  const DocumentPtr doc = Document::FromSlp(a.Finish(ab));
  ASSERT_EQ(doc->length(), 1ull << 30);

  const Engine engine(*query, doc);
  EXPECT_TRUE(engine.IsNonEmpty());
  // Model-check a specific deep match without expanding anything.
  Result<bool> deep =
      engine.Matches(testing_util::Tup({Span{999999999, 1000000001}}));
  ASSERT_TRUE(deep.ok());
  EXPECT_TRUE(*deep);  // odd begin
  Result<bool> off =
      engine.Matches(testing_util::Tup({Span{1000000000, 1000000002}}));
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(*off);  // even begin
  // Stream just the first 1000 of the 2^29 results with bounded delay.
  uint64_t taken = 0;
  for (const SpanTuple& t : engine.Extract({.limit = 1000})) {
    ASSERT_TRUE(t.Get(0).has_value());
    EXPECT_EQ(t.Get(0)->begin % 2, 1u);
    ++taken;
  }
  EXPECT_EQ(taken, 1000u);
  // And the counting extension sees all 2^29 without enumerating them.
  Result<CountInfo> count = engine.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->value, 1ull << 29);
}

TEST(Integration, FibonacciDocumentFactorSpans) {
  // All occurrences of "ab" in the 18th Fibonacci word, compressed natively.
  Result<Query> query = Query::Compile(".*x{ab}.*", "ab");
  ASSERT_TRUE(query.ok());
  const DocumentPtr fib = Document::FromSlp(SlpFibonacci(18).value());
  ASSERT_EQ(fib->length(), 2584u);  // fib(18)
  Result<Spanner> sp = Spanner::Compile(".*x{ab}.*", "ab");
  ASSERT_TRUE(sp.ok());
  RefEvaluator ref(*sp);
  const std::vector<SpanTuple> expected =
      ref.ComputeAll(fib->slp().ExpandToString());
  ExpectSameTupleSet(expected, Engine(*query, fib).ExtractAll());
  EXPECT_GT(expected.size(), 500u);
}

TEST(Integration, MixedTasksOnOneDocument) {
  const std::string text = GenerateRepeated("abbcab", 40) + "cc";
  const Spanner sp = testing_util::MakeFigure2Spanner();
  Result<Query> query = Query::FromAutomaton(sp.raw(), sp.vars());
  ASSERT_TRUE(query.ok());
  RefEvaluator ref(sp);
  const DocumentPtr doc =
      Document::FromSlp(Rebalance((*Document::FromText(text))->slp()));

  ExpectNonEmptinessOnEveryPath(*query, doc, ref.CheckNonEmptiness(text));
  const Engine engine(*query, doc);
  const std::vector<SpanTuple> expected = ref.ComputeAll(text);
  ExpectSameTupleSet(expected, engine.ExtractAll());
  ExpectSameTupleSet(expected, DrainStream(engine));
  for (size_t i = 0; i < expected.size(); i += 37) {
    Result<bool> member = engine.Matches(expected[i]);
    ASSERT_TRUE(member.ok());
    EXPECT_TRUE(*member);
  }
}

}  // namespace
}  // namespace slpspan
