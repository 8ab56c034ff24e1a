// Tests for the (M,S)-tree machinery (core/mtree.h): the Lemma 8.4 size
// bound, duplicate-free tree enumeration (Lemma 8.9), and the Figure 4 tree
// from paper Example 8.2.

#include <set>
#include <string>

#include "gtest/gtest.h"
#include "core/mtree.h"
#include "slp/factory.h"
#include "test_util.h"

namespace slpspan {
namespace {

using testing_util::MakeExample42Slp;
using testing_util::MakeFigure2Spanner;

struct Fixture {
  Slp slp;
  Nfa nfa;
  EvalTables tables;
  uint32_t num_vars;

  static Fixture Figure2OnExample42() {
    const Spanner sp = MakeFigure2Spanner();
    Nfa nfa = AppendSentinel(Normalize(sp.raw()));
    Slp slp = SlpAppendSymbol(MakeExample42Slp(), kSentinelSymbol);
    EvalTables tables(slp, nfa);
    return Fixture{std::move(slp), std::move(nfa), std::move(tables), 2};
  }

  Fixture(Slp s, Nfa n, EvalTables t, uint32_t v)
      : slp(std::move(s)), nfa(std::move(n)), tables(std::move(t)), num_vars(v) {}
};

TEST(MTreeCursor, KIterationOverRoot) {
  Fixture fx = Fixture::Figure2OnExample42();
  MTreeCursor cursor(&fx.slp, &fx.tables);
  const std::vector<StateId> fprime = fx.tables.AcceptingNonBot(fx.slp, fx.nfa);
  ASSERT_EQ(fprime.size(), 1u);
  const StateId j = fprime[0];
  // The root has R = 1 (there are marked results), so Ī is a set of real
  // intermediate states, iterated in ascending order.
  int32_t k = cursor.FirstK(fx.slp.root(), 0, j);
  ASSERT_GE(k, 0);
  std::vector<int32_t> ks;
  while (k != kExhaustedK) {
    ks.push_back(k);
    k = cursor.NextK(fx.slp.root(), 0, j, k);
  }
  EXPECT_FALSE(ks.empty());
  for (size_t i = 1; i < ks.size(); ++i) EXPECT_LT(ks[i - 1], ks[i]);
}

TEST(MTreeCursor, EnumeratesDistinctTreesWithinSizeBound) {
  Fixture fx = Fixture::Figure2OnExample42();
  MTreeCursor cursor(&fx.slp, &fx.tables);
  const std::vector<StateId> fprime = fx.tables.AcceptingNonBot(fx.slp, fx.nfa);

  const uint32_t size_bound = 4 * 2 * fx.num_vars * fx.slp.depth();
  std::set<std::string> seen;
  uint64_t total = 0;
  for (StateId j : fprime) {
    for (int32_t k = cursor.FirstK(fx.slp.root(), 0, j); k != kExhaustedK;
         k = cursor.NextK(fx.slp.root(), 0, j, k)) {
      cursor.Init(fx.slp.root(), 0, j, k);
      do {
        ++total;
        EXPECT_LE(cursor.NumLiveNodes(), size_bound);  // Lemma 8.4
        EXPECT_TRUE(seen.insert(cursor.DebugString()).second)
            << "duplicate tree";
        ASSERT_LT(total, 100000u) << "tree enumeration runaway";
      } while (cursor.Advance());
    }
  }
  // 24 result tuples for this fixture; each tree yields >= 1 of them, so
  // there are at most 24 trees, and at least one.
  EXPECT_GE(total, 1u);
  EXPECT_LE(total, 24u);
}

TEST(MTreeCursor, TerminalLeavesHaveAscendingShifts) {
  Fixture fx = Fixture::Figure2OnExample42();
  MTreeCursor cursor(&fx.slp, &fx.tables);
  const std::vector<StateId> fprime = fx.tables.AcceptingNonBot(fx.slp, fx.nfa);
  std::vector<MTreeCursor::TermLeaf> leaves;
  for (StateId j : fprime) {
    for (int32_t k = cursor.FirstK(fx.slp.root(), 0, j); k != kExhaustedK;
         k = cursor.NextK(fx.slp.root(), 0, j, k)) {
      cursor.Init(fx.slp.root(), 0, j, k);
      do {
        cursor.CollectTermLeaves(&leaves);
        EXPECT_LE(leaves.size(), 2u * fx.num_vars);  // Lemma 8.4
        for (size_t i = 1; i < leaves.size(); ++i) {
          EXPECT_LT(leaves[i - 1].shift, leaves[i].shift);
        }
        for (const auto& leaf : leaves) {
          EXPECT_TRUE(fx.slp.IsLeaf(leaf.nt));
          EXPECT_LT(leaf.shift, fx.slp.DocumentLength());
        }
      } while (cursor.Advance());
    }
  }
}

TEST(MTreeCursor, Figure4TreeExists) {
  // Example 8.2: some (M,S0)-tree has exactly two terminal leaves — T_c at
  // shift 3 (yield {(<y,1)}) and T_a at shift 5 (yield {(>y,1)}) — which is
  // the Figure 4 tree for the tuple (x=⊥, y=[4,6>).
  Fixture fx = Fixture::Figure2OnExample42();
  MTreeCursor cursor(&fx.slp, &fx.tables);
  const std::vector<StateId> fprime = fx.tables.AcceptingNonBot(fx.slp, fx.nfa);
  bool found = false;
  std::vector<MTreeCursor::TermLeaf> leaves;
  for (StateId j : fprime) {
    for (int32_t k = cursor.FirstK(fx.slp.root(), 0, j); k != kExhaustedK;
         k = cursor.NextK(fx.slp.root(), 0, j, k)) {
      cursor.Init(fx.slp.root(), 0, j, k);
      do {
        cursor.CollectTermLeaves(&leaves);
        if (leaves.size() == 2 && leaves[0].shift == 3 && leaves[1].shift == 5 &&
            fx.slp.LeafSymbol(leaves[0].nt) == 'c' &&
            fx.slp.LeafSymbol(leaves[1].nt) == 'a') {
          const auto& cell0 = fx.tables.LeafCell(leaves[0].nt, leaves[0].i,
                                                 leaves[0].j);
          const auto& cell1 = fx.tables.LeafCell(leaves[1].nt, leaves[1].i,
                                                 leaves[1].j);
          if (std::count(cell0.begin(), cell0.end(), OpenMarker(1)) == 1 &&
              std::count(cell1.begin(), cell1.end(), CloseMarker(1)) == 1) {
            found = true;
          }
        }
      } while (cursor.Advance());
    }
  }
  EXPECT_TRUE(found);
}

TEST(MTreeCursor, MaintainedLeafListMatchesFullWalkOnEveryTree) {
  // Advance() splices the terminal-leaf list instead of re-walking the tree;
  // after every step it must equal a from-scratch traversal, and the tree
  // must stay within the Lemma 8.4 size bound (at most 2|X| terminal leaves,
  // each under one root path of <= depth(S) inner nodes, each inner node
  // with two children).
  const std::string docs[] = {"aabccaabaa", "abccaabccaabccabbacbacabbacc"};
  const Spanner spanners[] = {MakeFigure2Spanner(), testing_util::MakeIntroSpanner()};
  std::vector<MTreeCursor::TermLeaf> walked;
  uint64_t trees = 0;
  for (const Spanner& sp : spanners) {
    const Nfa nfa = AppendSentinel(Normalize(sp.raw()));
    const uint32_t num_vars = sp.num_vars();
    for (const std::string& doc : docs) {
      for (testing_util::SlpKind kind : testing_util::AllSlpKinds()) {
        SCOPED_TRACE(doc + " " + testing_util::SlpKindName(kind));
        const Slp slp =
            SlpAppendSymbol(testing_util::MakeSlp(kind, doc), kSentinelSymbol);
        const EvalTables tables(slp, nfa);
        MTreeCursor cursor(&slp, &tables);
        const uint32_t node_bound = 4 * num_vars * slp.depth() + 1;
        for (StateId j : tables.AcceptingNonBot(slp, nfa)) {
          for (int32_t k = cursor.FirstK(slp.root(), 0, j); k != kExhaustedK;
               k = cursor.NextK(slp.root(), 0, j, k)) {
            cursor.Init(slp.root(), 0, j, k);
            do {
              ++trees;
              cursor.CollectTermLeaves(&walked);
              ASSERT_TRUE(cursor.term_leaves() == walked) << "tree #" << trees;
              EXPECT_LE(walked.size(), 2u * num_vars);
              EXPECT_LE(cursor.NumLiveNodes(), node_bound);
            } while (cursor.Advance());
          }
        }
      }
    }
  }
  EXPECT_GT(trees, 100u);
}

TEST(MTreeCursor, BaseCaseSingletonTree) {
  // A spanner that accepts unmarked documents: R_S0 = ℮ root gives the
  // single-node ℮ tree and exactly one (empty) yield.
  Result<Spanner> sp = Spanner::Compile("a*", "a");
  ASSERT_TRUE(sp.ok());
  Nfa nfa = AppendSentinel(sp->normalized());
  Slp slp = SlpAppendSymbol(SlpFromString("aaaa").value(), kSentinelSymbol);
  EvalTables tables(slp, nfa);
  MTreeCursor cursor(&slp, &tables);
  const std::vector<StateId> fprime = tables.AcceptingNonBot(slp, nfa);
  ASSERT_EQ(fprime.size(), 1u);
  const int32_t k = cursor.FirstK(slp.root(), 0, fprime[0]);
  EXPECT_EQ(k, kBaseCase);
  cursor.Init(slp.root(), 0, fprime[0], k);
  EXPECT_EQ(cursor.NumLiveNodes(), 1u);
  std::vector<MTreeCursor::TermLeaf> leaves;
  cursor.CollectTermLeaves(&leaves);
  EXPECT_TRUE(leaves.empty());
  EXPECT_FALSE(cursor.Advance());
  EXPECT_EQ(cursor.NextK(slp.root(), 0, fprime[0], k), kExhaustedK);
}

}  // namespace
}  // namespace slpspan
