// Quickstart: the full slpspan pipeline on the public API, in one file.
//
//   1. Query::Compile  — compile a spanner regex with variable captures,
//   2. Document::FromText — compress a document into a shared SLP handle,
//   3. Engine(query, doc) — run all four evaluation tasks *on the
//      compressed document*: non-emptiness (IsNonEmpty), model checking
//      (Matches), computation (ExtractAll), and streaming enumeration
//      (Extract — O(depth(S)·|X|) delay, early-exit capable).
//
// Only include/slpspan/ headers are used; errors surface as Status values,
// never as process aborts.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "slpspan/slpspan.h"

int main() {
  using namespace slpspan;

  // The paper's introduction example: documents over {a,b,c}; extract the
  // first 'a' as x and a following c-block as y.
  Result<Query> query = Query::Compile("(b|c)*x{a}.*y{cc*}.*", "abc");
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n", query.status().ToString().c_str());
    return 1;
  }

  const std::string document = "abcca";
  Result<DocumentPtr> doc = Document::FromText(document);
  if (!doc.ok()) {
    std::fprintf(stderr, "document error: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  const Slp::Stats stats = (*doc)->stats();
  std::printf("document  : \"%s\" (%llu symbols)\n", document.c_str(),
              static_cast<unsigned long long>(stats.document_length));
  std::printf("SLP       : %u non-terminals, size(S)=%llu, depth=%u\n",
              stats.non_terminals, static_cast<unsigned long long>(stats.paper_size),
              stats.depth);

  Engine engine(*query, *doc);

  // Task 1: non-emptiness (Theorem 5.1(1)).
  std::printf("non-empty : %s\n", engine.IsNonEmpty() ? "yes" : "no");

  // Task 2: model checking (Theorem 5.1(2)).
  SpanTuple candidate(2);
  candidate.Set(0, Span{1, 2});  // x = [1,2>
  candidate.Set(1, Span{3, 5});  // y = [3,5>
  Result<bool> member = engine.Matches(candidate);
  std::printf("member    : %s in result set? %s\n",
              candidate.ToString(query->vars()).c_str(),
              member.ok() && *member ? "yes" : "no");

  // Task 3: computation (Theorem 7.1).
  std::printf("compute   :\n");
  for (const SpanTuple& t : engine.ExtractAll()) {
    std::printf("  %s\n", t.ToString(query->vars()).c_str());
  }

  // Task 4: enumeration (Theorem 8.10) — streaming with O(depth(S) * |X|)
  // delay; the per-document preparation is paid once and cached in the
  // Document, shared by every Engine bound to it.
  std::printf("enumerate :\n");
  for (const SpanTuple& t : engine.Extract()) {
    std::printf("  x -> \"%s\"  y -> \"%s\"\n",
                document.substr(t.Get(0)->begin - 1, t.Get(0)->length()).c_str(),
                document.substr(t.Get(1)->begin - 1, t.Get(1)->length()).c_str());
  }
  return 0;
}
