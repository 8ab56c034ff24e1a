// SpannerEvaluator — facade tying preparation, nonemptiness, model checking,
// counting and enumeration together behind one object (see core/evaluator.h).
#include "core/evaluator.h"

#include "core/compute.h"
#include "core/model_check.h"
#include "core/nonemptiness.h"
#include "slp/balance.h"
#include "slp/factory.h"

namespace slpspan {

SpannerEvaluator::SpannerEvaluator(const Spanner& spanner, EvaluatorOptions opts) {
  opts_ = opts;
  const Status st = Init(spanner);
  SLPSPAN_CHECK(st.ok());
}

Result<SpannerEvaluator> SpannerEvaluator::Make(const Spanner& spanner,
                                                EvaluatorOptions opts) {
  SpannerEvaluator ev;
  ev.opts_ = opts;
  Status st = ev.Init(spanner);
  if (!st.ok()) return st;
  return ev;
}

Status SpannerEvaluator::Init(const Spanner& spanner) {
  vars_ = spanner.vars();
  const Nfa& norm = spanner.normalized();
  nonempty_nfa_ = Normalize(ProjectMarkersToEps(norm));
  model_nfa_ = AppendSentinel(norm);
  Nfa eval = model_nfa_;
  if (opts_.determinize) {
    Result<Nfa> det = Determinize(eval);
    if (!det.ok()) return det.status();
    eval = Trim(*det);
  }
  eval_nfa_ = std::move(eval);
  if (eval_nfa_.NumStates() > kMaxEvalStates) {
    return Status::NotSupported(
        "evaluation automaton has " + std::to_string(eval_nfa_.NumStates()) +
        " states; the packed tables support at most " +
        std::to_string(kMaxEvalStates));
  }
  return Status::OK();
}

bool SpannerEvaluator::CheckNonEmptiness(const Slp& slp) const {
  return CheckNonEmptinessProjected(slp, nonempty_nfa_);
}

bool SpannerEvaluator::CheckNonEmptiness(const PreparedDocument& prep) const {
  return !prep.tables().AcceptingNonBot(prep.slp(), eval_nfa_).empty();
}

bool SpannerEvaluator::CheckModel(const Slp& slp, const SpanTuple& t) const {
  SLPSPAN_CHECK(t.num_vars() == num_vars());
  const Slp with_sentinel = SlpAppendSymbol(slp, kSentinelSymbol);
  return CheckModelPrepared(with_sentinel, model_nfa_, t);
}

PreparedDocument SpannerEvaluator::Prepare(const Slp& slp) const {
  return Prepare(slp, opts_.prepare, nullptr);
}

PreparedDocument SpannerEvaluator::Prepare(const Slp& slp,
                                           const PrepareOptions& opts,
                                           PrepareStats* stats) const {
  Slp doc = SlpAppendSymbol(slp, kSentinelSymbol);
  if (opts_.rebalance) doc = Rebalance(doc);
  EvalTables tables(doc, eval_nfa_, opts, stats);
  return PreparedDocument(std::move(doc), std::move(tables));
}

std::vector<MarkerSeq> SpannerEvaluator::ComputeAllMarkers(
    const PreparedDocument& prep) const {
  return ComputeAllMarkerSeqs(prep.slp(), eval_nfa_, prep.tables());
}

std::vector<SpanTuple> SpannerEvaluator::ComputeAll(const PreparedDocument& prep) const {
  std::vector<SpanTuple> out;
  for (const MarkerSeq& m : ComputeAllMarkers(prep)) {
    Result<SpanTuple> t = m.ToTuple(num_vars());
    SLPSPAN_CHECK(t.ok());  // spanner well-formedness guarantees pairing
    out.push_back(std::move(t).value());
  }
  return out;
}

std::vector<SpanTuple> SpannerEvaluator::ComputeAll(const Slp& slp) const {
  return ComputeAll(Prepare(slp));
}

CompressedEnumerator SpannerEvaluator::Enumerate(const PreparedDocument& prep) const {
  return CompressedEnumerator(&prep.slp(), &eval_nfa_, &prep.tables(), num_vars());
}

CountTables SpannerEvaluator::BuildCounter(const PreparedDocument& prep) const {
  return CountTables(prep.slp(), eval_nfa_, prep.tables(), opts_.prepare);
}

SpanTuple SpannerEvaluator::TupleOf(const MarkerSeq& markers) const {
  Result<SpanTuple> t = markers.ToTuple(num_vars());
  SLPSPAN_CHECK(t.ok());
  return std::move(t).value();
}

uint64_t SpannerEvaluator::CountAll(const Slp& slp) const {
  const PreparedDocument prep = Prepare(slp);
  uint64_t count = 0;
  for (CompressedEnumerator e = Enumerate(prep); e.Valid(); e.Next()) ++count;
  return count;
}

}  // namespace slpspan
