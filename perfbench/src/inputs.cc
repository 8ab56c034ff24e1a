// Seeded workload inputs — see inputs.h.

#include "inputs.h"

#include <cstdio>

#include "slpspan/textgen.h"

namespace perfbench {

using slpspan::Compression;

namespace {

constexpr const char* kActions[] = {"GET",  "PUT",  "POST", "DEL",
                                    "HEAD", "LIST", "SCAN", "STAT"};

/// Fresh spill_churn pattern ids: phase p uses [p * kFreshStride, ...).
constexpr uint32_t kFreshStride = 500000;

std::string Name(const char* prefix, size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%03zu", prefix, i);
  return buf;
}

void WarmStream(Inputs* in, Rng& rng) {
  const uint64_t lines = in->smoke ? 400 : 4000;
  const uint64_t dna = in->smoke ? 16384 : 131072;
  struct Spec {
    const char* family;
    Compression method;
  };
  const Spec specs[] = {{"log", Compression::kBalanced},
                        {"log", Compression::kLz78},
                        {"dna", Compression::kBalanced},
                        {"dna", Compression::kLz78}};
  for (const Spec& s : specs) {
    DocInput d;
    d.family = s.family;
    d.method = s.method;
    d.name = d.family + "_" + CompressionName(s.method);
    if (d.family == "log") {
      d.text = slpspan::GenerateLog(
          {.lines = lines, .distinct_actions = 8, .seed = rng.Next()});
    } else {
      d.text = slpspan::GenerateDna(
          {.length = dna, .motif_rate = 0.002, .seed = rng.Next()});
    }
    in->docs.push_back(std::move(d));
  }
  // Three patterns per family. The first two match about once per log
  // line / per 32 bases, so extract limits in the low thousands are never
  // met early; the third is selective.
  in->base_patterns = {
      ".*ts=x{[0-9]+} .*",
      ".*user=x{u[0-9]+} action=y{[A-Z]+} .*",
      ".*action=x{POST} status=y{500}.*",
      ".*x{A[CG]T}.*",
      ".*x{G[AT]}y{C[AG]}.*",
      ".*x{ACGTACGT}.*",
  };
  for (uint32_t d = 0; d < in->docs.size(); ++d) {
    const uint32_t first = in->docs[d].family == "log" ? 0 : 3;
    for (uint32_t p = first; p < first + 3; ++p) in->pairs.emplace_back(d, p);
  }
}

void SpillChurn(Inputs* in, Rng& rng) {
  const size_t docs = in->smoke ? 8 : 24;
  const Compression methods[] = {Compression::kLz78, Compression::kBalanced,
                                 Compression::kRePair};
  for (size_t i = 0; i < docs; ++i) {
    DocInput d;
    d.family = "log";
    d.method = methods[i % 3];
    d.name = Name("s", i);
    d.text = slpspan::GenerateLog(
        {.lines = 400, .distinct_actions = 8, .seed = rng.Next()});
    in->docs.push_back(std::move(d));
  }
  const uint32_t users = in->smoke ? 4 : 8;
  for (uint32_t u = 0; u < users; ++u) {
    in->base_patterns.push_back(".*user=x{u" + std::to_string(u) +
                                "} action=y{[A-Z]+} .*");
    in->base_patterns.push_back(std::string(".*action=x{") + kActions[u] +
                                "} status=y{[0-9]+}.*");
  }
  for (uint32_t d = 0; d < in->docs.size(); ++d) {
    for (uint32_t p = 0; p < in->base_patterns.size(); ++p) {
      in->pairs.emplace_back(d, p);
    }
  }
}

/// Point edits on a few random log lines: same length, different bytes.
std::string NearDuplicate(const std::string& base, Rng& rng) {
  std::string out = base;
  for (int e = 0; e < 3; ++e) {
    size_t pos = out.find(" user=u", rng.Below(out.size()));
    if (pos == std::string::npos) pos = out.find(" user=u");
    out[pos + 7] = static_cast<char>('0' + rng.Below(8));
  }
  return out;
}

void CorpusScan(Inputs* in, Rng& rng) {
  const size_t per_family = in->smoke ? 8 : 80;
  const uint64_t lines = 120;
  const std::string base = slpspan::GenerateLog(
      {.lines = lines, .distinct_actions = 8, .seed = rng.Next()});
  for (size_t i = 0; i < per_family; ++i) {
    // Refuted: only GET/PUT/POST/DEL, so no "SCAN" — the pre-filter's
    // required digrams rule the document out before preparation.
    DocInput refuted{Name("r", i), "refuted", Compression::kLz78,
                     slpspan::GenerateLog({.lines = lines,
                                           .distinct_actions = 4,
                                           .seed = rng.Next()})};
    DocInput dup{Name("n", i), "neardup", Compression::kRePair,
                 NearDuplicate(base, rng)};
    DocInput distinct{Name("m", i), "distinct", Compression::kRePair,
                      slpspan::GenerateLog({.lines = lines,
                                            .distinct_actions = 8,
                                            .seed = rng.Next()})};
    in->docs.push_back(std::move(refuted));
    in->docs.push_back(std::move(dup));
    in->pairs.emplace_back(static_cast<uint32_t>(in->docs.size()), 0);
    in->docs.push_back(std::move(distinct));
  }
  in->base_patterns = {".*action=x{SCAN} status=y{[0-9]+}.*"};
}

}  // namespace

std::string QueryAlphabet() {
  std::string a;
  for (char c = 32; c < 127; ++c) a += c;
  a += '\n';
  return a;
}

const char* CompressionName(Compression c) {
  switch (c) {
    case Compression::kRePair:
      return "repair";
    case Compression::kLz78:
      return "lz78";
    case Compression::kLz77:
      return "lz77";
    case Compression::kBalanced:
      return "balanced";
  }
  return "?";
}

std::string Inputs::PatternText(uint32_t id) const {
  if (id < base_patterns.size()) return base_patterns[id];
  // A first-visit pattern: distinct text (and automaton) per id, same shape
  // and cost for every id, so each first visit pays one compile.
  char buf[96];
  std::snprintf(buf, sizeof buf, ".*ts=x{[0-9]*%06u} user=y{u[0-9]+}.*",
                id - static_cast<uint32_t>(base_patterns.size()));
  return buf;
}

Inputs MakeInputs(Kind kind, uint64_t seed, bool smoke) {
  Inputs in;
  in.kind = kind;
  in.smoke = smoke;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(kind));
  switch (kind) {
    case Kind::kWarmStream:
      WarmStream(&in, rng);
      break;
    case Kind::kSpillChurn:
      SpillChurn(&in, rng);
      break;
    case Kind::kCorpusScan:
      CorpusScan(&in, rng);
      break;
  }
  return in;
}

RequestGen::RequestGen(const Inputs& in, uint64_t seed, uint32_t phase)
    : in_(in),
      rng_(seed ^ (0xA5A5A5A5ull + phase)),
      next_fresh_(static_cast<uint32_t>(in.base_patterns.size()) +
                  phase * kFreshStride),
      walks_(3),
      walk_pos_(3, 0),
      limit_phase_(rng_.Unit()) {}

uint32_t RequestGen::Walk(size_t k, size_t n) {
  std::vector<uint32_t>& w = walks_[k];
  if (walk_pos_[k] == w.size()) {
    w.resize(n);
    for (uint32_t i = 0; i < n; ++i) w[i] = i;
    for (size_t i = n; i > 1; --i) std::swap(w[i - 1], w[rng_.Below(i)]);
    walk_pos_[k] = 0;
  }
  return w[walk_pos_[k]++];
}

namespace {

// Request kinds within a block.
enum : uint8_t { kCountKind, kCheckKind, kExtractKind, kFreshKind };

}  // namespace

WireRequest RequestGen::Next() {
  using slpspan::net::WireOp;
  if (pos_ == kBlock) {
    // warm_stream: 70% count, 4% check, 26% extract; spill_churn: 80%
    // revisits, 20% first visits (kFreshShare).
    block_.clear();
    if (in_.kind == Kind::kSpillChurn) {
      const size_t fresh = static_cast<size_t>(kFreshShare * kBlock);
      block_.assign(fresh, kFreshKind);
      block_.resize(kBlock, kCountKind);
    } else {
      block_.assign(2, kCheckKind);
      block_.resize(2 + 13, kExtractKind);
      block_.resize(kBlock, kCountKind);
    }
    for (size_t i = kBlock; i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.Below(i)]);
    }
    pos_ = 0;
  }
  const uint8_t kind = block_[pos_++];
  WireRequest r;
  if (kind == kFreshKind) {
    r.op = WireOp::kCount;
    r.doc = Walk(0, in_.docs.size());
    r.pattern = next_fresh_++;
    return r;
  }
  if (in_.kind == Kind::kSpillChurn) {
    // Revisits draw uniformly from P0, so the RAM/disk split is set by the
    // cache, not by the walk.
    const auto& [d, p] = in_.pairs[rng_.Below(in_.pairs.size())];
    r.op = WireOp::kCount;
    r.doc = d;
    r.pattern = p;
    return r;
  }
  const auto& [d, p] = in_.pairs[Walk(kind, in_.pairs.size())];
  r.doc = d;
  r.pattern = p;
  switch (kind) {
    case kCheckKind:
      r.op = WireOp::kCheck;
      break;
    case kExtractKind:
      // Batch extract, limit in [1000, 3000] along a golden-ratio sequence:
      // evenly spread, and successive limits differ, so identical requests
      // rarely coalesce.
      r.op = WireOp::kExtract;
      r.priority = 1;
      limit_phase_ += 0.6180339887498949;
      limit_phase_ -= static_cast<double>(static_cast<int>(limit_phase_));
      r.limit = 1000 + static_cast<uint64_t>(limit_phase_ * 2000);
      break;
    default:
      r.op = WireOp::kCount;
      break;
  }
  return r;
}

std::vector<WireRequest> OpenSchedule(const Inputs& in, uint64_t seed,
                                      double rate, double seconds) {
  RequestGen gen(in, seed, /*phase=*/1);
  const size_t n = static_cast<size_t>(rate * seconds);
  std::vector<WireRequest> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    WireRequest r = gen.Next();
    r.due_ns = static_cast<uint64_t>(static_cast<double>(i) * 1e9 / rate);
    out.push_back(r);
  }
  return out;
}

void HashInputs(const Inputs& in, const std::vector<WireRequest>& schedule,
                InputHash* h) {
  for (const DocInput& d : in.docs) {
    h->Add(d.name);
    h->Add(static_cast<uint64_t>(d.method));
    h->Add(d.text);
  }
  for (const std::string& p : in.base_patterns) h->Add(p);
  for (const WireRequest& r : schedule) {
    h->Add(static_cast<uint64_t>(r.op) | (uint64_t{r.priority} << 8) |
           (uint64_t{r.doc} << 16) | (uint64_t{r.pattern} << 40));
    h->Add(r.limit);
    h->Add(r.due_ns);
  }
}

}  // namespace perfbench
