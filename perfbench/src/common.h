// Shared helpers of the perfbench harness: clocks, a seeded RNG, order
// statistics, an input hash and a small JSON writer. Nothing here touches
// the library; every layer is driven through its public entry points by the
// other files.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// splitmix64: the benchmark's only randomness, so one seed fixes every
/// input and schedule.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// FNV-1a over everything fed to it: the fingerprint that proves two runs
/// used the same inputs and schedule.
class InputHash {
 public:
  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<uint8_t>(c);
      h_ *= 0x100000001B3ull;
    }
  }
  void Add(uint64_t v) {
    Add(std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
inline double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double Median(std::vector<double> v) { return Percentile(v, 0.5); }

/// The highest of p99/p95/p90/p75/p50 that leaves at least ten samples
/// beyond it; returns the chosen fraction through `*p`.
inline double TailPercentile(std::vector<double>& v, double* p) {
  for (const double q : {0.99, 0.95, 0.90, 0.75}) {
    if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
      *p = q;
      return Percentile(v, q);
    }
  }
  *p = 0.5;
  return Percentile(v, 0.5);
}

/// Minimal JSON object writer (flat or nested via raw values).
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Raw(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += Quote(key) + ": " + raw;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// One reported metric: a value and its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
