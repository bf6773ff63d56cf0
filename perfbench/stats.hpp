// The benchmark's own arithmetic: percentiles with their sample counts, the
// geometric-mean overhead, failure fraction, the pass digest, and span
// self time. Header-only and free of simulator types so stats_test.cpp can
// check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile together with the number of samples it was taken over.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Linear interpolation between the closest ranks (the "R-7" definition,
/// as numpy's default): q in [0, 1]. An empty sample set yields {0, 0}.
inline Quantile percentile(std::vector<double> v, double q) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return {v[lo] + (v[hi] - v[lo]) * frac, v.size()};
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5).value;
}

/// Samples that lie strictly above the q-th percentile. The benchmark
/// reports a tail percentile only alongside this count, so a reader can see
/// whether at least ten samples sit beyond it.
inline std::size_t samples_beyond(const std::vector<double>& v, double q) {
  const double p = percentile(v, q).value;
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [p](double x) { return x > p; }));
}

/// Geometric mean of cost ratios (system cost / reference cost), minus one,
/// in percent. Every ratio must be positive; an empty set reads 0.
inline double geomean_overhead_pct(const std::vector<double>& ratios) {
  if (ratios.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double r : ratios) log_sum += std::log(r);
  return (std::exp(log_sum / static_cast<double>(ratios.size())) - 1.0) * 100.0;
}

/// Failed operations over attempted ones (0 when nothing was attempted).
inline double fail_frac(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

/// FNV-1a over the exact bit patterns of every simulated output of a pass.
/// Two passes (or two runs) agree only if every value agrees bit for bit.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One recorded call into a layer. `parent` is 0 for a root span; spans of
/// one benchmark operation share `op`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::string layer;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time per layer, in seconds: each span's duration minus the part of
/// its interval covered by its direct children (overlapping children are
/// merged, and clipped to the parent's interval).
inline std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::map<std::string, double> out;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

}  // namespace perfbench
