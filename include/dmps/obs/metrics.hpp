#pragma once
// dmps::obs metric instruments: Counter, Histogram.
//
// Design constraints (DESIGN.md §7): the instrumented hot path — the
// floor decide path inside the alloc-probed million sweep, the daemon's
// datagram loop — must stay steady-state allocation-free. So every
// instrument here is a fixed-size block of atomics:
//
//   Counter — one cache-line-aligned int64 cell, written with one relaxed
//     fetch_add. Exact under concurrent writers (fetch_add loses nothing);
//     alignment keeps two counters of one pack off a shared line.
//   Histogram — 32 power-of-two buckets plus sum and count, all relaxed
//     atomics. Exact under concurrency (fetch_add loses nothing); callers
//     that need to bound the per-op cost sample before recording (the
//     FloorService decide path records 1-in-64).
//
// Levels (queue depth, occupancy) are not pushed through an instrument:
// they live in component state and a registry callback gauge reads them
// at snapshot time (MetricsRegistry::gauge_callback).
//
// Instruments never allocate after construction and are neither copyable
// nor movable — a MetricsRegistry owns them at stable addresses and hands
// out references. Pre-register everything during setup; the hot loop
// then only ever touches preallocated atomics.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dmps::obs {

/// Monotonic event count: one relaxed fetch_add per add().
class alignas(64) Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::int64_t n = 1) { cell_.fetch_add(n, std::memory_order_relaxed); }

  std::int64_t value() const { return cell_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> cell_{0};
};

/// Fixed power-of-two-bucket histogram for non-negative integer samples
/// (latencies in ns/us, drain sizes). Bucket 0 holds v <= 0; bucket b >= 1
/// holds v with floor(log2 v) == b - 1, i.e. v in [2^(b-1), 2^b); the last
/// bucket absorbs everything larger. Exact count and sum under concurrent
/// record() — quantiles are upper-bound estimates from the bucket edges.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::int64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t bucket(std::size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  /// Upper edge of bucket `index` (0 for the v <= 0 bucket).
  static std::int64_t bucket_upper_bound(std::size_t index) {
    return index == 0 ? 0 : std::int64_t{1} << index;
  }

  /// Upper-bound estimate of the q-quantile (q in [0, 1]) from the bucket
  /// edges; 0 when empty.
  std::int64_t quantile(double q) const;

  static std::size_t bucket_index(std::int64_t v) {
    if (v <= 0) return 0;
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t log2 =
        63u - static_cast<std::size_t>(
                  __builtin_clzll(static_cast<unsigned long long>(v)));
#else
    std::size_t log2 = 0;
    for (std::uint64_t u = static_cast<std::uint64_t>(v); u >>= 1;) ++log2;
#endif
    const std::size_t index = log2 + 1;
    return index < kBuckets ? index : kBuckets - 1;
  }

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> count_{0};
};

}  // namespace dmps::obs
