#include "obs/metrics.hpp"

namespace dmps::obs {

std::int64_t Histogram::quantile(double q) const {
  const std::int64_t total = count();
  if (total <= 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the sample we want, 1-based; walk buckets until we pass it.
  const auto rank =
      static_cast<std::int64_t>(q * static_cast<double>(total - 1)) + 1;
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (seen >= rank) return bucket_upper_bound(b);
  }
  return bucket_upper_bound(kBuckets - 1);
}

}  // namespace dmps::obs
