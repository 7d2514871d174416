#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <unordered_map>
#include <vector>

#include "util/duration.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/small_vec.hpp"

namespace {

using dmps::util::Duration;
using dmps::util::Rng;
using dmps::util::TimePoint;

TEST(Duration, ConstructorsAndConversions) {
  EXPECT_EQ(Duration::millis(1500).to_seconds(), 1.5);
  EXPECT_EQ(Duration::seconds(2).to_millis(), 2000.0);
  EXPECT_EQ(Duration::from_seconds(0.25).raw_nanos(), 250'000'000);
  EXPECT_EQ(Duration::from_millis(37.0), Duration::millis(37));
  EXPECT_EQ(Duration::zero().raw_nanos(), 0);
  // Rounding is to nearest, symmetric around zero.
  EXPECT_EQ(Duration::from_seconds(1e-9 * 0.6).raw_nanos(), 1);
  EXPECT_EQ(Duration::from_seconds(-1e-9 * 0.6).raw_nanos(), -1);
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::seconds(3);
  const Duration b = Duration::millis(500);
  EXPECT_EQ((a + b).to_seconds(), 3.5);
  EXPECT_EQ((a - b).to_seconds(), 2.5);
  EXPECT_EQ((b * 4.0), Duration::seconds(2));
  EXPECT_EQ((a / 2.0), Duration::millis(1500));
  EXPECT_LT(-a, Duration::zero());
  EXPECT_GT(a, b);
}

TEST(TimePoint, ArithmeticAgainstDuration) {
  const TimePoint t = TimePoint::from_seconds(10.0);
  EXPECT_EQ((t + Duration::seconds(5)).to_seconds(), 15.0);
  EXPECT_EQ((t - Duration::seconds(4)).to_seconds(), 6.0);
  EXPECT_EQ(t - TimePoint::from_seconds(7.5), Duration::from_seconds(2.5));
  EXPECT_EQ(TimePoint::zero().raw_nanos(), 0);
  EXPECT_LT(TimePoint::zero(), t);
}

TEST(StrongId, DistinctTypesAndValidity) {
  using AId = dmps::util::StrongId<struct ATag>;
  const AId unset;
  EXPECT_FALSE(unset.valid());
  const AId a{3};
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.value(), 3u);
  EXPECT_NE(a, unset);
  EXPECT_EQ(a, AId{3});

  std::unordered_map<AId, int, dmps::util::IdHash> map;
  map[a] = 7;
  EXPECT_EQ(map.at(AId{3}), 7);
}

TEST(Rng, DeterministicAndInRange) {
  Rng a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);

  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(r.index(5), 5u);
  }
}

using dmps::util::SmallVec;

TEST(SmallVec, StaysInlineUpToCapacityThenSpills) {
  SmallVec<std::int64_t, 4> v;
  EXPECT_TRUE(v.empty());
  for (std::int64_t i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.inline_storage());
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);  // spills to the heap
  EXPECT_FALSE(v.inline_storage());
  EXPECT_EQ(v.size(), 5u);
  for (std::int64_t i = 0; i < 5; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVec, InitializerListCopyMoveAndEquality) {
  const SmallVec<std::int64_t, 4> a{1, 2, 3};
  EXPECT_TRUE(a.inline_storage());
  SmallVec<std::int64_t, 4> b = a;  // copy
  EXPECT_EQ(a, b);
  b.push_back(4);
  EXPECT_NE(a, b);

  SmallVec<std::int64_t, 2> big{1, 2, 3, 4, 5};  // heap from the start
  EXPECT_FALSE(big.inline_storage());
  SmallVec<std::int64_t, 2> stolen = std::move(big);  // steals the heap block
  EXPECT_EQ(stolen.size(), 5u);
  EXPECT_EQ(big.size(), 0u);
  EXPECT_EQ(stolen, (SmallVec<std::int64_t, 2>{1, 2, 3, 4, 5}));

  // Moving an inline payload copies it and empties the source.
  SmallVec<std::int64_t, 4> moved = std::move(b);
  EXPECT_EQ(moved.size(), 4u);
  EXPECT_EQ(b.size(), 0u);
}

TEST(SmallVec, AtBoundsChecksAndClearKeepsStorage) {
  SmallVec<std::int64_t, 2> v{7, 8, 9};
  EXPECT_EQ(v.at(2), 9);
  EXPECT_THROW(v.at(3), std::out_of_range);
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
}

}  // namespace
