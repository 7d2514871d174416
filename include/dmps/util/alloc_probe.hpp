#pragma once
// AllocProbe: a per-thread heap-allocation counter the bench binaries feed.
//
// The library never counts allocations itself — it only reads the counter.
// A binary that wants real numbers overrides the global operator new to
// call alloc_probe_bump() (bench_fcm_arbitrate does, outside sanitizer
// builds, where replacing operator new would fight the sanitizer's own
// interceptors); everywhere else the counter just stays at zero. This lets
// the million-station sweep assert "zero steady-state allocations in the
// warm pass" with an actual counter instead of a code-review promise,
// while costing production consumers nothing.

#include <cstdint>

namespace dmps::util {

/// Heap allocations observed on the calling thread (0 unless the binary
/// installed a counting operator new).
std::uint64_t alloc_probe_count();

/// Called by a binary's operator new override. Never called by the library.
void alloc_probe_bump();

}  // namespace dmps::util
