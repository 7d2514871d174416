#pragma once
// Clang thread-safety analysis macros (DESIGN.md §10).
//
// These wrap clang's capability attributes so the locking contracts the
// floor stack states in comments ("guarded by mu_", "loop thread only",
// "setup phase only") become compile-time checkable: the clang CI leg
// builds with -Wthread-safety -Werror, so touching a guarded field without
// its lock is a build break, not a TSan roll of the dice. Under gcc (and
// any compiler without the attributes) every macro expands to nothing —
// the annotations are contracts, never code.
//
// Vocabulary (see util/sync.hpp for the annotated primitives):
//   DMPS_CAPABILITY(x)      — this class is a capability (a lock, or a
//                             thread role like "the loop thread").
//   DMPS_SCOPED_CAPABILITY  — RAII type that acquires in its constructor
//                             and releases in its destructor.
//   DMPS_GUARDED_BY(mu)     — field access requires holding mu.
//   DMPS_PT_GUARDED_BY(mu)  — pointee access requires holding mu.
//   DMPS_REQUIRES(mu)       — caller must hold mu (and still does after).
//   DMPS_ACQUIRE/RELEASE    — function takes / drops the capability.
//   DMPS_TRY_ACQUIRE(b, mu) — acquires mu only when returning b.
//   DMPS_EXCLUDES(mu)       — caller must NOT hold mu (non-reentrant entry
//                             points; the analysis' negative form).
//   DMPS_ASSERT_CAPABILITY  — runtime no-op telling the analysis the
//                             capability is held from here on. This is how
//                             single-threaded affinity contracts are
//                             stated: util::ThreadRole is a data-less
//                             capability, the owning thread's entry points
//                             assert it, and DMPS_GUARDED_BY(role) fields
//                             become unreachable from foreign code paths
//                             (the transport::UdpLoop / obs::Tracer
//                             "one thread drives this" contract).
//   DMPS_NO_THREAD_SAFETY_ANALYSIS — opt a function out; reserved for
//                             recursive acquisition the analysis cannot
//                             model (GroupRegistry::Batch) and documented
//                             per use (§10 suppression policy).

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DMPS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef DMPS_THREAD_ANNOTATION
#define DMPS_THREAD_ANNOTATION(x)  // not clang: contracts compile away
#endif

#define DMPS_CAPABILITY(x) DMPS_THREAD_ANNOTATION(capability(x))
#define DMPS_SCOPED_CAPABILITY DMPS_THREAD_ANNOTATION(scoped_lockable)
#define DMPS_GUARDED_BY(x) DMPS_THREAD_ANNOTATION(guarded_by(x))
#define DMPS_PT_GUARDED_BY(x) DMPS_THREAD_ANNOTATION(pt_guarded_by(x))
#define DMPS_REQUIRES(...) \
  DMPS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define DMPS_REQUIRES_SHARED(...) \
  DMPS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define DMPS_ACQUIRE(...) \
  DMPS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define DMPS_RELEASE(...) \
  DMPS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define DMPS_TRY_ACQUIRE(...) \
  DMPS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define DMPS_EXCLUDES(...) DMPS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define DMPS_ASSERT_CAPABILITY(x) \
  DMPS_THREAD_ANNOTATION(assert_capability(x))
#define DMPS_RETURN_CAPABILITY(x) DMPS_THREAD_ANNOTATION(lock_returned(x))
#define DMPS_NO_THREAD_SAFETY_ANALYSIS \
  DMPS_THREAD_ANNOTATION(no_thread_safety_analysis)
