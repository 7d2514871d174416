#pragma once
// PoolAllocator: a free-list node allocator for the ordered grant indexes.
//
// GrantStore already recycles grant *slots* through a free list, so slot
// count is bounded by peak concurrency; its per-host (priority, seq)
// std::map indexes, however, still paid one global-heap malloc per node on
// every commit and one free on every release — the hottest per-op
// allocations left on the arbitration path. PoolAllocator extends the same
// free-list discipline to those nodes: deallocated single nodes park in a
// pool shared by every copy/rebind of the allocator and satisfy later
// single-node allocations without touching the heap. Once a container has
// seen its peak population, steady-state insert/erase cycles allocate
// nothing.
//
// Scope, deliberately narrow: single-threaded containers only (each
// per-shard index map has one owner), and the pool recycles exactly
// one node size — the first single-object allocation claims it; anything
// else (array allocations, differently-sized rebinds) passes through to
// the global heap untouched.

#include <cstddef>
#include <memory>
#include <vector>

namespace dmps::util {

template <typename T>
class PoolAllocator {
  template <typename U>
  friend class PoolAllocator;

  struct Pool {
    std::vector<void*> free;
    std::size_t slot_size = 0;  // claimed by the first single-object alloc
    ~Pool() {
      for (void* p : free) ::operator delete(p);
    }
  };

 public:
  using value_type = T;

  PoolAllocator() : pool_(std::make_shared<Pool>()) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : pool_(other.pool_) {}

  T* allocate(std::size_t n) {
    if (n == 1) {
      Pool& pool = *pool_;
      if (pool.slot_size == 0) pool.slot_size = sizeof(T);
      if (pool.slot_size == sizeof(T) && !pool.free.empty()) {
        void* p = pool.free.back();
        pool.free.pop_back();
        return static_cast<T*>(p);
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (n == 1 && pool_->slot_size == sizeof(T)) {
      pool_->free.push_back(p);
      return;
    }
    ::operator delete(p);
  }

  friend bool operator==(const PoolAllocator& a, const PoolAllocator& b) {
    return a.pool_ == b.pool_;
  }
  friend bool operator!=(const PoolAllocator& a, const PoolAllocator& b) {
    return !(a == b);
  }

 private:
  std::shared_ptr<Pool> pool_;
};

}  // namespace dmps::util
