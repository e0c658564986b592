// Over-aligned STL allocator for kernel-facing buffers.
//
// Tensor payloads (and device scratch) are allocated on cache-line/SIMD
// boundaries so the SIMD kernels and device uploads never hit the unaligned
// path: a 64-byte boundary covers AVX-512 loads, the common cache line, and
// the DMA granularity the Sunway model assumes. C++17 aligned operator new
// does the heavy lifting; the allocator only pins the alignment into the
// type so every std::vector using it inherits the guarantee.
#pragma once

#include <cstddef>
#include <new>

namespace ltns::util {

template <typename T, std::size_t Align>
struct AlignedAllocator {
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of two");
  static_assert(Align >= alignof(T), "alignment may not weaken the type's own");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
  }
};

template <typename T, typename U, std::size_t A>
bool operator==(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) noexcept {
  return true;
}
template <typename T, typename U, std::size_t A>
bool operator!=(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) noexcept {
  return false;
}

}  // namespace ltns::util
