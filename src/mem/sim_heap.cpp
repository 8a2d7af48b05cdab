#include "mem/sim_heap.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include <sys/mman.h>

namespace aam::mem {

void* map_zero_pages(std::size_t bytes) {
  // mmap rejects a zero length; an empty array still gets a valid pointer.
  void* p = mmap(nullptr, std::max<std::size_t>(bytes, 1),
                 PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    char msg[96];
    std::snprintf(msg, sizeof(msg), "mmap of %zu zero-filled bytes failed",
                  bytes);
    AAM_CHECK_MSG(p != MAP_FAILED, msg);
  }
  return p;
}

void unmap_pages(void* p, std::size_t bytes) {
  munmap(p, std::max<std::size_t>(bytes, 1));
}

SimHeap::SimHeap(std::size_t capacity)
    : storage_((capacity + kLineBytes - 1) / kLineBytes * kLineBytes) {}

std::byte* SimHeap::raw_alloc(std::size_t bytes, std::size_t align,
                              std::string_view label) {
  const std::size_t aligned_used = (used_ + align - 1) & ~(align - 1);
  const bool fits = aligned_used <= capacity_bytes() &&
                    bytes <= capacity_bytes() - aligned_used;
  if (!fits) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "SimHeap out of capacity: %zu B requested with %zu of "
                  "%zu B in use",
                  bytes, used_, capacity_bytes());
    AAM_CHECK_MSG(fits, msg);
  }
  std::byte* p = base() + aligned_used;
  used_ = aligned_used + bytes;
  allocs_.push_back(AllocRecord{static_cast<std::uint64_t>(aligned_used),
                                static_cast<std::uint64_t>(bytes),
                                std::string(label)});
  return p;
}

const SimHeap::AllocRecord* SimHeap::find_alloc(std::uint64_t offset) const {
  // Allocations are recorded in address order; find the last one starting
  // at or before `offset` and check it covers the offset.
  const auto it = std::upper_bound(
      allocs_.begin(), allocs_.end(), offset,
      [](std::uint64_t off, const AllocRecord& a) { return off < a.offset; });
  if (it == allocs_.begin()) return nullptr;
  const AllocRecord& a = *(it - 1);
  if (offset >= a.offset + a.bytes) return nullptr;  // alignment gap
  return &a;
}

std::string SimHeap::describe(std::uint64_t offset) const {
  const AllocRecord* a = find_alloc(offset);
  if (a == nullptr) return "?";
  std::string name = a->label;
  if (name.empty()) {
    name = "alloc#" + std::to_string(a - allocs_.data());
  }
  char delta[32];
  std::snprintf(delta, sizeof(delta), "+0x%llx",
                static_cast<unsigned long long>(offset - a->offset));
  return name + delta;
}

}  // namespace aam::mem
