#include "util/arena.h"

#include "util/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define SAF_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SAF_ARENA_ASAN 1
#endif
#endif

#ifdef SAF_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace saf::util {

namespace {

void poison(const void* p, std::size_t size) {
#ifdef SAF_ARENA_ASAN
  __asan_poison_memory_region(p, size);
#else
  (void)p;
  (void)size;
#endif
}

void unpoison(const void* p, std::size_t size) {
#ifdef SAF_ARENA_ASAN
  __asan_unpoison_memory_region(p, size);
#else
  (void)p;
  (void)size;
#endif
}

std::size_t align_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

}  // namespace

void* Arena::allocate(std::size_t size, std::size_t align) {
  SAF_CHECK(align != 0 && (align & (align - 1)) == 0);
  if (size == 0) size = 1;
  // Advance through retained chunks until one fits. Chunks are sized
  // kChunkSize (or the request, for oversized objects), so the scan is
  // at most one step in the steady state.
  while (active_ < chunks_.size()) {
    Chunk& c = chunks_[active_];
    const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
    const std::size_t at = align_up(base + c.used, align) - base;
    if (at + size <= c.size) {
      c.used = at + size;
      bytes_allocated_ += size;
      unpoison(c.data.get() + at, size);
      return c.data.get() + at;
    }
    ++active_;
  }
  const std::size_t chunk_size = size + align > kChunkSize ? size + align
                                                           : kChunkSize;
  chunks_.push_back(
      Chunk{std::make_unique<std::byte[]>(chunk_size), chunk_size, 0});
  active_ = chunks_.size() - 1;
  Chunk& c = chunks_.back();
  const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
  const std::size_t at = align_up(base, align) - base;
  c.used = at + size;
  bytes_allocated_ += size;
  return c.data.get() + at;
}

Arena::~Arena() {
  destroy_objects();
  // Chunks go back to the heap unpoisoned.
  for (const Chunk& c : chunks_) unpoison(c.data.get(), c.size);
}

void Arena::destroy_objects() {
  for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it) {
    it->fn(it->p);
  }
  dtors_.clear();
}

void Arena::reset() {
  destroy_objects();
  for (Chunk& c : chunks_) {
    poison(c.data.get(), c.used);
    c.used = 0;
  }
  active_ = 0;
  bytes_allocated_ = 0;
}

std::size_t Arena::bytes_reserved() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  return total;
}

}  // namespace saf::util
