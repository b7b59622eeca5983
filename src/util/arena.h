// Bump-pointer arena allocator for per-simulation object pools.
//
// A Simulator owns one Arena and carves every protocol message out of it.
// Allocation is a pointer bump (no per-object malloc on the hot path);
// nothing is freed individually — reset() destroys everything at once and
// keeps the chunks for the next run, so a reset-and-rerun cycle reaches a
// steady state with zero allocator traffic. Objects with non-trivial
// destructors are tracked and destroyed in reverse creation order.
//
// Under AddressSanitizer, reset() poisons the bytes the chunks handed
// out and allocate() unpoisons each block it returns, so a read through
// a pointer kept across a reset is reported as a use-after-poison
// until a later allocation hands that slot out again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace saf::util {

class Arena {
 public:
  /// Capacity of one regular chunk (larger objects get a chunk of their
  /// own size).
  static constexpr std::size_t kChunkSize = 64 * 1024;

  Arena() = default;
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Constructs a T in the arena. The object lives until reset() (or the
  /// arena's destruction); it is never freed individually.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    T* obj = new (p) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.push_back(Dtor{obj, [](void* q) { static_cast<T*>(q)->~T(); }});
    }
    return obj;
  }

  /// Raw aligned storage; lives until reset(). `align` must be a power
  /// of two.
  void* allocate(std::size_t size, std::size_t align);

  /// Destroys all arena objects (reverse creation order) and rewinds the
  /// bump pointers. Chunk memory is retained for reuse.
  void reset();

  /// Bytes handed out since the last reset (diagnostics / benches).
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  /// Total chunk capacity currently held.
  std::size_t bytes_reserved() const;

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };
  struct Dtor {
    void* p;
    void (*fn)(void*);
  };

  /// Runs the tracked destructors (reverse creation order).
  void destroy_objects();

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< chunks_[active_] receives allocations
  std::vector<Dtor> dtors_;
  std::size_t bytes_allocated_ = 0;
};

}  // namespace saf::util
