// Recycling message arena.
//
// Experiments allocate millions of short-lived message objects; the
// allocator round-trip per message is pure overhead on the hot send path.
// MessagePool keeps a per-type free list of raw storage blocks: make_message
// placement-constructs into a recycled block (or a fresh one on pool miss),
// and when the last MessageRef drops, the object is destroyed and its block
// pushed back onto the list. Pools are thread_local so independent
// experiment runs on different threads never contend.
//
// Pool capacity is bounded by the peak number of in-flight messages of each
// type, not by message churn.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "net/message.h"

namespace brisa::net {

/// Allocation counters (thread-wide, across all message types).
struct MessagePoolStats {
  std::uint64_t allocated = 0;  ///< fresh blocks from the heap (pool misses)
  std::uint64_t reused = 0;     ///< blocks served from a free list
  std::uint64_t recycled = 0;   ///< blocks returned to a free list

  [[nodiscard]] std::uint64_t messages_created() const {
    return allocated + reused;
  }
  void reset() { *this = MessagePoolStats{}; }
};

[[nodiscard]] inline MessagePoolStats& message_pool_stats() {
  static thread_local MessagePoolStats stats;
  return stats;
}

template <typename T>
class MessagePool {
  static_assert(std::is_base_of_v<Message, T>,
                "MessagePool manages Message subclasses");

 public:
  template <typename... Args>
  [[nodiscard]] static MessagePtr make(Args&&... args) {
    auto& free_blocks = free_list();
    void* block;
    if (!free_blocks.empty()) {
      block = free_blocks.back();
      free_blocks.pop_back();
      ++message_pool_stats().reused;
    } else {
      block = ::operator new(sizeof(T), std::align_val_t{alignof(T)});
      ++message_pool_stats().allocated;
    }
    T* object = new (block) T(std::forward<Args>(args)...);
    const Message* base = object;
    base->refs_ = 1;
    base->recycler_ = &recycle;
    MessageRef ref;
    ref.ptr_ = base;
    return ref;
  }

  /// Blocks currently parked in this type's free list (tests).
  [[nodiscard]] static std::size_t free_count() { return free_list().size(); }

 private:
  static void recycle(const Message* message) {
    // The recycler is installed only on T objects, so the downcast is exact.
    const T* object = static_cast<const T*>(message);
    object->~T();
    free_list().push_back(
        const_cast<void*>(static_cast<const void*>(object)));
    ++message_pool_stats().recycled;
  }

  static std::vector<void*>& free_list() {
    static thread_local FreeList list;
    return list.blocks;
  }

  struct FreeList {
    std::vector<void*> blocks;
    ~FreeList() {
      for (void* block : blocks) {
        ::operator delete(block, std::align_val_t{alignof(T)});
      }
    }
  };
};

/// Pooled replacement for std::make_shared<T>(...): constructs a message in
/// recycled storage and returns a shared reference to it.
template <typename T, typename... Args>
[[nodiscard]] MessagePtr make_message(Args&&... args) {
  return MessagePool<T>::make(std::forward<Args>(args)...);
}

}  // namespace brisa::net
