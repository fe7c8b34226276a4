#include "fabric/message.hpp"

#include <algorithm>
#include <new>

namespace cbmpi::fabric {

namespace {
/// One per thread; its address names the calling thread.
thread_local const char t_thread_tag = 0;
}  // namespace

Payload PayloadHome::allocate(std::size_t size) {
  reclaim();
  if (owner_ != &t_thread_tag) owner_ = &t_thread_tag;
  if (size == 0) return {};
  // A returned block holds the stack's link, so it is never smaller than one.
  void* block = ::operator new(std::max(size, sizeof(Returned)));
  return {this, static_cast<std::byte*>(block), size};
}

void PayloadHome::release(std::byte* block) noexcept {
  if (owner_ == &t_thread_tag) {
    ::operator delete(block);
    return;
  }
  auto* node = ::new (static_cast<void*>(block))
      Returned{returned_.load(std::memory_order_relaxed)};
  while (!returned_.compare_exchange_weak(node->next, node, std::memory_order_release,
                                          std::memory_order_relaxed)) {
  }
}

void PayloadHome::reclaim() noexcept {
  if (returned_.load(std::memory_order_relaxed) == nullptr) return;
  Returned* node = returned_.exchange(nullptr, std::memory_order_acquire);
  while (node != nullptr) {
    Returned* next = node->next;
    ::operator delete(node);
    node = next;
  }
}

}  // namespace cbmpi::fabric
