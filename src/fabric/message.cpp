#include "fabric/message.hpp"

#include <new>

namespace cbmpi::fabric {

namespace {
/// One per thread; its address names the calling thread.
thread_local const char t_thread_tag = 0;
}  // namespace

MessagePtr PayloadHome::allocate(std::size_t payload_bytes) {
  reclaim();
  if (owner_ != &t_thread_tag) owner_ = &t_thread_tag;
  // A returned block holds the stack's link; every header is larger.
  static_assert(sizeof(Message) >= sizeof(Returned));
  void* block = ::operator new(sizeof(Message) + payload_bytes);
  return MessagePtr(::new (block) Message(this, payload_bytes));
}

void PayloadHome::release(Message* message) noexcept {
  message->~Message();
  if (owner_ == &t_thread_tag) {
    ::operator delete(message);
    return;
  }
  auto* node = ::new (static_cast<void*>(message))
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
