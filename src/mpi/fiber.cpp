#include "mpi/fiber.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "common/error.hpp"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace cbmpi::mpi {

namespace {

constexpr std::size_t kStackBytes = std::size_t{8} << 20;

/// One fiber stack: a guard page, then kStackBytes of lazily backed memory.
struct Stack {
  std::byte* base = nullptr;
  std::size_t guard = 0;
  std::byte* bottom() const { return base + guard; }
  std::byte* top() const { return base + guard + kStackBytes; }
};

/// Process-wide pool. A stack is mapped once and handed to every later fiber,
/// so the pages a rank touched stay mapped for the next job.
class StackPool {
 public:
  Stack acquire() {
    {
      const std::scoped_lock lock(mutex_);
      if (!free_.empty()) {
        const Stack stack = free_.back();
        free_.pop_back();
#if defined(__SANITIZE_ADDRESS__)
        // A finished fiber leaves the redzones of its last frames poisoned.
        ASAN_UNPOISON_MEMORY_REGION(stack.bottom(), kStackBytes);
#endif
        return stack;
      }
    }
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    void* base = ::mmap(nullptr, page + kStackBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                        -1, 0);
    CBMPI_REQUIRE(base != MAP_FAILED, "cannot map a ", kStackBytes,
                  "-byte fiber stack");
    CBMPI_REQUIRE(::mprotect(base, page, PROT_NONE) == 0,
                  "cannot protect a fiber stack's guard page");
    return {static_cast<std::byte*>(base), page};
  }

  void release(const Stack& stack) {
    const std::scoped_lock lock(mutex_);
    free_.push_back(stack);
  }

 private:
  std::mutex mutex_;
  std::vector<Stack> free_;
};

StackPool& stack_pool() {
  static StackPool pool;
  return pool;
}

// Stack-switch bookkeeping for the sanitizers: no-ops unless the build runs
// under ASan or TSan.
#if defined(__SANITIZE_ADDRESS__)
void asan_start_switch(void** fake_stack, const void* bottom, std::size_t size) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
}
void asan_finish_switch(void* fake_stack, const void** old_bottom,
                        std::size_t* old_size) {
  __sanitizer_finish_switch_fiber(fake_stack, old_bottom, old_size);
}
#else
void asan_start_switch(void**, const void*, std::size_t) {}
void asan_finish_switch(void*, const void**, std::size_t*) {}
#endif
#if defined(__SANITIZE_THREAD__)
void* tsan_current_fiber() { return __tsan_get_current_fiber(); }
void* tsan_create_fiber() { return __tsan_create_fiber(0); }
void tsan_destroy_fiber(void* fiber) { __tsan_destroy_fiber(fiber); }
void tsan_switch_to(void* fiber) { __tsan_switch_to_fiber(fiber, 0); }
#else
void* tsan_current_fiber() { return nullptr; }
void* tsan_create_fiber() { return nullptr; }
void tsan_destroy_fiber(void*) {}
void tsan_switch_to(void*) {}
#endif

[[noreturn]] void fiber_main() noexcept;

#if defined(__x86_64__)
// Saves the callee-saved registers, MXCSR and the x87 control word on the
// current stack, stores the stack pointer in *save_sp, then restores the same
// set from load_sp and returns into that context. Everything else is
// caller-saved under the System V ABI, so this is a complete switch.
extern "C" void cbmpi_fiber_switch(void** save_sp, void* load_sp);
asm(R"(
  .pushsection .text
  .globl cbmpi_fiber_switch
  .hidden cbmpi_fiber_switch
  .type cbmpi_fiber_switch, @function
  .p2align 4
cbmpi_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size cbmpi_fiber_switch, .-cbmpi_fiber_switch
  .popsection
)");

struct Context {
  void* sp = nullptr;
};

/// Lays out the frame cbmpi_fiber_switch pops so that the first switch into
/// the fiber "returns" into fiber_main with the ABI's entry alignment.
void start_context(Context& context, const Stack& stack) {
  auto* top = reinterpret_cast<std::uintptr_t*>(stack.top());
  std::uintptr_t* sp = top - 9;
  std::fill(sp, top, std::uintptr_t{0});  // r15..rbp = 0; null caller above
  sp[0] = 0x1F80 | (std::uintptr_t{0x037F} << 32);  // default MXCSR, x87 CW
  sp[7] = reinterpret_cast<std::uintptr_t>(&fiber_main);
  context.sp = sp;
}

void jump(Context& from, Context& to) { cbmpi_fiber_switch(&from.sp, to.sp); }
#else
struct Context {
  ucontext_t uc{};
};

void start_context(Context& context, const Stack& stack) {
  CBMPI_REQUIRE(::getcontext(&context.uc) == 0, "getcontext failed");
  context.uc.uc_stack.ss_sp = stack.bottom();
  context.uc.uc_stack.ss_size = kStackBytes;
  context.uc.uc_link = nullptr;
  ::makecontext(&context.uc, &fiber_main, 0);
}

void jump(Context& from, Context& to) { ::swapcontext(&from.uc, &to.uc); }
#endif

}  // namespace

class Fiber {
 public:
  Fiber() : stack(stack_pool().acquire()), tsan(tsan_create_fiber()) {}
  ~Fiber() {
    tsan_destroy_fiber(tsan);
    stack_pool().release(stack);
  }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  FiberWorker* worker = nullptr;
  int rank = 0;
  Stack stack;
  Context context;
  void* fake_stack = nullptr;  // ASan's, while the fiber is switched out
  void* tsan;
};

struct FiberWorker {
  explicit FiberWorker(RankScheduler& owner) : scheduler(&owner) {}

  /// Why the running fiber switched back to its worker.
  enum class Exit { Yield, Park, Finish };

  void loop() noexcept;
  Fiber* next();
  void push(Fiber* fiber);
  /// Worker -> fiber; returns when the fiber switches back.
  void resume(Fiber& fiber);
  /// Fiber -> worker; on the fiber's stack. Returns when the fiber resumes.
  void suspend(Fiber& fiber, Exit why);

  RankScheduler* scheduler;
  const std::function<void(int)>* body = nullptr;

  std::mutex mutex;
  std::condition_variable ready_cv;
  std::deque<Fiber*> ready;  // guarded by mutex
  bool stop = false;         // guarded by mutex

  /// Owned by the worker's thread.
  Context context;
  Fiber* running = nullptr;
  Exit exit = Exit::Yield;
  bool (*publish)(void*, Fiber*) = nullptr;
  void* publish_ctx = nullptr;
  /// The worker's own stack, as ASan reports it when a fiber starts.
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* tsan = nullptr;
};

namespace {

/// The worker of the calling thread; null outside RankScheduler::run.
thread_local FiberWorker* t_worker = nullptr;

/// The calling fiber's worker, checked for a safe point to switch out.
FiberWorker& switching_worker() {
  CBMPI_REQUIRE(t_worker != nullptr && t_worker->running != nullptr,
                "a rank blocks or yields only inside its job's body");
  CBMPI_REQUIRE(abi::__cxa_current_exception_type() == nullptr,
                "a rank cannot block or yield while it handles an exception: "
                "the caught-exception stack belongs to the worker thread");
  return *t_worker;
}

void fiber_main() noexcept {
  FiberWorker& worker = *t_worker;
  Fiber& fiber = *worker.running;
  asan_finish_switch(nullptr, &worker.stack_bottom, &worker.stack_size);
  (*worker.body)(fiber.rank);
  worker.suspend(fiber, FiberWorker::Exit::Finish);
  __builtin_unreachable();
}

}  // namespace

void FiberWorker::resume(Fiber& fiber) {
  running = &fiber;
  tsan_switch_to(fiber.tsan);
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, fiber.stack.bottom(), kStackBytes);
  jump(context, fiber.context);
  asan_finish_switch(fake_stack, nullptr, nullptr);
  running = nullptr;
}

void FiberWorker::suspend(Fiber& fiber, Exit why) {
  exit = why;
  tsan_switch_to(tsan);
  // A finished fiber passes no save slot, so ASan frees its fake stack.
  asan_start_switch(why == Exit::Finish ? nullptr : &fiber.fake_stack,
                    stack_bottom, stack_size);
  jump(fiber.context, context);
  asan_finish_switch(fiber.fake_stack, &stack_bottom, &stack_size);
}

Fiber* FiberWorker::next() {
  std::unique_lock lock(mutex);
  ready_cv.wait(lock, [&] { return !ready.empty() || stop; });
  if (ready.empty()) return nullptr;
  Fiber* fiber = ready.front();
  ready.pop_front();
  return fiber;
}

void FiberWorker::push(Fiber* fiber) {
  {
    const std::scoped_lock lock(mutex);
    ready.push_back(fiber);
  }
  ready_cv.notify_one();
}

void FiberWorker::loop() noexcept {
  t_worker = this;
  tsan = tsan_current_fiber();
  while (Fiber* fiber = next()) {
    resume(*fiber);
    switch (exit) {
      case Exit::Yield:
        push(fiber);
        break;
      case Exit::Park:
        if (publish(publish_ctx, fiber))
          scheduler->leave_runnable(/*finished=*/false);
        else
          push(fiber);
        break;
      case Exit::Finish:
        scheduler->leave_runnable(/*finished=*/true);
        break;
    }
  }
  t_worker = nullptr;
}

RankScheduler::RankScheduler(std::function<void()> on_deadlock)
    : on_deadlock_(std::move(on_deadlock)) {}

RankScheduler::~RankScheduler() = default;

void RankScheduler::run(int nranks, const std::function<void(int)>& body) {
  CBMPI_REQUIRE(t_worker == nullptr, "a job cannot start inside a rank body");
  CBMPI_REQUIRE(nranks > 0, "a job needs at least one rank");
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int nworkers = std::min(nranks, cores);
  for (int w = 0; w < nworkers; ++w) {
    workers_.push_back(std::make_unique<FiberWorker>(*this));
    workers_.back()->body = &body;
  }
  std::vector<Fiber> fibers(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    Fiber& fiber = fibers[static_cast<std::size_t>(r)];
    // Contiguous blocks keep co-resident ranks on one worker (fiber.hpp).
    const auto w = static_cast<std::int64_t>(r) * nworkers / nranks;
    fiber.worker = workers_[static_cast<std::size_t>(w)].get();
    fiber.rank = r;
    start_context(fiber.context, fiber.stack);
  }
  live_.store(nranks);
  runnable_.store(nranks);

  // Joined on every path, after stop_workers() when startup fails; the
  // queues are still empty then, so no fiber has run.
  std::vector<std::jthread> threads;
  threads.reserve(static_cast<std::size_t>(nworkers - 1));
  try {
    for (int w = 1; w < nworkers; ++w)
      threads.emplace_back(
          [worker = workers_[static_cast<std::size_t>(w)].get()] { worker->loop(); });
  } catch (...) {
    stop_workers();
    throw;
  }
  for (auto& fiber : fibers) fiber.worker->push(&fiber);
  workers_.front()->loop();
}

void RankScheduler::park_with(bool (*publish)(void*, Fiber*), void* ctx) {
  FiberWorker& worker = switching_worker();
  worker.publish = publish;
  worker.publish_ctx = ctx;
  worker.suspend(*worker.running, FiberWorker::Exit::Park);
}

void RankScheduler::yield() {
  FiberWorker& worker = switching_worker();
  worker.suspend(*worker.running, FiberWorker::Exit::Yield);
}

void RankScheduler::wake(Fiber* fiber) {
  // The waker is runnable itself (a running fiber, or the deadlock handler
  // holding its slot), so the count cannot touch zero in between.
  fiber->worker->scheduler->runnable_.fetch_add(1, std::memory_order_acq_rel);
  fiber->worker->push(fiber);
}

void RankScheduler::leave_runnable(bool finished) {
  // live_ drops first: whoever takes runnable_ to zero then reads a final
  // live_, because no fiber runs to change it.
  if (finished) live_.fetch_sub(1, std::memory_order_acq_rel);
  if (runnable_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (live_.load(std::memory_order_acquire) == 0) return stop_workers();
  // Every live fiber is parked. The handler holds a runnable slot while it
  // wakes them, so the first woken fibers to finish cannot take the count
  // back to zero, and call the handler again, before it is done.
  runnable_.fetch_add(1, std::memory_order_acq_rel);
  on_deadlock_();
  leave_runnable(/*finished=*/false);
}

void RankScheduler::stop_workers() {
  for (auto& worker : workers_) {
    {
      const std::scoped_lock lock(worker->mutex);
      worker->stop = true;
    }
    worker->ready_cv.notify_one();
  }
}

}  // namespace cbmpi::mpi
