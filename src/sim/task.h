// Coroutine type for protocol main loops.
//
// A Process's run() method is a C++20 coroutine returning ProtocolTask.
// The simulator owns resumption: a process suspends on `co_await
// until(pred)` / `co_await sleep(d)` and the event loop resumes it when
// the condition holds. This lets protocol code mirror the paper's
// pseudo-code ("wait until ...") line for line while the engine stays a
// deterministic single-threaded discrete-event loop.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace saf::sim {

class ProtocolTask {
 public:
  struct promise_type {
    ProtocolTask get_return_object() {
      return ProtocolTask(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }

    std::exception_ptr exception;
  };

  ProtocolTask() = default;
  explicit ProtocolTask(std::coroutine_handle<promise_type> h) : handle_(h) {}

  ProtocolTask(const ProtocolTask&) = delete;
  ProtocolTask& operator=(const ProtocolTask&) = delete;
  ProtocolTask(ProtocolTask&& o) noexcept
      : handle_(std::exchange(o.handle_, nullptr)) {}
  ProtocolTask& operator=(ProtocolTask&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  ~ProtocolTask() { destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }
  std::coroutine_handle<promise_type> handle() const { return handle_; }

  /// True iff the coroutine finished by throwing.
  bool failed() const {
    return handle_ && handle_.done() && handle_.promise().exception;
  }

  /// Rethrows an exception that escaped the coroutine body, if any.
  void rethrow_if_failed() const {
    if (failed()) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace saf::sim
