// Task: the one closure type every scheduled callback travels in.
//
// A move-only `void()` callable that keeps its closure in a fixed inline
// buffer, so scheduling a task, queueing it in an EventQueue slot or a
// HandoffQueue inbox, and popping it again never touch the heap. The buffer
// is sized for the largest closure on the hot path: the network's delivery
// closure `[this, net::Message]` (network.cpp asserts that it fits). A
// closure that is larger, over-aligned, or whose move can throw is kept on
// the heap instead, behind the same type: callers never choose.
//
// Unlike std::function a Task may own move-only captures, is never copied,
// and a moved-from Task is empty.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace fargo::sim {

// fargo: domain(sim)
class Task {
 public:
  /// Inline closure capacity: one pointer plus a net::Message (80 bytes).
  static constexpr std::size_t kInlineBytes = 88;

  /// True if a closure of type `F` is stored inline (no allocation).
  template <class F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  Task() noexcept = default;
  Task(std::nullptr_t) noexcept {}

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Task> &&
                                     std::is_invocable_r_v<void, D&>>>
  Task(F&& fn) {  // NOLINT: implicit, like std::function
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  Task(Task&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(buf_, other.buf_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Task& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Runs the closure. Requires a non-empty Task.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move-constructs the closure into `dst` and destroys it in `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  /// The object of type `T` living in `buf`.
  template <class T>
  static T* At(void* buf) noexcept {
    return std::launder(static_cast<T*>(buf));
  }

  /// The closure itself lives in the buffer.
  template <class D>
  static constexpr Ops kInlineOps = {
      [](void* buf) { (*At<D>(buf))(); },
      [](void* dst, void* src) noexcept {
        D* from = At<D>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* buf) noexcept { At<D>(buf)->~D(); },
  };

  /// The buffer holds a pointer to the closure.
  template <class D>
  static constexpr Ops kHeapOps = {
      [](void* buf) { (**At<D*>(buf))(); },
      [](void* dst, void* src) noexcept { ::new (dst) D*(*At<D*>(src)); },
      [](void* buf) noexcept { delete *At<D*>(buf); },
  };

  void Reset() noexcept {
    if (ops_ != nullptr) {
      // Clear first: the closure's destructor may re-enter its owner.
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->destroy(buf_);
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace fargo::sim
