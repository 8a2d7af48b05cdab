#pragma once

// Fixed-capacity type-erased callable.
//
// InlineFunction<R(Args...), N> copies, moves and calls like
// std::function<R(Args...)>, but stores its target in N inline bytes and
// never touches the heap: a callable that does not fit is rejected at
// compile time instead of silently falling back to an allocation. The
// engine's staging closures (htm::TxnBody / htm::TxnDone) use it so that
// staging a transaction costs no host allocation.

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace aam::util {

template <typename Sig, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, InlineFunction> &&
             std::is_invocable_r_v<R, D&, Args...>)
  InlineFunction(F&& f) {
    static_assert(sizeof(D) <= Capacity,
                  "callable does not fit the InlineFunction capacity");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "callable is over-aligned for InlineFunction");
    static_assert(std::is_copy_constructible_v<D>,
                  "InlineFunction targets must be copyable");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    invoke_ = &invoke_target<D>;
    manage_ = &manage_target<D>;
  }

  InlineFunction(const InlineFunction& other) { copy_from(other); }
  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(const InlineFunction& other) {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Calls the target; throws std::bad_function_call when empty.
  R operator()(Args... args) const {
    if (invoke_ == nullptr) throw std::bad_function_call();
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  enum class Op { kCopy, kMove, kDestroy };
  using Invoke = R (*)(void*, Args&&...);
  using Manage = void (*)(Op, void* dst, void* src);

  template <typename D>
  static R invoke_target(void* target, Args&&... args) {
    return std::invoke(*static_cast<D*>(target), std::forward<Args>(args)...);
  }

  /// kCopy/kMove construct into `dst` from `src` (kMove also destroys the
  /// source); kDestroy destroys `dst`.
  template <typename D>
  static void manage_target(Op op, void* dst, void* src) {
    switch (op) {
      case Op::kCopy:
        ::new (dst) D(*static_cast<const D*>(src));
        return;
      case Op::kMove:
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
        return;
      case Op::kDestroy:
        static_cast<D*>(dst)->~D();
        return;
    }
  }

  void copy_from(const InlineFunction& other) {
    if (other.manage_ == nullptr) return;
    other.manage_(Op::kCopy, storage_, other.storage_);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
  }
  void move_from(InlineFunction& other) noexcept {
    if (other.manage_ == nullptr) return;
    other.manage_(Op::kMove, storage_, other.storage_);
    invoke_ = std::exchange(other.invoke_, nullptr);
    manage_ = std::exchange(other.manage_, nullptr);
  }
  void reset() noexcept {
    if (manage_ == nullptr) return;
    manage_(Op::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  // Mutable like std::function's target: operator() is const but calls
  // the target as a non-const lvalue.
  alignas(std::max_align_t) mutable std::byte storage_[Capacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace aam::util
