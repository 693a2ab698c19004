// Small-buffer-optimized move-only callables: the simulator's one callback
// type.
//
// InlineFunction<R(Args...), kBytes> stores a callable of up to kBytes in
// place (no allocation, no indirection) and falls back to the heap only for
// larger captures. It is move-only, callable any number of times, and can be
// fired once (call, then destroy, in one indirect call). Three sizes cover
// the whole simulator:
//
//  * InlineFn — InlineFunction<void(), 104>: every simulated event and every
//    executor post. The event slab builds each closure once, in its slot,
//    and fires it (sim/simulation.h).
//  * Callback<Sig> — InlineFunction<Sig, 56>: request-path continuations
//    (syscall and service replies, IKC and ask replies, DTU endpoint
//    configuration). With its vtable pointer it is one 64-byte cache line,
//    so an event closure can carry one alongside a few scalars.
//  * Dtu::MsgHandler — InlineFunction<void(EpId, const Message&), 8>: a
//    receive endpoint's handler, which captures only its owner. At 16 bytes
//    it keeps a PE's 16 endpoints inline in its DTU (dtu/dtu.h).
//
// Small captures, not bigger buffers. A continuation captures `this` plus a
// record pointer or a token; the state of an operation in flight lives in a
// record its owner keeps (the kernel's operation records, core/kernel.h; the
// m3fs file records, fs/service.h; what UserEnv is serving, core/userlib.h).
// Growing the buffers instead would grow every event slot and every record
// that holds a callback, and peak memory with them; a closure that does not
// fit is a heap allocation on the request path, which the allocation-budget
// test (tests/alloc_budget_test.cpp) catches.
#ifndef SEMPEROS_SIM_INLINE_FN_H_
#define SEMPEROS_SIM_INLINE_FN_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace semperos {

template <typename Sig, size_t kBytes>
class InlineFunction;

template <typename R, typename... Args, size_t kBytes>
class InlineFunction<R(Args...), kBytes> {
 public:
  static constexpr size_t kInlineBytes = kBytes;
  // Captures are pointers, ids, cycle counts and Messages: 8-byte alignment
  // covers them and lets closures pack a Callback without padding.
  static constexpr size_t kAlign = alignof(void*);

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFunction> &&
                                        !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    Construct(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->move(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        vt_->move(buf_, other.buf_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  R operator()(Args... args) { return vt_->call(buf_, std::forward<Args>(args)...); }

  // Runs the callable once and destroys it, in one indirect call, leaving
  // this object empty. The event slab fires every closure this way.
  R Fire(Args... args) {
    const VTable* vt = vt_;
    vt_ = nullptr;
    return vt->fire(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  // Whether a callable of type F is stored in place (false: on the heap).
  // Always false with SEMPEROS_DISABLE_POOLS.
  template <typename F>
  static constexpr bool StoresInline() {
    using Fn = std::decay_t<F>;
    [[maybe_unused]] constexpr bool kFits = sizeof(Fn) <= kBytes && alignof(Fn) <= kAlign &&
                                            std::is_nothrow_move_constructible_v<Fn>;
#ifdef SEMPEROS_DISABLE_POOLS
    return false;
#else
    return kFits;
#endif
  }

  // Builds `f` directly in this object, replacing what it held: the event
  // slab constructs each closure once, in its slot. An argument of this
  // exact type is moved in.
  template <typename F>
  void Emplace(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
      *this = std::move(f);
    } else {
      Reset();
      Construct(std::forward<F>(f));
    }
  }

 private:
  // The one construction path, shared by the constructor and Emplace.
  template <typename F>
  void Construct(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<R, Fn&, Args...>, "callable does not match the signature");
    // Sanitizer builds (SEMPEROS_DISABLE_POOLS) store nothing in place:
    // every closure is a fresh heap allocation, so a use-after-destroy of a
    // capture is a real use-after-free ASan can see — in-place slab storage
    // would hand stale reads plausible live bytes, the same masking problem
    // the message pools have (dtu/msg_pool.h).
    if constexpr (StoresInline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = InlineVt<Fn>();
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = HeapVt<Fn>();
    }
  }

  struct VTable {
    void (*move)(void* dst, void* src) noexcept;
    void (*destroy)(void* p) noexcept;
    R (*call)(void* p, Args&&... args);
    R (*fire)(void* p, Args&&... args);  // call, then destroy
  };

  template <typename Fn>
  static const VTable* InlineVt() {
    static constexpr VTable vt = {
        [](void* dst, void* src) noexcept {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
        [](void* p, Args&&... args) -> R {
          return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
        },
        [](void* p, Args&&... args) -> R {
          struct Destroy {
            Fn* fn;
            ~Destroy() { fn->~Fn(); }
          } guard{static_cast<Fn*>(p)};
          return (*guard.fn)(std::forward<Args>(args)...);
        },
    };
    return &vt;
  }

  template <typename Fn>
  static const VTable* HeapVt() {
    static constexpr VTable vt = {
        [](void* dst, void* src) noexcept { ::new (dst) Fn*(*static_cast<Fn**>(src)); },
        [](void* p) noexcept { delete *static_cast<Fn**>(p); },
        [](void* p, Args&&... args) -> R {
          return (**static_cast<Fn**>(p))(std::forward<Args>(args)...);
        },
        [](void* p, Args&&... args) -> R {
          std::unique_ptr<Fn> fn(*static_cast<Fn**>(p));
          return (*fn)(std::forward<Args>(args)...);
        },
    };
    return &vt;
  }

  void Reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  alignas(kAlign) unsigned char buf_[kBytes];
  const VTable* vt_ = nullptr;
};

// Event closures (sim/simulation.h, sim/executor.h, noc/noc.h).
using InlineFn = InlineFunction<void(), 104>;

// Request-path continuations: one cache line each.
template <typename Sig>
using Callback = InlineFunction<Sig, 56>;

static_assert(sizeof(InlineFn) == 112);
static_assert(sizeof(Callback<void()>) == 64);

}  // namespace semperos

#endif  // SEMPEROS_SIM_INLINE_FN_H_
