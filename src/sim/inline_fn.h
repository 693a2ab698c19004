// Small-buffer-optimized move-only callable for the simulator hot path.
//
// Every simulated event and every executor post wraps a closure. With
// std::function, closures beyond ~16 bytes (almost all of ours: they capture
// a Message, a CapPayload, a context struct) allocate on every Schedule —
// millions of mallocs per benchmark run that buy nothing, since the closure
// lives exactly until its event fires. InlineFn stores closures up to
// kInlineBytes in place (no allocation, no indirection) and falls back to the
// heap only for oversized captures. Move-only, call-once-or-more, same
// semantics as std::function<void()> minus copyability.
#ifndef SEMPEROS_SIM_INLINE_FN_H_
#define SEMPEROS_SIM_INLINE_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace semperos {

class InlineFn {
 public:
  // Sized for the engine's typical closure: a captured Message (~40 bytes,
  // including a shared_ptr body) plus a this-pointer, a context struct or a
  // CapPayload, and a few scalars. Oversized captures fall back to the heap.
  static constexpr size_t kInlineBytes = 104;

  InlineFn() noexcept = default;

  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, InlineFn> &&
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    Construct(std::forward<F>(f));
  }

  InlineFn(InlineFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->move(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
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

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  void operator()() { vt_->call(buf_); }

  // Runs the callable once and destroys it, in one indirect call, leaving
  // this object empty. The event slab fires every closure this way.
  void Fire() {
    const VTable* vt = vt_;
    vt_ = nullptr;
    vt->fire(buf_);
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  // Builds `f` directly in this object, replacing what it held: the event
  // slab constructs each closure once, in its slot. An InlineFn argument
  // is moved in.
  template <typename F>
  void Emplace(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFn>) {
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
    static_assert(std::is_invocable_r_v<void, Fn&>, "InlineFn holds a void() callable");
#ifdef SEMPEROS_DISABLE_POOLS
    // Sanitizer builds: every closure is a fresh heap allocation, so a
    // use-after-destroy of a capture is a real use-after-free ASan can see
    // — in-place slab storage would hand stale reads plausible live bytes,
    // the same masking problem the message pools have (dtu/msg_pool.h).
    constexpr bool kStoreInline = false;
#else
    constexpr bool kStoreInline =
        sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t);
#endif
    if constexpr (kStoreInline) {
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
    void (*call)(void* p);
    void (*fire)(void* p);  // call, then destroy
  };

  template <typename Fn>
  static const VTable* InlineVt() {
    static constexpr VTable vt = {
        [](void* dst, void* src) noexcept {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* p) {
          Fn& fn = *static_cast<Fn*>(p);
          fn();
          fn.~Fn();
        },
    };
    return &vt;
  }

  template <typename Fn>
  static const VTable* HeapVt() {
    static constexpr VTable vt = {
        [](void* dst, void* src) noexcept {
          ::new (dst) Fn*(*static_cast<Fn**>(src));
        },
        [](void* p) noexcept { delete *static_cast<Fn**>(p); },
        [](void* p) { (**static_cast<Fn**>(p))(); },
        [](void* p) {
          Fn* fn = *static_cast<Fn**>(p);
          (*fn)();
          delete fn;
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

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace semperos

#endif  // SEMPEROS_SIM_INLINE_FN_H_
