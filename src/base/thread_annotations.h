// Clang thread-safety annotation shim plus the project's static-analysis
// annotation vocabulary (the ownership half of the memory-model checker; see
// DESIGN.md "Checked builds and the isolation contract" and "Static
// analysis").
//
// Two families of annotations live here:
//
//   * Thread-safety capabilities (NEM_CAPABILITY / NEM_GUARDED_BY /
//     NEM_REQUIRES / ...): expand to clang's thread-safety attributes under
//     clang — where the CI `analysis` job compiles with `-Wthread-safety
//     -Werror` — and to nothing under GCC (the default toolchain). The
//     `Mutex` / `MutexLock` wrappers below make the annotations
//     compiler-enforced for the one real lock in the tree (the central-VM
//     baseline's kernel lock).
//
//   * NEM_DETACHED, consumed by `tools/analyze.py`'s task-lifetime rule: it
//     records that a spawned task is deliberately unowned, so the analyzer
//     can check task ownership statically, without running anything.
#ifndef SRC_BASE_THREAD_ANNOTATIONS_H_
#define SRC_BASE_THREAD_ANNOTATIONS_H_

#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define NEM_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define NEM_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

#define NEM_CAPABILITY(x) NEM_THREAD_ANNOTATION_(capability(x))
#define NEM_SCOPED_CAPABILITY NEM_THREAD_ANNOTATION_(scoped_lockable)
#define NEM_GUARDED_BY(x) NEM_THREAD_ANNOTATION_(guarded_by(x))
#define NEM_PT_GUARDED_BY(x) NEM_THREAD_ANNOTATION_(pt_guarded_by(x))
#define NEM_REQUIRES(...) NEM_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define NEM_ACQUIRE(...) NEM_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define NEM_RELEASE(...) NEM_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define NEM_EXCLUDES(...) NEM_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define NEM_RETURN_CAPABILITY(x) NEM_THREAD_ANNOTATION_(lock_returned(x))
#define NEM_ASSERT_CAPABILITY(...) NEM_THREAD_ANNOTATION_(assert_capability(__VA_ARGS__))
#define NEM_NO_THREAD_SAFETY_ANALYSIS NEM_THREAD_ANNOTATION_(no_thread_safety_analysis)

// NEM_DETACHED(expr): evaluates (and discards) a Spawn expression whose
// TaskHandle is deliberately unowned. tools/analyze.py's task-lifetime rule
// flags every discarded Spawn result unless it is wrapped in NEM_DETACHED;
// each use must carry a one-line justification comment explaining why the
// task cannot outlive anything it captures.
#define NEM_DETACHED(...) (void)(__VA_ARGS__)

namespace nemesis {

// Phantom capability standing in for "executing inside the system domain's
// serialized section". That section is the single-threaded event loop: every
// event callback runs with the capability implicitly held. There is no
// runtime lock to acquire, so the authorities that touch
// NEM_GUARDED_BY(g_system_domain) state — the frames allocator and the
// translation syscalls — call AssertHeld() at their entry points: under
// clang's analysis the assertion introduces the capability, and the
// *runtime* guarantee is supplied by the event loop's serialization.
class NEM_CAPABILITY("system_domain") SystemDomainCapability {
 public:
  void Acquire() NEM_ACQUIRE() {}
  void Release() NEM_RELEASE() {}
  // States (to the static analysis) that the capability is held here; expands
  // to an empty inline call, so it costs nothing in any build.
  void AssertHeld() NEM_ASSERT_CAPABILITY() {}
};

// The single global capability instance annotations refer to.
inline SystemDomainCapability g_system_domain;

// Capability-annotated mutex: a std::mutex whose acquire/release are visible
// to clang's thread-safety analysis, so NEM_GUARDED_BY(mu_) on the fields it
// protects is compiler-enforced in the CI analysis job. Use with MutexLock.
class NEM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() NEM_ACQUIRE() { mu_.lock(); }
  void Unlock() NEM_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// Scoped lock, the annotated analogue of std::lock_guard<std::mutex>.
class NEM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NEM_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() NEM_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace nemesis

#endif  // SRC_BASE_THREAD_ANNOTATIONS_H_
