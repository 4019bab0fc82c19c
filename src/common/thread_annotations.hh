/**
 * @file
 * Clang Thread Safety Analysis capability annotations, plus the
 * annotated mutex/guard pair every concurrent class in this repo uses.
 *
 * The macros expand to Clang's thread-safety attributes under Clang
 * and to nothing elsewhere, so GCC builds are unaffected.  Configure
 * with -DSEESAW_THREAD_SAFETY=ON (Clang only) to turn the annotations
 * into compiler-checked errors: every shared field declares the mutex
 * that guards it (SEESAW_GUARDED_BY), every `...Locked()` helper
 * declares its precondition (SEESAW_REQUIRES), and the analysis
 * rejects any access path that does not provably hold the right lock
 * — across every interleaving, not just the ones a tsan run happens
 * to execute.
 *
 * Conventions (see DESIGN.md "Concurrency rules"):
 *  - mutexes are `AnnotatedMutex`, scoped acquisition is `MutexLock`;
 *  - public locking methods declare SEESAW_EXCLUDES(mutex_) so
 *    self-deadlock is a compile error at the call site;
 *  - SEESAW_NO_THREAD_SAFETY_ANALYSIS is an escape hatch of last
 *    resort and scripts/check_nolint.py requires a justification
 *    comment on the same line.
 */

#ifndef SEESAW_COMMON_THREAD_ANNOTATIONS_HH
#define SEESAW_COMMON_THREAD_ANNOTATIONS_HH

#include <mutex>

#if defined(__clang__)
#define SEESAW_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SEESAW_THREAD_ANNOTATION(x)
#endif

/** Marks a class as a lockable capability (mutex wrappers). */
#define SEESAW_CAPABILITY(x) SEESAW_THREAD_ANNOTATION(capability(x))

/** Marks an RAII class whose lifetime holds a capability. */
#define SEESAW_SCOPED_CAPABILITY SEESAW_THREAD_ANNOTATION(scoped_lockable)

/** Field is readable/writable only while holding the named mutex. */
#define SEESAW_GUARDED_BY(x) SEESAW_THREAD_ANNOTATION(guarded_by(x))

/** Pointee is guarded by the named mutex (the pointer itself is not). */
#define SEESAW_PT_GUARDED_BY(x) SEESAW_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function precondition: caller already holds the named mutex(es).
 *  The project's `...Locked()` private helpers all declare this. */
#define SEESAW_REQUIRES(...) \
    SEESAW_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the named mutex(es) (or `this` when empty). */
#define SEESAW_ACQUIRE(...) \
    SEESAW_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the named mutex(es) (or `this` when empty). */
#define SEESAW_RELEASE(...) \
    SEESAW_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the mutex(es) iff it returns the given value. */
#define SEESAW_TRY_ACQUIRE(...) \
    SEESAW_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Function must NOT be entered with the named mutex(es) held —
 *  public methods that lock internally declare this so re-entrant
 *  self-deadlock is a compile-time error. */
#define SEESAW_EXCLUDES(...) \
    SEESAW_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Declares the sanctioned acquisition order between two mutexes. */
#define SEESAW_ACQUIRED_BEFORE(...) \
    SEESAW_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SEESAW_ACQUIRED_AFTER(...) \
    SEESAW_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Function returns a reference to the named mutex. */
#define SEESAW_RETURN_CAPABILITY(x) \
    SEESAW_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: function body is not analysed.  Every use must carry
 *  a same-line justification comment (policed by check_nolint.py). */
#define SEESAW_NO_THREAD_SAFETY_ANALYSIS \
    SEESAW_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace seesaw {

/**
 * A std::mutex carrying the `capability` attribute, so fields can
 * declare SEESAW_GUARDED_BY(mutex_) against it and the analysis can
 * track acquisition.  Always lock through MutexLock; the raw
 * lock()/unlock() pair exists for the rare non-scoped protocol and
 * for the analysis itself.
 */
class SEESAW_CAPABILITY("mutex") AnnotatedMutex
{
  public:
    AnnotatedMutex() = default;
    AnnotatedMutex(const AnnotatedMutex &) = delete;
    AnnotatedMutex &operator=(const AnnotatedMutex &) = delete;

    void
    lock() SEESAW_ACQUIRE()
    {
        mutex_.lock();
    }

    void
    unlock() SEESAW_RELEASE()
    {
        mutex_.unlock();
    }

  private:
    friend class MutexLock; //!< locks the raw std::mutex
    std::mutex mutex_;
};

/** Scoped acquisition of an AnnotatedMutex (the project's lock_guard). */
class SEESAW_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(AnnotatedMutex &mutex) SEESAW_ACQUIRE(mutex)
        : lock_(mutex.mutex_)
    {
    }

    ~MutexLock() SEESAW_RELEASE() {}

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    std::lock_guard<std::mutex> lock_;
};

} // namespace seesaw

#endif // SEESAW_COMMON_THREAD_ANNOTATIONS_HH
