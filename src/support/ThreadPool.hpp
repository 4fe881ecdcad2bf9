/**
 * @file
 * Minimal deterministic-friendly thread pool and parallel loop.
 *
 * The exploration pipeline is embarrassingly parallel at three
 * levels (SimBank block decodes and simulators, per-machine
 * compiles, per-design dilation extrapolation), but every parallel
 * phase must produce *bit-identical* results to the serial walk.
 * The primitives here are built for that contract:
 *
 *  - ThreadPool is a fixed set of worker threads draining one FIFO
 *    queue; a pool with zero workers is valid and makes every
 *    parallelFor run inline on the caller — the serial reference
 *    path and the parallel path are the same code.
 *
 *  - parallelFor(n, pool, body) runs body(0..n-1) with the *caller
 *    participating* in the loop: indices are claimed from a shared
 *    counter by the caller and by up to workers() helper tasks.
 *    Caller participation makes nested parallelFor calls
 *    deadlock-free (a blocked outer loop always advances its own
 *    inner loop) and keeps the zero-worker pool exactly serial.
 *
 *  - Determinism is the *merge* discipline, not the schedule: bodies
 *    may run in any order and on any thread, so each body writes
 *    only to its own index's slot, and callers combine slots in
 *    index order afterwards. When bodies throw, the exception of the
 *    smallest failing index is rethrown — the same error the serial
 *    loop would have surfaced first.
 *
 *  - Tasks that need randomness must not share an Rng; derive an
 *    independent per-task stream with Rng::forStream(seed, index).
 */

#ifndef PICO_SUPPORT_THREAD_POOL_HPP
#define PICO_SUPPORT_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/ThreadAnnotations.hpp"

namespace pico::support
{

/** Fixed-size FIFO worker pool; zero workers = inline execution. */
class ThreadPool
{
  public:
    /**
     * @param workers helper threads to spawn. Zero is valid: the
     *        pool accepts no tasks and parallelFor degrades to the
     *        caller's serial loop.
     */
    explicit ThreadPool(unsigned workers);

    /** Joins all workers; pending tasks are drained first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Helper threads in the pool (not counting callers). */
    unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

    /**
     * Enqueue one task. Must not be called on a zero-worker pool
     * (there is nobody to run it).
     */
    void submit(std::function<void()> task)
        PICO_REQUIRES(!poolMutex_);

    /**
     * Worker count for a user-facing jobs knob: 0 = one per
     * hardware thread, otherwise the given count (minimum 1).
     */
    static unsigned resolveJobs(unsigned jobs);

  private:
    void workerLoop() PICO_REQUIRES(!poolMutex_);

    std::vector<std::thread> threads_;
    Mutex poolMutex_{"threadpool.queue", rank::kPoolQueue};
    std::deque<std::function<void()>> queue_ PICO_GUARDED_BY(poolMutex_);
    std::condition_variable cv_;
    bool stop_ PICO_GUARDED_BY(poolMutex_) = false;
};

/**
 * Run body(0), ..., body(n-1) cooperatively on the caller plus the
 * pool's workers, returning when every body has finished. With a
 * null pool or a zero-worker pool the loop runs inline in index
 * order — byte-for-byte the serial behavior.
 *
 * Bodies must be independent: each may write only state owned by its
 * index. If any body throws, every remaining body still runs and the
 * exception of the smallest failing index is rethrown to the caller.
 */
void parallelFor(size_t n, ThreadPool *pool,
                 const std::function<void(size_t)> &body);

} // namespace pico::support

#endif // PICO_SUPPORT_THREAD_POOL_HPP
