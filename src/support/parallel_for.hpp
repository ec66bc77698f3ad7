/**
 * @file
 * Caller-participating parallel index loop over a ThreadPool.
 *
 * parallelFor(pool, n, fn) runs fn(0..n-1) with the caller claiming
 * iterations alongside the pool's workers from a shared atomic index.
 * Because the caller is itself a claimant, the loop makes progress even
 * when every pool worker is busy with other work — in particular it is
 * safe (deadlock-free) to call from inside a pool worker, which is what
 * lets workload-level parallelism (one job per workload) nest chunk-level
 * parallelism (one iteration per trace shard) over the same pool.
 *
 * Helper jobs left in the queue after the loop completes are benign:
 * they find the index exhausted and return without touching caller
 * state beyond the shared control block they co-own.
 *
 * Iterations must be independent; merging results in a deterministic
 * (index) order is the caller's job. If iterations throw, the exception
 * from the lowest-numbered failing iteration is rethrown in the caller
 * after all claimed iterations finish — deterministic regardless of
 * which thread observed the failure first. Iterations not yet claimed
 * when a failure is recorded are skipped (claimed but not executed).
 */

#ifndef LPP_SUPPORT_PARALLEL_FOR_HPP
#define LPP_SUPPORT_PARALLEL_FOR_HPP

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"
#include "support/thread_pool.hpp"

namespace lpp::support {

namespace detail {

/** Shared control block co-owned by the caller and its helper jobs. */
struct ParallelForState
{
    std::atomic<size_t> next{0}; //!< next unclaimed iteration
    std::atomic<size_t> done{0}; //!< finished (or skipped) iterations
    std::atomic<bool> failed{false};
    size_t n = 0;
    void (*invoke)(void *, size_t) = nullptr;
    void *ctx = nullptr; //!< caller-owned fn; valid while done < n

    Mutex mtx;
    std::condition_variable_any cv;
    std::exception_ptr error LPP_GUARDED_BY(mtx);
    size_t errorIndex LPP_GUARDED_BY(mtx) = 0;
};

/** Claim-and-run loop shared by the caller and every helper job. */
inline void
parallelForDrain(ParallelForState &s)
{
    for (;;) {
        size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= s.n)
            return;
        if (!s.failed.load(std::memory_order_acquire)) {
            try {
                s.invoke(s.ctx, i);
            } catch (...) {
                MutexLock lock(s.mtx);
                if (!s.error || i < s.errorIndex) {
                    s.error = std::current_exception();
                    s.errorIndex = i;
                }
                s.failed.store(true, std::memory_order_release);
            }
        }
        if (s.done.fetch_add(1, std::memory_order_acq_rel) + 1 == s.n) {
            // Taking the lock orders the notify after the caller's
            // done-check, so the wakeup cannot be lost.
            MutexLock lock(s.mtx);
            s.cv.notify_all();
        }
    }
}

} // namespace detail

/**
 * Run fn(i) for i in [0, n) using the pool's workers plus the calling
 * thread. Blocks until every iteration has finished. See the file
 * comment for the nesting, exception, and determinism contract.
 */
template <typename Fn>
void
parallelFor(ThreadPool &pool, size_t n, Fn &&fn)
{
    if (n == 0)
        return;
    // With no helper available (single-thread pool) or a single
    // iteration, the caller alone is the whole loop: run in place with
    // no shared state, no atomics, no queue traffic.
    size_t helpers = std::min(pool.threadCount(), n - 1);
    if (helpers == 0 || pool.threadCount() <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto state = std::make_shared<detail::ParallelForState>();
    state->n = n;
    state->ctx = const_cast<void *>(static_cast<const void *>(&fn));
    state->invoke = [](void *ctx, size_t i) {
        (*static_cast<std::remove_reference_t<Fn> *>(ctx))(i);
    };

    std::vector<std::function<void()>> jobs;
    jobs.reserve(helpers);
    for (size_t h = 0; h < helpers; ++h)
        jobs.emplace_back([state] { detail::parallelForDrain(*state); });
    pool.submitBatch(std::move(jobs));

    detail::parallelForDrain(*state);

    std::exception_ptr error;
    {
        MutexLock lock(state->mtx);
        while (state->done.load(std::memory_order_acquire) < n)
            state->cv.wait(state->mtx);
        // Take the error out of the shared state: a helper may still
        // hold the last reference to the state, and the caller must
        // own the last reference to the exception it rethrows and
        // reads, or a helper could free it while it is being read.
        error = std::exchange(state->error, nullptr);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace lpp::support

#endif // LPP_SUPPORT_PARALLEL_FOR_HPP
