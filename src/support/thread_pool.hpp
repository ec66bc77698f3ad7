/**
 * @file
 * Shared-queue thread pool for fanning independent analysis jobs across
 * cores.
 *
 * The pool is deliberately simple: one mutex-protected FIFO feeding N
 * worker threads. Analysis jobs (one full workload evaluation, one
 * detector configuration, one trace shard) run for milliseconds to
 * seconds, so queue contention is irrelevant next to job cost and a
 * work-stealing deque would buy nothing. Determinism is the caller's
 * contract: jobs must not share mutable state, and callers collect
 * results by index (see core::ParallelRunner::mapIndexed), so the
 * output is bit-identical to running the same jobs serially.
 *
 * Each worker keeps utilization counters (tasks executed, busy
 * nanoseconds) so benches can report load balance per worker instead of
 * only end-to-end speedup; see workerStats().
 *
 * All queue state is annotated for clang's thread-safety analysis
 * (support/thread_annotations.hpp); tools/check.sh compiles with
 * -Wthread-safety -Werror when clang is available.
 */

#ifndef LPP_SUPPORT_THREAD_POOL_HPP
#define LPP_SUPPORT_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace lpp::support {

/** Fixed-size worker pool over one shared FIFO queue. */
class ThreadPool
{
  public:
    /** Utilization of one worker thread since the last reset. */
    struct WorkerStats
    {
        uint64_t tasks = 0;  //!< jobs this worker executed
        uint64_t busyNs = 0; //!< wall time spent inside jobs
    };

    /**
     * @param threads worker count; 0 means configuredThreads()
     */
    explicit ThreadPool(size_t threads = 0);

    /** Drains every queued job, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. Thread-safe. */
    void submit(std::function<void()> job) LPP_EXCLUDES(mtx);

    /**
     * Enqueue many jobs under one lock acquisition (wakes every
     * worker once instead of once per job). Thread-safe; `jobs` is
     * consumed.
     */
    void submitBatch(std::vector<std::function<void()>> jobs)
        LPP_EXCLUDES(mtx);

    /** @return number of worker threads. */
    size_t threadCount() const { return workers.size(); }

    /**
     * Per-worker utilization since construction or the last
     * resetWorkerStats(). Counters are maintained with relaxed atomics:
     * totals are exact once the pool is quiescent (no job in flight),
     * which is when benches read them.
     */
    std::vector<WorkerStats> workerStats() const;

    /** Zero every worker's utilization counters. */
    void resetWorkerStats();

    /**
     * The configured parallelism: the LPP_THREADS environment variable
     * when set to a positive integer (clamped to maxConfiguredThreads),
     * otherwise — unset, empty, "0", or unparsable — the hardware
     * concurrency (at least 1).
     */
    static size_t configuredThreads();

    /** Upper clamp applied to LPP_THREADS (absurd values cost RAM). */
    static constexpr size_t maxConfiguredThreads = 256;

    /** Process-wide pool shared by all analysis fan-outs. */
    static ThreadPool &shared();

  private:
    /** One worker's counters, cache-line padded against false sharing. */
    struct alignas(64) WorkerSlot
    {
        std::atomic<uint64_t> tasks{0};
        std::atomic<uint64_t> busyNs{0};
    };

    void workerLoop(size_t index);

    Mutex mtx;
    std::condition_variable_any cv;
    std::deque<std::function<void()>> queue LPP_GUARDED_BY(mtx);
    bool stopping LPP_GUARDED_BY(mtx) = false;
    // Immutable after construction; readable without the lock.
    std::vector<std::thread> workers;
    std::unique_ptr<WorkerSlot[]> slots;
};

} // namespace lpp::support

#endif // LPP_SUPPORT_THREAD_POOL_HPP
