#include "support/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

namespace lpp::support {

namespace {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0)
        threads = configuredThreads();
    slots = std::make_unique<WorkerSlot[]>(threads);
    workers.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mtx);
        stopping = true;
    }
    cv.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        MutexLock lock(mtx);
        queue.push_back(std::move(job));
    }
    cv.notify_one();
}

void
ThreadPool::submitBatch(std::vector<std::function<void()>> jobs)
{
    if (jobs.empty())
        return;
    {
        MutexLock lock(mtx);
        for (auto &job : jobs)
            queue.push_back(std::move(job));
    }
    cv.notify_all();
}

std::vector<ThreadPool::WorkerStats>
ThreadPool::workerStats() const
{
    std::vector<WorkerStats> out(workers.size());
    for (size_t i = 0; i < workers.size(); ++i) {
        out[i].tasks = slots[i].tasks.load(std::memory_order_relaxed);
        out[i].busyNs = slots[i].busyNs.load(std::memory_order_relaxed);
    }
    return out;
}

void
ThreadPool::resetWorkerStats()
{
    for (size_t i = 0; i < workers.size(); ++i) {
        slots[i].tasks.store(0, std::memory_order_relaxed);
        slots[i].busyNs.store(0, std::memory_order_relaxed);
    }
}

void
ThreadPool::workerLoop(size_t index)
{
    WorkerSlot &slot = slots[index];
    for (;;) {
        std::function<void()> job;
        {
            MutexLock lock(mtx);
            while (!stopping && queue.empty())
                cv.wait(mtx);
            if (queue.empty())
                return; // stopping and drained
            job = std::move(queue.front());
            queue.pop_front();
        }
        uint64_t start = nowNs();
        job();
        slot.busyNs.fetch_add(nowNs() - start, std::memory_order_relaxed);
        slot.tasks.fetch_add(1, std::memory_order_relaxed);
    }
}

size_t
ThreadPool::configuredThreads()
{
    if (const char *env = std::getenv("LPP_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return std::min(static_cast<size_t>(v), maxConfiguredThreads);
    }
    // Unset, empty, "0", negative, or unparsable: size to the machine.
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

} // namespace lpp::support
