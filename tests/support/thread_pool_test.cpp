#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "support/parallel_for.hpp"

namespace {

using lpp::core::ParallelRunner;
using lpp::support::parallelFor;
using lpp::support::ThreadPool;

TEST(ThreadPool, RunsEverySubmittedJob)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.threadCount(), 4u);
        for (int i = 0; i < 100; ++i)
            pool.submit([&counter] { ++counter; });
        // Destructor drains the queue and joins.
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SingleWorkerStillCompletes)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 10; ++i)
            pool.submit([&counter] { ++counter; });
    }
    EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, ConfiguredThreadsHonorsEnv)
{
    ASSERT_EQ(setenv("LPP_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::configuredThreads(), 3u);
    ASSERT_EQ(setenv("LPP_THREADS", "not-a-number", 1), 0);
    EXPECT_GE(ThreadPool::configuredThreads(), 1u);
    ASSERT_EQ(setenv("LPP_THREADS", "0", 1), 0);
    EXPECT_GE(ThreadPool::configuredThreads(), 1u);
    ASSERT_EQ(unsetenv("LPP_THREADS"), 0);
    EXPECT_GE(ThreadPool::configuredThreads(), 1u);
}

TEST(ThreadPool, ConfiguredThreadsEdgeCases)
{
    // Hardware sizing is the fallback for every non-positive spelling.
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    for (const char *bad : {"", "0", "-4", "garbage", "1x"}) {
        ASSERT_EQ(setenv("LPP_THREADS", bad, 1), 0);
        EXPECT_EQ(ThreadPool::configuredThreads(), hw)
            << "LPP_THREADS='" << bad << "'";
    }
    ASSERT_EQ(unsetenv("LPP_THREADS"), 0);
    EXPECT_EQ(ThreadPool::configuredThreads(), hw);

    // Explicit 1 means 1, and absurd values clamp instead of trying
    // to spawn a million threads.
    ASSERT_EQ(setenv("LPP_THREADS", "1", 1), 0);
    EXPECT_EQ(ThreadPool::configuredThreads(), 1u);
    ASSERT_EQ(setenv("LPP_THREADS", "1000000", 1), 0);
    EXPECT_EQ(ThreadPool::configuredThreads(), 256u);
    ASSERT_EQ(setenv("LPP_THREADS", "18446744073709551617", 1), 0);
    unsigned huge = ThreadPool::configuredThreads();
    EXPECT_GE(huge, 1u);
    EXPECT_LE(huge, 256u);
    ASSERT_EQ(unsetenv("LPP_THREADS"), 0);
}

TEST(ThreadPool, SubmitBatchRunsEverything)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(3);
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < 64; ++i)
            jobs.emplace_back([&counter] { ++counter; });
        pool.submitBatch(std::move(jobs));
        pool.submitBatch({}); // empty batch is a no-op
    }
    EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, WorkerStatsCountTasks)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 40; ++i)
        jobs.emplace_back([&counter] { ++counter; });
    pool.submitBatch(std::move(jobs));
    while (counter.load() < 40)
        std::this_thread::yield();

    auto stats = pool.workerStats();
    ASSERT_EQ(stats.size(), 2u);
    uint64_t tasks = 0;
    for (const auto &w : stats)
        tasks += w.tasks;
    EXPECT_EQ(tasks, 40u);

    pool.resetWorkerStats();
    for (const auto &w : pool.workerStats()) {
        EXPECT_EQ(w.tasks, 0u);
        EXPECT_EQ(w.busyNs, 0u);
    }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(pool, hits.size(), [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ZeroAndOneIterations)
{
    ThreadPool pool(2);
    int calls = 0;
    parallelFor(pool, 0, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(pool, 1, [&](size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, SafeFromInsidePoolWorker)
{
    // A nested parallelFor issued from a pool worker must not deadlock
    // even when every worker is occupied: the caller claims iterations
    // itself.
    ThreadPool pool(2);
    std::atomic<int> total{0};
    parallelFor(pool, 4, [&](size_t) {
        parallelFor(pool, 8, [&](size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ParallelFor, PropagatesSingleException)
{
    ThreadPool pool(4);
    try {
        parallelFor(pool, 100, [](size_t i) {
            if (i == 7)
                throw std::runtime_error("fail@" + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "fail@7");
    }
}

TEST(ParallelFor, ReportsLowestOfThrownExceptions)
{
    ThreadPool pool(4);
    try {
        parallelFor(pool, 100, [](size_t i) {
            if (i == 7 || i == 63)
                throw std::runtime_error("fail@" + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        // The reported error is the lowest-indexed exception actually
        // thrown; which of the two throws first can race, but nothing
        // else may surface.
        std::string what = e.what();
        EXPECT_TRUE(what == "fail@7" || what == "fail@63") << what;
    }
}

TEST(ParallelRunner, ResultsComeBackInSubmissionOrder)
{
    ThreadPool pool(4);
    ParallelRunner runner(pool);
    auto results = runner.mapIndexed(
        257, [](size_t i) { return i * i; });
    ASSERT_EQ(results.size(), 257u);
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(ParallelRunner, MatchesSerialReduction)
{
    ThreadPool pool(8);
    ParallelRunner runner(pool);
    auto results = runner.mapIndexed(1000, [](size_t i) {
        // A little work per job so jobs overlap in flight.
        uint64_t h = i + 1;
        for (int r = 0; r < 1000; ++r)
            h = h * 6364136223846793005ULL + 1442695040888963407ULL;
        return h;
    });
    uint64_t serial = 0;
    for (size_t i = 0; i < 1000; ++i) {
        uint64_t h = i + 1;
        for (int r = 0; r < 1000; ++r)
            h = h * 6364136223846793005ULL + 1442695040888963407ULL;
        serial += h;
    }
    uint64_t parallel =
        std::accumulate(results.begin(), results.end(), uint64_t{0});
    EXPECT_EQ(parallel, serial);
}

TEST(ParallelRunner, PropagatesExceptions)
{
    ThreadPool pool(2);
    ParallelRunner runner(pool);
    EXPECT_THROW(runner.mapIndexed(8,
                                   [](size_t i) -> int {
                                       if (i == 5)
                                           throw std::runtime_error("job");
                                       return 0;
                                   }),
                 std::runtime_error);
}

TEST(ParallelRunner, SharedPoolWorks)
{
    ParallelRunner runner; // process-wide pool
    auto results =
        runner.mapIndexed(16, [](size_t i) { return i + 1; });
    for (size_t i = 0; i < 16; ++i)
        EXPECT_EQ(results[i], i + 1);
}

} // namespace
