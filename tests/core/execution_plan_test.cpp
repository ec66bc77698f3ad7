/**
 * @file
 * ExecutionPlan contract: passes sharing a key coalesce into one
 * execution, dependencies split and order executions, steps hand data
 * between stages, failures abandon dependents only, and parallel
 * scheduling is observationally identical to serial.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/execution_plan.hpp"
#include "support/thread_pool.hpp"
#include "trace/sink.hpp"
#include "workloads/registry.hpp"

namespace {

using lpp::core::ExecutionPlan;
using lpp::trace::Addr;

/** Counts deliveries and logs a tag on end. */
class TagSink : public lpp::trace::TraceSink
{
  public:
    TagSink(std::string tag_, std::vector<std::string> *ends_ = nullptr)
        : tag(std::move(tag_)), ends(ends_)
    {
    }

    void onAccess(Addr) override { ++accesses; }

    void
    onAccessBatch(const Addr *, size_t n) override
    {
        accesses += n;
    }

    void
    onEnd() override
    {
        ++endCount;
        if (ends != nullptr)
            ends->push_back(tag);
    }

    std::string tag;
    std::vector<std::string> *ends;
    uint64_t accesses = 0;
    int endCount = 0;
};

/** @return a contract-clean runner emitting `n` accesses. */
ExecutionPlan::Runner
emitRunner(std::atomic<int> *runs, size_t n = 16)
{
    return [runs, n](lpp::trace::TraceSink &sink) {
        if (runs != nullptr)
            ++*runs;
        sink.onBlock(0, 10);
        for (size_t i = 0; i < n; ++i)
            sink.onAccess(static_cast<Addr>(i * 8));
        sink.onEnd();
    };
}

TEST(ExecutionPlan, CoalescesPassesSharingAKey)
{
    std::atomic<int> runs{0};
    std::vector<std::string> ends;
    TagSink a("a", &ends), b("b", &ends);

    ExecutionPlan plan;
    plan.addPass("w@1", emitRunner(&runs), [&] { return &a; });
    plan.addPass("w@1", emitRunner(&runs), [&] { return &b; });
    plan.run();

    EXPECT_EQ(runs.load(), 1);
    EXPECT_EQ(a.accesses, 16u);
    EXPECT_EQ(b.accesses, 16u);
    // Fanout attaches member sinks in registration order.
    EXPECT_EQ(ends, (std::vector<std::string>{"a", "b"}));

    const auto &st = plan.stats();
    EXPECT_EQ(st.passes, 2u);
    EXPECT_EQ(st.programExecutions, 1u);
    EXPECT_EQ(st.coalescedPasses, 1u);
    EXPECT_EQ(plan.programExecutions("w@"), 1u);
}

TEST(ExecutionPlan, DistinctKeysRunSeparately)
{
    std::atomic<int> runs{0};
    TagSink a("a"), b("b");

    ExecutionPlan plan;
    plan.addPass("w@1", emitRunner(&runs), [&] { return &a; });
    plan.addPass("w@2", emitRunner(&runs), [&] { return &b; });
    plan.run();

    EXPECT_EQ(runs.load(), 2);
    EXPECT_EQ(plan.stats().programExecutions, 2u);
    EXPECT_EQ(plan.stats().coalescedPasses, 0u);
    EXPECT_EQ(plan.programExecutions("w@1"), 1u);
    EXPECT_EQ(plan.programExecutions("w@"), 2u);
}

TEST(ExecutionPlan, DependentSameKeyPassesSplitIntoTwoExecutions)
{
    std::atomic<int> runs{0};
    TagSink a("a"), b("b");
    bool stepRan = false;

    ExecutionPlan plan;
    auto p1 = plan.addPass("w@1", emitRunner(&runs), [&] { return &a; });
    auto s = plan.addStep([&] { stepRan = true; }, {p1});
    plan.addPass("w@1", emitRunner(&runs),
                 [&]() -> lpp::trace::TraceSink * {
                     // Built only after the step completed.
                     EXPECT_TRUE(stepRan);
                     return &b;
                 },
                 {s});
    plan.run();

    EXPECT_EQ(runs.load(), 2);
    EXPECT_TRUE(stepRan);
    EXPECT_EQ(plan.stats().programExecutions, 2u);
    EXPECT_EQ(plan.stats().coalescedPasses, 0u);
    EXPECT_EQ(plan.stats().steps, 1u);
}

TEST(ExecutionPlan, MergingNeverCreatesCyclesBetweenExecutions)
{
    // A(K), C(L, after A), D(L), B(K, after D): merging both groups
    // fully would deadlock (K-unit needs D, L-unit needs A). The
    // planner must split one group. A run() that returns proves the
    // schedule stayed acyclic.
    std::atomic<int> runs{0};
    TagSink a("a"), b("b"), c("c"), d("d");

    ExecutionPlan plan;
    auto pa = plan.addPass("K", emitRunner(&runs), [&] { return &a; });
    plan.addPass("L", emitRunner(&runs), [&] { return &c; }, {pa});
    auto pd = plan.addPass("L", emitRunner(&runs), [&] { return &d; });
    plan.addPass("K", emitRunner(&runs), [&] { return &b; }, {pd});
    plan.run();

    EXPECT_EQ(plan.stats().passes, 4u);
    // K coalesces {A, B}; L must stay split.
    EXPECT_EQ(plan.stats().programExecutions, 3u);
    EXPECT_EQ(plan.stats().coalescedPasses, 1u);
    for (const TagSink *s : {&a, &b, &c, &d})
        EXPECT_EQ(s->endCount, 1) << s->tag;
}

TEST(ExecutionPlan, ReplaysCountSeparatelyAndNeverCoalesceWithLive)
{
    std::atomic<int> runs{0};
    TagSink live("live"), replayed("replayed");

    ExecutionPlan plan;
    plan.addPass("w@1", emitRunner(&runs), [&] { return &live; });
    plan.addPass("w@1", emitRunner(&runs), [&] { return &replayed; }, {},
                 {.replay = true});
    plan.run();

    EXPECT_EQ(runs.load(), 2);
    EXPECT_EQ(plan.stats().programExecutions, 1u);
    EXPECT_EQ(plan.stats().replayExecutions, 1u);
    // Replays do not count as program executions.
    EXPECT_EQ(plan.programExecutions("w@"), 1u);
}

TEST(ExecutionPlan, StepsHandDataBetweenStages)
{
    // Precount-shaped flow: pass 1 measures, a step derives a value,
    // pass 2's sink factory consumes it lazily.
    TagSink meter("meter"), consumer("consumer");
    uint64_t derived = 0;

    ExecutionPlan plan;
    auto p1 = plan.addPass("w@1", emitRunner(nullptr, 32),
                           [&] { return &meter; });
    auto s = plan.addStep([&] { derived = meter.accesses * 2; }, {p1});
    plan.addPass("w@2", emitRunner(nullptr),
                 [&]() -> lpp::trace::TraceSink * {
                     EXPECT_EQ(derived, 64u);
                     return &consumer;
                 },
                 {s});
    plan.run();

    EXPECT_EQ(derived, 64u);
    EXPECT_EQ(consumer.endCount, 1);
}

TEST(ExecutionPlan, FailureAbandonsDependentsButRunsTheRest)
{
    lpp::support::ThreadPool pool(4);
    for (int trial = 0; trial < 2; ++trial) {
        TagSink survivor("survivor"), dependentSink("dep");
        bool dependentStepRan = false;

        ExecutionPlan plan;
        auto bad = plan.addPass(
            "bad@1",
            [](lpp::trace::TraceSink &) {
                throw std::runtime_error("execution failed");
            },
            [&]() -> lpp::trace::TraceSink * { return &dependentSink; });
        plan.addStep([&] { dependentStepRan = true; }, {bad});
        plan.addPass("good@1", emitRunner(nullptr),
                     [&] { return &survivor; });

        // Trial 0 exercises the parallel scheduler, trial 1 the serial
        // one (shared() may be single-threaded; use explicit pools).
        if (trial == 0)
            EXPECT_THROW(plan.run(pool), std::runtime_error);
        else {
            lpp::support::ThreadPool serial(1);
            EXPECT_THROW(plan.run(serial), std::runtime_error);
        }
        EXPECT_FALSE(dependentStepRan);
        EXPECT_EQ(survivor.endCount, 1);
    }
}

TEST(ExecutionPlan, ParallelSchedulingMatchesSerial)
{
    // Diamond per "workload": one base execution feeding two steps
    // feeding a join step; eight independent diamonds. The two arms
    // may run concurrently, so each writes its own slot and only the
    // join, which runs after both, combines them.
    auto build = [](ExecutionPlan &plan, std::vector<uint64_t> &out,
                    std::vector<TagSink> &sinks) {
        out.assign(3 * 8, 0);
        sinks.reserve(8);
        for (int w = 0; w < 8; ++w) {
            sinks.emplace_back("w" + std::to_string(w));
            TagSink *sink = &sinks.back();
            uint64_t *slot = &out[3 * w];
            uint64_t *leftSlot = slot + 1;
            uint64_t *rightSlot = slot + 2;
            auto base = plan.addPass("w" + std::to_string(w) + "@1",
                                     emitRunner(nullptr, 8 + w),
                                     [sink] { return sink; });
            auto left = plan.addStep(
                [leftSlot, sink] { *leftSlot = sink->accesses; }, {base});
            auto right =
                plan.addStep([rightSlot] { *rightSlot = 1000; }, {base});
            plan.addStep(
                [slot, leftSlot, rightSlot] {
                    *slot = (*leftSlot + *rightSlot) * 3;
                },
                {left, right});
        }
    };

    std::vector<uint64_t> serialOut, parallelOut;
    std::vector<TagSink> serialSinks, parallelSinks;
    {
        ExecutionPlan plan;
        build(plan, serialOut, serialSinks);
        lpp::support::ThreadPool serial(1);
        plan.run(serial);
    }
    {
        ExecutionPlan plan;
        build(plan, parallelOut, parallelSinks);
        lpp::support::ThreadPool pool(4);
        plan.run(pool);
    }
    EXPECT_EQ(serialOut, parallelOut);
    for (int w = 0; w < 8; ++w)
        EXPECT_EQ(serialOut[3 * w], (8u + w + 1000u) * 3u);
}

TEST(ExecutionPlanDeathTest, RunIsOneShotAndStatsQueriesNeedARun)
{
    ExecutionPlan plan;
    TagSink a("a");
    plan.addPass("w@1", emitRunner(nullptr), [&] { return &a; });
    EXPECT_DEATH(plan.programExecutions("w@"), "before run");
    lpp::support::ThreadPool serial(1);
    plan.run(serial);
    EXPECT_DEATH(plan.run(serial), "already ran");
}

TEST(ExecutionPlan, WorkloadKeyIdentifiesProgramAndInput)
{
    auto w = lpp::workloads::create("gcc");
    ASSERT_NE(w, nullptr);
    auto train = lpp::core::workloadKey(*w, w->trainInput());
    auto ref = lpp::core::workloadKey(*w, w->refInput());
    EXPECT_EQ(train.rfind("gcc@", 0), 0u);
    EXPECT_NE(train, ref);
    EXPECT_EQ(train, lpp::core::workloadKey(*w, w->trainInput()));
}

} // namespace
