/**
 * @file
 * Equivalence suite for the execution-plan refactor: the planned
 * (coalesced, replayed, pooled) evaluation of every registry workload
 * must be bit-identical to the pre-refactor serial path — one program
 * execution per consumer, assembled with the same public building
 * blocks the old evaluateWorkload used.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/evaluation.hpp"
#include "core/execution_plan.hpp"
#include "support/thread_pool.hpp"
#include "trace/validator.hpp"
#include "workloads/registry.hpp"

namespace {

using lpp::core::AnalysisConfig;
using lpp::core::WorkloadEvaluation;

/** The pre-refactor pipeline: one dedicated execution per consumer. */
WorkloadEvaluation
serialReference(const lpp::workloads::Workload &w,
                const AnalysisConfig &config)
{
    WorkloadEvaluation ev;
    ev.name = w.name();
    ev.analysis = lpp::core::PhaseAnalysis::analyzeWorkload(w, config);

    const lpp::trace::MarkerTable &table =
        ev.analysis.detection.selection.table;
    auto train_in = w.trainInput();
    auto ref_in = w.refInput();

    ev.train = lpp::core::runInstrumented(
        table, [&](lpp::trace::TraceSink &s) { w.run(train_in, s); });
    ev.ref = lpp::core::runInstrumented(
        table, [&](lpp::trace::TraceSink &s) { w.run(ref_in, s); });

    ev.metrics = lpp::core::evaluatePrediction(
        ev.ref.replay, ev.analysis.consistentPhases());

    auto train_hier = lpp::grammar::PhaseHierarchy::fromSequence(
        ev.train.replay.sequence());
    auto ref_hier = lpp::grammar::PhaseHierarchy::fromSequence(
        ev.ref.replay.sequence());
    ev.detectionRow = lpp::core::granularity(ev.train.replay, train_hier);
    ev.predictionRow = lpp::core::granularity(ev.ref.replay, ref_hier);

    ev.localityStddev = lpp::core::phaseLocalityStddev(ev.ref.replay);

    auto auto_times = [](const lpp::core::Replay &r) {
        std::vector<uint64_t> t;
        for (const auto &e : r.executions)
            t.push_back(e.startAccess);
        return t;
    };
    ev.trainOverlap = lpp::core::markerOverlap(
        ev.train.manualTimes, auto_times(ev.train.replay));
    ev.refOverlap = lpp::core::markerOverlap(ev.ref.manualTimes,
                                             auto_times(ev.ref.replay));
    return ev;
}

void
expectSameReplay(const lpp::core::Replay &a, const lpp::core::Replay &b,
                 const std::string &what)
{
    EXPECT_EQ(a.totalInstructions, b.totalInstructions) << what;
    EXPECT_EQ(a.totalAccesses, b.totalAccesses) << what;
    EXPECT_EQ(a.prologueInstructions, b.prologueInstructions) << what;
    ASSERT_EQ(a.executions.size(), b.executions.size()) << what;
    for (size_t i = 0; i < a.executions.size(); ++i) {
        const auto &x = a.executions[i];
        const auto &y = b.executions[i];
        EXPECT_EQ(x.phase, y.phase) << what << " #" << i;
        EXPECT_EQ(x.startInstr, y.startInstr) << what << " #" << i;
        EXPECT_EQ(x.startAccess, y.startAccess) << what << " #" << i;
        EXPECT_EQ(x.instructions, y.instructions) << what << " #" << i;
        EXPECT_EQ(x.accesses, y.accesses) << what << " #" << i;
        EXPECT_EQ(x.locality.accesses, y.locality.accesses)
            << what << " #" << i;
        EXPECT_EQ(x.locality.misses, y.locality.misses)
            << what << " #" << i;
    }
}

std::string
hierarchyText(const lpp::grammar::PhaseHierarchy &h)
{
    return h.root() ? h.root()->toString() : "-";
}

void
expectSameEvaluation(const WorkloadEvaluation &planned,
                     const WorkloadEvaluation &serial)
{
    const std::string &w = serial.name;
    EXPECT_EQ(planned.name, serial.name);

    // Detection counters and locality-analysis output.
    const auto &pd = planned.analysis.detection;
    const auto &sd = serial.analysis.detection;
    EXPECT_EQ(pd.dataSamples, sd.dataSamples) << w;
    EXPECT_EQ(pd.accessSamples, sd.accessSamples) << w;
    EXPECT_EQ(pd.samplerAdjustments, sd.samplerAdjustments) << w;
    EXPECT_EQ(pd.trainAccesses, sd.trainAccesses) << w;
    EXPECT_EQ(pd.trainInstructions, sd.trainInstructions) << w;
    EXPECT_EQ(pd.boundaryTimes, sd.boundaryTimes) << w;
    EXPECT_EQ(pd.partitionResult.boundaries,
              sd.partitionResult.boundaries) << w;
    EXPECT_EQ(pd.partitionResult.cost, sd.partitionResult.cost) << w;
    EXPECT_EQ(pd.partitionResult.nodes, sd.partitionResult.nodes) << w;
    EXPECT_EQ(pd.filterStats.dataSamples, sd.filterStats.dataSamples) << w;
    EXPECT_EQ(pd.filterStats.dropped, sd.filterStats.dropped) << w;
    EXPECT_EQ(pd.filterStats.accessesIn, sd.filterStats.accessesIn) << w;
    EXPECT_EQ(pd.filterStats.accessesKept, sd.filterStats.accessesKept)
        << w;

    // Marker selection: table, phases, training executions.
    auto ptab = pd.selection.table.entries();
    auto stab = sd.selection.table.entries();
    std::sort(ptab.begin(), ptab.end());
    std::sort(stab.begin(), stab.end());
    EXPECT_EQ(ptab, stab) << w;
    EXPECT_EQ(pd.selection.detectedExecutions,
              sd.selection.detectedExecutions) << w;
    EXPECT_EQ(pd.selection.candidateBlocks, sd.selection.candidateBlocks)
        << w;
    EXPECT_EQ(pd.selection.regions, sd.selection.regions) << w;
    ASSERT_EQ(pd.selection.phases.size(), sd.selection.phases.size()) << w;
    for (size_t i = 0; i < pd.selection.phases.size(); ++i) {
        const auto &x = pd.selection.phases[i];
        const auto &y = sd.selection.phases[i];
        EXPECT_EQ(x.id, y.id) << w;
        EXPECT_EQ(x.marker, y.marker) << w;
        EXPECT_EQ(x.executions, y.executions) << w;
        EXPECT_EQ(x.minInstructions, y.minInstructions) << w;
        EXPECT_EQ(x.maxInstructions, y.maxInstructions) << w;
        EXPECT_EQ(x.meanInstructions, y.meanInstructions) << w;
        EXPECT_EQ(x.markerQuality, y.markerQuality) << w;
    }
    EXPECT_EQ(pd.selection.sequence(), sd.selection.sequence()) << w;
    EXPECT_EQ(hierarchyText(planned.analysis.hierarchy),
              hierarchyText(serial.analysis.hierarchy)) << w;

    // Instrumented runs: the training side of the planned pipeline is
    // a REPLAY of the recorded sampling stream — it must be
    // indistinguishable from the serial live run.
    expectSameReplay(planned.train.replay, serial.train.replay,
                     w + " train");
    expectSameReplay(planned.ref.replay, serial.ref.replay, w + " ref");
    EXPECT_EQ(planned.train.manualTimes, serial.train.manualTimes) << w;
    EXPECT_EQ(planned.ref.manualTimes, serial.ref.manualTimes) << w;

    // Derived metrics, bit for bit.
    EXPECT_EQ(planned.metrics.strictAccuracy, serial.metrics.strictAccuracy)
        << w;
    EXPECT_EQ(planned.metrics.strictCoverage, serial.metrics.strictCoverage)
        << w;
    EXPECT_EQ(planned.metrics.relaxedAccuracy,
              serial.metrics.relaxedAccuracy) << w;
    EXPECT_EQ(planned.metrics.relaxedCoverage,
              serial.metrics.relaxedCoverage) << w;
    EXPECT_EQ(planned.metrics.strictPredictions,
              serial.metrics.strictPredictions) << w;
    EXPECT_EQ(planned.metrics.relaxedPredictions,
              serial.metrics.relaxedPredictions) << w;

    auto sameRow = [&](const lpp::core::GranularityRow &x,
                       const lpp::core::GranularityRow &y) {
        EXPECT_EQ(x.leafExecutions, y.leafExecutions) << w;
        EXPECT_EQ(x.execLengthM, y.execLengthM) << w;
        EXPECT_EQ(x.avgLeafSizeM, y.avgLeafSizeM) << w;
        EXPECT_EQ(x.avgLargestCompositeM, y.avgLargestCompositeM) << w;
    };
    sameRow(planned.detectionRow, serial.detectionRow);
    sameRow(planned.predictionRow, serial.predictionRow);

    EXPECT_EQ(planned.localityStddev, serial.localityStddev) << w;
    EXPECT_EQ(planned.trainOverlap.recall, serial.trainOverlap.recall) << w;
    EXPECT_EQ(planned.trainOverlap.precision,
              serial.trainOverlap.precision) << w;
    EXPECT_EQ(planned.refOverlap.recall, serial.refOverlap.recall) << w;
    EXPECT_EQ(planned.refOverlap.precision, serial.refOverlap.precision)
        << w;
}

/** All nine registry workloads through one shared, pooled plan. */
TEST(PlanEquivalence, AllWorkloadsBitIdenticalToSerialPipeline)
{
    AnalysisConfig config;
    auto names = lpp::workloads::allNames();
    ASSERT_EQ(names.size(), 9u);

    auto planned = lpp::core::evaluateWorkloads(names, config);
    ASSERT_EQ(planned.size(), names.size());

    for (size_t i = 0; i < names.size(); ++i) {
        auto w = lpp::workloads::create(names[i]);
        ASSERT_NE(w, nullptr);
        auto serial = serialReference(*w, config);
        expectSameEvaluation(planned[i], serial);
        // The whole point of the plan: exactly two live program
        // executions per workload (training, reference) — precount
        // and sampling both consume the training recording.
        EXPECT_EQ(planned[i].programExecutions, 2u) << names[i];
    }
}

/** Single-workload plan: same result, and the stream stays
 *  protocol-clean under an explicitly attached validating pass. */
TEST(PlanEquivalence, SingleWorkloadPlanMatchesAndValidates)
{
    AnalysisConfig config;
    auto w = lpp::workloads::create("fft");
    ASSERT_NE(w, nullptr);

    WorkloadEvaluation planned;
    lpp::trace::ValidatingSink watchdog;
    lpp::core::ExecutionPlan plan;
    lpp::core::registerWorkloadEvaluation(plan, *w, config, &planned);
    // Extra consumer on the training execution: shares the run, sees
    // the identical stream, and checks the sink protocol end to end.
    plan.addPass(lpp::core::workloadKey(*w, w->trainInput()),
                 [&](lpp::trace::TraceSink &s) {
                     w->run(w->trainInput(), s);
                 },
                 [&] { return &watchdog; });
    plan.run();
    planned.programExecutions =
        plan.programExecutions(w->name() + "@");

    EXPECT_TRUE(watchdog.ok()) << watchdog.reportText();
    EXPECT_TRUE(watchdog.ended());
    EXPECT_LE(planned.programExecutions, 2u);

    auto serial = serialReference(*w, config);
    expectSameEvaluation(planned, serial);
}

/** The sharded intra-workload path (chunked replay of the training
 *  recording for precount + sampling + block trace) must be
 *  bit-identical to the serial reference at every thread count. At one
 *  thread the serial replay path runs; at two and four the sharded
 *  sweeps run on the same pool the plan schedules on. */
TEST(PlanEquivalence, ShardedEvaluationBitIdenticalAcrossThreadCounts)
{
    AnalysisConfig config;
    auto w = lpp::workloads::create("fft");
    ASSERT_NE(w, nullptr);
    auto serial = serialReference(*w, config);

    for (size_t threads : {1u, 2u, 4u}) {
        lpp::support::ThreadPool pool(threads);
        auto planned =
            lpp::core::evaluateWorkloads({"fft"}, config, pool);
        ASSERT_EQ(planned.size(), 1u);
        expectSameEvaluation(planned[0], serial);
        EXPECT_EQ(planned[0].programExecutions, 2u)
            << threads << " threads";
    }
}

/** Trace-cache paths: a cold-recording evaluation (cache miss, live
 *  execution + store publish) and a warm-cache evaluation (0 live
 *  executions, store replay) are both bit-identical to the serial
 *  reference pipeline. */
TEST(PlanEquivalence, TraceCacheColdAndWarmBitIdenticalToSerial)
{
    namespace fs = std::filesystem;
    auto dir = fs::temp_directory_path() /
               ("lpp_eq_cache_" + std::to_string(::getpid()));
    fs::remove_all(dir);

    AnalysisConfig config;
    config.traceCache.enabled = true;
    config.traceCache.dir = dir.string();
    auto w = lpp::workloads::create("mesh");
    ASSERT_NE(w, nullptr);

    auto serial = serialReference(*w, AnalysisConfig{});

    // Cold: every probe misses, records live, and publishes.
    auto cold = lpp::core::evaluateWorkload(*w, config);
    expectSameEvaluation(cold, serial);
    EXPECT_EQ(cold.programExecutions, 2u);
    EXPECT_EQ(cold.traceCacheHits, 0u);
    EXPECT_EQ(cold.traceCacheMisses, 2u);
    EXPECT_GT(cold.traceBytes, 0u);

    // Warm: both executions replay from the store.
    auto warm = lpp::core::evaluateWorkload(*w, config);
    expectSameEvaluation(warm, serial);
    EXPECT_EQ(warm.programExecutions, 0u);
    EXPECT_EQ(warm.traceCacheHits, 2u);
    EXPECT_EQ(warm.traceCacheMisses, 0u);
    EXPECT_GT(warm.traceBytes, 0u);
    // Bytes reused from the store count like bytes written to it.
    EXPECT_EQ(warm.traceBytes, cold.traceBytes);

    // The analysis-only entry point hits the same training entry.
    auto analysisOnly = lpp::core::analyzeWorkload(*w, config);
    EXPECT_EQ(analysisOnly.programExecutions, 0u);
    EXPECT_EQ(analysisOnly.traceCacheHits, 1u);
    EXPECT_EQ(hierarchyText(analysisOnly.analysis.hierarchy),
              hierarchyText(serial.analysis.hierarchy));
    EXPECT_EQ(analysisOnly.analysis.detection.boundaryTimes,
              serial.analysis.detection.boundaryTimes);

    // A corrupt payload reads as a miss and falls back to live
    // execution with an identical result.
    bool truncated = false;
    for (const auto &entry : fs::directory_iterator(dir)) {
        fs::resize_file(entry.path(),
                        fs::file_size(entry.path()) / 2);
        truncated = true;
    }
    ASSERT_TRUE(truncated);
    auto fallback = lpp::core::evaluateWorkload(*w, config);
    expectSameEvaluation(fallback, serial);

    fs::remove_all(dir);
}

/** A stored training entry's precount statistics size the sampler on a
 *  store hit. A flipped statistics bit must fail the load's hash check
 *  and fall back to a live run whose analysis equals the cold one —
 *  not size the sampler from the corrupt count. */
TEST(PlanEquivalence, FlippedStoredStatisticsFallBackToLiveAnalysis)
{
    namespace fs = std::filesystem;
    auto dir = fs::temp_directory_path() /
               ("lpp_eq_stats_" + std::to_string(::getpid()));
    fs::remove_all(dir);

    AnalysisConfig config;
    config.traceCache.enabled = true;
    config.traceCache.dir = dir.string();
    auto w = lpp::workloads::create("mesh");
    ASSERT_NE(w, nullptr);

    auto cold = lpp::core::analyzeWorkload(*w, config);
    EXPECT_EQ(cold.traceCacheMisses, 1u);
    std::vector<fs::path> entries;
    for (const auto &entry : fs::directory_iterator(dir))
        entries.push_back(entry.path());
    ASSERT_EQ(entries.size(), 1u); // the training recording

    // Bit 8 of the header's distinct-element count, which starts at
    // byte 33 (after magic, version, params hash, event and access
    // counts, and the has-statistics flag).
    {
        std::fstream f(entries[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        char c = 0;
        f.seekg(34);
        f.read(&c, 1);
        c = static_cast<char>(c ^ 0x01);
        f.seekp(34);
        f.write(&c, 1);
    }

    auto flipped = lpp::core::analyzeWorkload(*w, config);
    const auto &fd = flipped.analysis.detection;
    const auto &cd = cold.analysis.detection;
    EXPECT_EQ(fd.accessSamples, cd.accessSamples);
    EXPECT_EQ(fd.dataSamples, cd.dataSamples);
    EXPECT_EQ(fd.samplerAdjustments, cd.samplerAdjustments);
    EXPECT_EQ(fd.boundaryTimes, cd.boundaryTimes);
    EXPECT_EQ(hierarchyText(flipped.analysis.hierarchy),
              hierarchyText(cold.analysis.hierarchy));

    fs::remove_all(dir);
}

/** Interval profiles registered against an evaluation's reference key
 *  share its execution and still match the standalone collector. */
TEST(PlanEquivalence, SharedIntervalPassesMatchStandaloneCollectors)
{
    AnalysisConfig config;
    auto w = lpp::workloads::create("compress");
    ASSERT_NE(w, nullptr);
    const uint64_t unit = 50000;

    WorkloadEvaluation planned;
    lpp::core::IntervalProfile sharedIntervals;
    lpp::core::PhaseIntervalProfile sharedPhases;
    {
        lpp::core::ExecutionPlan plan;
        auto nodes = lpp::core::registerWorkloadEvaluation(plan, *w,
                                                           config,
                                                           &planned);
        auto ref_key = lpp::core::workloadKey(*w, w->refInput());
        auto ref_runner = [&](lpp::trace::TraceSink &s) {
            w->run(w->refInput(), s);
        };
        lpp::core::registerIntervalProfile(plan, ref_key, ref_runner,
                                           unit, 32, &sharedIntervals);
        lpp::core::registerPhaseIntervalProfile(
            plan, ref_key, &planned.analysis.detection.selection.table,
            ref_runner, unit, &sharedPhases, {nodes.analysisReady});
        plan.run();
        planned.programExecutions =
            plan.programExecutions(w->name() + "@");
        // Both interval passes coalesced with the evaluation's own
        // reference execution: still two live runs in total.
        EXPECT_EQ(planned.programExecutions, 2u);
    }

    auto serial = serialReference(*w, config);
    expectSameEvaluation(planned, serial);

    auto aloneIntervals = lpp::core::collectIntervals(
        [&](lpp::trace::TraceSink &s) { w->run(w->refInput(), s); },
        unit, 32);
    ASSERT_EQ(sharedIntervals.units.size(), aloneIntervals.units.size());
    for (size_t i = 0; i < sharedIntervals.units.size(); ++i) {
        EXPECT_EQ(sharedIntervals.units[i].accesses,
                  aloneIntervals.units[i].accesses);
        EXPECT_EQ(sharedIntervals.units[i].misses,
                  aloneIntervals.units[i].misses);
    }
    EXPECT_EQ(sharedIntervals.bbvs, aloneIntervals.bbvs);

    auto alonePhases = lpp::core::collectPhaseIntervals(
        serial.analysis.detection.selection.table,
        [&](lpp::trace::TraceSink &s) { w->run(w->refInput(), s); },
        unit);
    ASSERT_EQ(sharedPhases.units.size(), alonePhases.units.size());
    EXPECT_EQ(sharedPhases.keys, alonePhases.keys);
    for (size_t i = 0; i < sharedPhases.units.size(); ++i) {
        EXPECT_EQ(sharedPhases.units[i].accesses,
                  alonePhases.units[i].accesses);
        EXPECT_EQ(sharedPhases.units[i].misses,
                  alonePhases.units[i].misses);
    }
}

} // namespace
