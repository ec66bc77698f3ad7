/**
 * @file
 * Off-line phase analysis — the library's primary entry point.
 *
 * Chains the paper's pipeline over a training run: variable-distance
 * sampling, wavelet filtering, optimal phase partitioning, marker
 * selection, and phase-hierarchy construction via Sequitur. The result
 * carries everything needed to instrument and predict a production run:
 * the marker table (which basic blocks announce which phase), per-phase
 * training statistics with a consistency flag, and the hierarchy regex.
 */

#ifndef LPP_CORE_ANALYSIS_HPP
#define LPP_CORE_ANALYSIS_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "core/static_oracle.hpp"
#include "core/stratified.hpp"
#include "grammar/hierarchy.hpp"
#include "phase/detector.hpp"
#include "workloads/workload.hpp"

namespace lpp::support {
class ThreadPool;
}

namespace lpp::core {

/**
 * On-disk trace-cache settings (trace::TraceStore). Disabled by
 * default: benches and sweeps that want record-once/replay-many opt in
 * explicitly, and one-shot consumers keep the live pipeline.
 */
struct TraceCacheConfig
{
    bool enabled = false;                     //!< opt-in
    std::string dir = "bench_out/trace_cache"; //!< cache directory
};

/**
 * Intra-workload sharding of the replay-fed training stages. When the
 * executing pool has more than one thread, the precount and the
 * sampling/block passes run as chunked parallel sweeps over the
 * recorded training stream (reuse::shardedReuseSweep, chunks of 2^20
 * accesses) instead of one serial replay. Results are bit-identical to
 * the serial path at every chunk size and thread count; on a
 * single-threaded pool the serial path runs unchanged. Neither path
 * wins everywhere (DESIGN.md "Performance architecture"), so both
 * stay.
 */
struct ShardingConfig
{
    /** Pool for the sharded sweeps; null means the shared pool. Use
     *  the same pool the plan runs on. */
    support::ThreadPool *pool = nullptr;
};

/** Configuration of the full off-line analysis. */
struct AnalysisConfig
{
    phase::DetectorConfig detector;

    /** Cross-process reuse of recorded executions (evaluation only). */
    TraceCacheConfig traceCache;

    /** Intra-workload parallelism over the recorded training stream. */
    ShardingConfig sharding;

    /**
     * Zero-execution verification: for workloads carrying an affine IR
     * (workloads::StaticallyDescribed), predict the training run's
     * locality statically and compare against the measured stream
     * within the configured bounds. Honoured by core::analyzeWorkload
     * and core::evaluateWorkload(s); adds one replay of the recorded
     * training stream and no live executions.
     */
    StaticOracleConfig staticOracle;

    /**
     * Phase-stratified sampled evaluation (core::StratifiedEvaluator):
     * instead of replaying the whole recorded stream through the
     * locality consumers, sample k executions per detected phase and
     * extrapolate with per-stratum variance and confidence intervals.
     * core::analyzeWorkload applies it to the training recording;
     * core::evaluateWorkload(s) to the reference recording (which is
     * then recorded even with the trace cache off). With
     * verifyAgainstExact the exhaustive path also runs and the report
     * carries the sampled-vs-exact comparison.
     */
    StratifiedSamplingConfig stratifiedSampling;

    AnalysisConfig()
    {
        // Defaults tuned for the synthetic suite's scale: training
        // sub-traces are tens of accesses per datum (the paper's were
        // thousands), so the narrow Haar filter localizes changes
        // better than Daubechies-6 at this length.
        detector.filter.family = wavelet::Family::Haar;
        detector.sampler.targetSamples = 20000;
        detector.marker.frequencySlack = 1.5;
    }
};

/** Everything the off-line analysis learned. */
struct AnalysisResult
{
    /** Detection pipeline output (markers, executions, boundaries). */
    phase::DetectionResult detection;

    /** Phase hierarchy of the training run's leaf sequence. */
    grammar::PhaseHierarchy hierarchy;

    /** @return per-phase training consistency (exact length repeats). */
    std::vector<bool> consistentPhases() const;
};

/** Off-line analyzer. */
class PhaseAnalysis
{
  public:
    /** Streams one training execution into the sink; repeatable. */
    using Runner = std::function<void(trace::TraceSink &)>;

    /** Analyze an arbitrary program given as a runner callback. */
    static AnalysisResult analyze(const Runner &run,
                                  const AnalysisConfig &config = {});

    /** Analyze a workload's training input. */
    static AnalysisResult
    analyzeWorkload(const workloads::Workload &workload,
                    const AnalysisConfig &config = {});
};

} // namespace lpp::core

#endif // LPP_CORE_ANALYSIS_HPP
