/**
 * @file
 * The static oracle: cross-checking the dynamic pipeline against a
 * zero-execution prediction.
 *
 * For workloads that carry an affine IR (workloads::StaticallyDescribed)
 * the staticloc engines predict the training run's reuse histogram,
 * miss curve, footprint, and phase schedule without running anything.
 * The oracle measures the same quantities from a *replay* of the
 * already-recorded training stream and compares within configurable
 * bounds — the histogram and miss curve exactly (bit/count
 * identical), because every staticloc engine is exact for the
 * programs it accepts. A divergence means the dynamic pipeline
 * (recorder, replay, reuse stack, sharded sweep) perturbed the stream
 * or the measurement: an independent correctness tripwire that costs
 * zero live program executions.
 *
 * Error-bound contract (see DESIGN.md "Static locality oracle"):
 *  - histogram: relative L1 divergence 0 (bin-for-bin identical);
 *  - miss curve: predicted miss rate equal to the measured one at
 *    every power-of-two capacity;
 *  - phase boundaries: predicted phase-entry clocks must equal the
 *    measured manual-marker clocks within markerTolerance accesses
 *    (0 = exact), ids included; the *detected* boundaries (sparse
 *    sampling, so never clock-exact) must each fall within
 *    boundarySlack accesses of a predicted phase transition.
 */

#ifndef LPP_CORE_STATIC_ORACLE_HPP
#define LPP_CORE_STATIC_ORACLE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "reuse/analyzer.hpp"
#include "staticloc/predict.hpp"
#include "support/histogram.hpp"
#include "trace/sink.hpp"

namespace lpp::core {

/** Oracle verification settings (AnalysisConfig::staticOracle). */
struct StaticOracleConfig
{
    bool enabled = false; //!< opt-in verification mode

    /** Engine choice; Auto = strongest applicable (always exact). */
    staticloc::Method method = staticloc::Method::Auto;

    /** Manual-marker clock bound, in accesses; 0 = exact. */
    uint64_t markerTolerance = 0;

    /** Detected boundaries must land this close to a predicted phase
     *  transition (sampling spacing makes them inherently inexact). */
    uint64_t boundarySlack = 1024;

    /**
     * Fail when the detector finds no boundaries although the
     * prediction says the run has phase transitions. Off by default:
     * a strictly periodic program reaches a steady state where every
     * datum's qualifying reuse distances are constant, the wavelet
     * filter keeps nothing (no rare events), and the detector
     * legitimately reports no boundaries — the paper's detection keys
     * on *changing* locality. When the detector does report
     * boundaries, the boundarySlack check above always applies.
     */
    bool requireDetection = false;
};

/** What the measured side of the comparison observed. */
struct MeasuredLocality
{
    LogHistogram histogram; //!< whole-run reuse-distance histogram
    uint64_t accesses = 0;
    uint64_t distinctElements = 0;
    std::vector<uint64_t> markerTimes; //!< manual markers, access clock
    std::vector<uint32_t> markerIds;
};

/** Outcome of one static-vs-dynamic comparison. */
struct StaticOracleReport
{
    bool applicable = false; //!< workload carries an affine IR
    bool checked = false;    //!< a comparison ran
    bool ok = false;         //!< every enabled bound held

    staticloc::Method method = staticloc::Method::Counting;
    bool exact = false; //!< the engine claims exactness

    uint64_t predictedAccesses = 0;
    uint64_t measuredAccesses = 0;
    uint64_t predictedFootprint = 0;
    uint64_t measuredFootprint = 0;

    double histogramDivergence = 0.0; //!< relative L1, 0 = identical
    bool histogramIdentical = false;
    double maxMissRateError = 0.0;

    bool markersIdentical = false; //!< counts, ids and exact clocks
    uint64_t markerMaxError = 0;   //!< max |predicted - measured| clock
    uint64_t predictedPhaseExecutions = 0;
    uint64_t measuredMarkers = 0;

    uint64_t detectedBoundaries = 0;
    uint64_t detectedBoundaryMaxError = 0; //!< to nearest prediction
    double detectedBoundaryPrecision = 0.0; //!< within boundarySlack

    std::vector<std::string> failures; //!< violated bounds, readable
};

/** @return bin-for-bin equality, totals included. */
bool histogramsIdentical(const LogHistogram &a, const LogHistogram &b);

/**
 * @return relative L1 divergence: sum over bins (and the infinite bin)
 *         of |a - b|, over max(total(a), total(b), 1). 0 iff identical
 *         at bin granularity.
 */
double histogramDivergence(const LogHistogram &a, const LogHistogram &b);

/**
 * Compare a static prediction against the measured training run and
 * the detector's boundary times under `config`'s bounds. Pure
 * computation; `config.enabled` is not consulted.
 */
StaticOracleReport
compareStaticOracle(const staticloc::StaticPrediction &prediction,
                    const MeasuredLocality &measured,
                    const std::vector<uint64_t> &detected_boundaries,
                    const StaticOracleConfig &config);

/**
 * The measured side, as a sink: an element-granularity ReuseAnalyzer
 * plus manual-marker clocks, fed from a replay of the recorded
 * training stream.
 */
class MeasuredLocalitySink : public trace::TraceSink
{
  public:
    /** @param element_hint expected footprint; pre-sizes the stack. */
    explicit MeasuredLocalitySink(uint64_t element_hint = 0)
        : analyzer(element_hint)
    {
    }

    void onAccess(trace::Addr addr) override { analyzer.onAccess(addr); }

    void
    onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        analyzer.onAccessBatch(addrs, n);
    }

    void
    onManualMarker(uint32_t marker_id) override
    {
        out.markerTimes.push_back(analyzer.accessCount());
        out.markerIds.push_back(marker_id);
    }

    /** @return the measurement (valid once the stream ended). */
    MeasuredLocality
    take()
    {
        out.histogram = analyzer.histogram();
        out.accesses = analyzer.accessCount();
        out.distinctElements = analyzer.distinctElements();
        return std::move(out);
    }

  private:
    reuse::ReuseAnalyzer analyzer;
    MeasuredLocality out;
};

} // namespace lpp::core

#endif // LPP_CORE_STATIC_ORACLE_HPP
