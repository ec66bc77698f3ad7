/**
 * @file
 * Variable-distance sampling (paper Section 2.2.1).
 *
 * Instead of analyzing all accesses to all data, the detector samples a
 * small set of representative data elements and, for each, records only
 * long-distance reuses — the ones that reveal global pattern changes.
 * Ding & Zhong's distance-based sampling used three fixed thresholds
 * (qualification, temporal, spatial) that are hard to pick; the paper's
 * contribution here is dynamic feedback: the sampler periodically compares
 * its collection rate against a target sample budget and scales the
 * thresholds so the final sample count lands near the target.
 */

#ifndef LPP_REUSE_SAMPLER_HPP
#define LPP_REUSE_SAMPLER_HPP

#include <cstdint>
#include <vector>

#include "reuse/stack.hpp"
#include "support/flat_map.hpp"
#include "trace/sink.hpp"
#include "trace/types.hpp"

namespace lpp::reuse {

/** Tuning knobs for VariableDistanceSampler. */
struct SamplerConfig
{
    /** Desired total number of access samples across all data samples. */
    uint64_t targetSamples = 20000;

    /**
     * Expected trace length in accesses (a hint; 0 means unknown). With a
     * hint, feedback projects the final sample count; without, it holds
     * the recent collection rate near target/checkInterval.
     */
    uint64_t expectedAccesses = 0;

    /** Initial reuse distance for promoting a location to data sample. */
    uint64_t initialQualification = 2048;

    /** Initial reuse distance for recording an access sample. */
    uint64_t initialTemporal = 1024;

    /** Initial minimum element gap between data samples (spatial). */
    uint64_t initialSpatial = 64;

    /** Accesses between feedback checks. */
    uint64_t checkInterval = 65536;

    /** Hard cap on the number of data samples. */
    uint64_t maxDataSamples = 4096;

    /**
     * Expected distinct-element count (the workload's address-space
     * size; 0 means unknown). Pre-sizes the internal reuse stack so
     * the hot path never rehashes or compacts during warm-up.
     */
    uint64_t addressSpaceElements = 0;

    /**
     * Feedback never lowers the thresholds below these floors. The
     * detector sets them to the workload-derived initial values so
     * count-driven feedback cannot push the thresholds into the range
     * of within-phase reuses.
     */
    uint64_t floorQualification = 16;
    uint64_t floorTemporal = 8;

    /** Feedback never raises the thresholds above these ceilings. */
    uint64_t ceilQualification = 1ULL << 40;
    uint64_t ceilTemporal = 1ULL << 40;
};

/** One recorded long-distance reuse of a data sample. */
struct AccessSample
{
    uint64_t time;     //!< logical time (access index) of the reuse
    uint64_t distance; //!< its reuse distance
};

/** A sampled data element and its recorded accesses. */
struct DataSample
{
    uint64_t element;                   //!< element index (addr/8)
    std::vector<AccessSample> accesses; //!< recorded reuses, in time order
};

/** One point of the merged (all-datum) sample trace. */
struct SamplePoint
{
    uint64_t time;     //!< logical time of the access
    uint64_t distance; //!< reuse distance
    uint32_t datum;    //!< index into samples()
};

/**
 * Streams a trace, monitors every access's reuse distance, and collects
 * per-datum access samples under feedback-controlled thresholds.
 */
class VariableDistanceSampler : public trace::TraceSink
{
  public:
    explicit VariableDistanceSampler(SamplerConfig cfg = {});

    /**
     * A sampler whose reuse distances are supplied externally through
     * observe() (the sharded oracle computes them); the internal stack
     * stays empty and its address-space reservation is skipped. Don't
     * stream accesses (onAccess) into a sampler built this way.
     */
    static VariableDistanceSampler externalDistances(SamplerConfig cfg);

    void onAccess(trace::Addr addr) override;
    void onAccessBatch(const trace::Addr *addrs, size_t n) override;

    /**
     * The decision half of onAccess: given one access's element, its
     * logical time (accesses before it) and its exact reuse distance
     * (ReuseStack::infinite when cold), apply the sampling decision
     * and threshold feedback. Calls must come in time order, one per
     * access. onAccess itself reduces to a stack query plus observe(),
     * so feeding externally computed (element, now, dist) triples
     * produces bit-identical samples, thresholds, and adjustments.
     */
    void observe(uint64_t element, uint64_t now, uint64_t dist);

    /** @return the per-datum samples, in promotion order. */
    const std::vector<DataSample> &samples() const { return data; }

    /** @return all access samples of all data, merged in time order. */
    std::vector<SamplePoint> mergedTrace() const;

    /** @return the total number of access samples collected. */
    uint64_t sampleCount() const { return collected; }

    /** @return how many threshold adjustments feedback made. */
    uint32_t adjustments() const { return adjustCount; }

    /** @return current qualification threshold. */
    uint64_t qualificationThreshold() const { return qualification; }

    /** @return current temporal threshold. */
    uint64_t temporalThreshold() const { return temporal; }

    /** @return current spatial threshold (in elements). */
    uint64_t spatialThreshold() const { return spatial; }

    /** @return logical time (accesses processed). */
    uint64_t accessCount() const { return accessesSeen; }

  private:
    struct ExternalTag
    {
    };
    VariableDistanceSampler(SamplerConfig cfg, ExternalTag);

    void feedback();
    bool spatiallyIsolated(uint64_t element) const;

    SamplerConfig config;
    ReuseStack stack;
    std::vector<DataSample> data;
    // Most accesses of a long run clear the distance thresholds and
    // then probe both of these, so both are flat: a robin-hood table
    // and a sorted vector (at most maxDataSamples entries each).
    support::FlatMap<uint32_t> datumIndex;
    std::vector<uint64_t> sampledElements; //!< sorted

    uint64_t qualification;
    uint64_t temporal;
    uint64_t spatial;

    uint64_t collected = 0;
    uint64_t collectedAtLastCheck = 0;
    uint64_t nextCheck;
    uint32_t adjustCount = 0;
    // Accesses observed; equals stack.accessCount() when the stack is
    // internal, and is the only clock in externalDistances mode.
    uint64_t accessesSeen = 0;
};

} // namespace lpp::reuse

#endif // LPP_REUSE_SAMPLER_HPP
