#include "phase/detector.hpp"

#include <algorithm>

#include "support/logging.hpp"
#include "trace/memory_trace.hpp"

namespace lpp::phase {

PhaseDetector::PhaseDetector(DetectorConfig cfg_) : cfg(cfg_)
{
}

bool
PhaseDetector::needsPrecount() const
{
    return cfg.sampler.expectedAccesses == 0;
}

reuse::SamplerConfig
PhaseDetector::samplingConfig(const PrecountStats *pre) const
{
    reuse::SamplerConfig scfg = cfg.sampler;
    if (pre == nullptr)
        return scfg;
    scfg.expectedAccesses = pre->accesses;
    if (scfg.addressSpaceElements == 0)
        scfg.addressSpaceElements = pre->distinctElements;
    if (pre->distinctElements > 0) {
        auto threshold = std::max<uint64_t>(
            16, static_cast<uint64_t>(
                    cfg.thresholdFraction *
                    static_cast<double>(pre->distinctElements)));
        scfg.initialQualification = threshold;
        scfg.initialTemporal = threshold;
        // Pin feedback: count control may only use the spatial
        // threshold; the distance thresholds define what a
        // cross-phase reuse is and must not drift.
        scfg.floorQualification = threshold;
        scfg.floorTemporal = threshold;
        scfg.ceilQualification = threshold;
        scfg.ceilTemporal = threshold;
    }
    return scfg;
}

PrecountStats
PhaseDetector::precountFromTrace(const trace::MemoryTrace &t)
{
    PrecountSink sink;
    t.replay(sink);
    return sink.stats();
}

std::vector<reuse::SamplePoint>
PhaseDetector::filterSamples(const std::vector<reuse::DataSample> &samples,
                             wavelet::FilterStats *stats) const
{
    wavelet::SubTraceFilter filter(cfg.filter);
    return filter.apply(samples, stats);
}

Partition
PhaseDetector::partitionFiltered(
    const std::vector<reuse::SamplePoint> &filtered) const
{
    OptimalPartitioner partitioner(cfg.partition);
    return partitioner.partition(filtered);
}

MarkerSelection
PhaseDetector::selectMarkers(const trace::BlockRecorder &blocks,
                             uint64_t detected_executions) const
{
    MarkerSelector selector(cfg.marker);
    return selector.select(blocks.events(), blocks.totalInstructions(),
                           detected_executions);
}

DetectionResult
PhaseDetector::finish(const reuse::VariableDistanceSampler &sampler,
                      const trace::BlockRecorder &blocks) const
{
    DetectionResult result;
    result.dataSamples = sampler.samples().size();
    result.accessSamples = sampler.sampleCount();
    result.samplerAdjustments = sampler.adjustments();
    result.trainAccesses = blocks.totalAccesses();
    result.trainInstructions = blocks.totalInstructions();

    // Wavelet filtering of each datum's sub-trace.
    auto filtered = filterSamples(sampler.samples(), &result.filterStats);

    // Optimal phase partitioning of the filtered trace.
    result.partitionResult = partitionFiltered(filtered);
    for (size_t b : result.partitionResult.boundaries)
        result.boundaryTimes.push_back(filtered[b].time);

    inform("detector: %zu data samples, %llu access samples, "
           "%zu filtered points, %zu boundaries",
           static_cast<size_t>(result.dataSamples),
           static_cast<unsigned long long>(result.accessSamples),
           filtered.size(), result.boundaryTimes.size());

    // Marker selection against the block trace, driven by the detected
    // phase-execution count.
    result.selection =
        selectMarkers(blocks, result.partitionResult.phaseCount());
    return result;
}

DetectionResult
PhaseDetector::analyze(const Runner &run) const
{
    // Stage 0: learn the trace length (and working-set size, for the
    // automatic thresholds) so sampling feedback can project its final
    // sample count.
    PrecountStats pre;
    bool have_pre = needsPrecount();
    if (have_pre) {
        PrecountSink sink;
        run(sink);
        pre = sink.stats();
    }

    // Stage 1: variable-distance sampling + block trace, in one pass.
    reuse::VariableDistanceSampler sampler(
        samplingConfig(have_pre ? &pre : nullptr));
    trace::BlockRecorder blocks;
    trace::FanoutSink fan;
    fan.attach(&sampler);
    fan.attach(&blocks);
    run(fan);

    // Stages 2-4: filtering, partitioning, marker selection.
    return finish(sampler, blocks);
}

} // namespace lpp::phase
