#include "core/static_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lpp::core {

namespace {

/** printf-style append to a report's failure list. */
template <typename... Args>
void
fail(StaticOracleReport &r, const char *fmt, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    r.failures.emplace_back(buf);
}

} // namespace

bool
histogramsIdentical(const LogHistogram &a, const LogHistogram &b)
{
    if (a.infiniteCount() != b.infiniteCount() ||
        a.totalFinite() != b.totalFinite())
        return false;
    size_t bins = std::max(a.binCount(), b.binCount());
    for (size_t i = 0; i < bins; ++i)
        if (a.binValue(i) != b.binValue(i))
            return false;
    return true;
}

double
histogramDivergence(const LogHistogram &a, const LogHistogram &b)
{
    auto diff = [](uint64_t x, uint64_t y) {
        return static_cast<double>(x > y ? x - y : y - x);
    };
    double l1 = diff(a.infiniteCount(), b.infiniteCount());
    size_t bins = std::max(a.binCount(), b.binCount());
    for (size_t i = 0; i < bins; ++i)
        l1 += diff(a.binValue(i), b.binValue(i));
    uint64_t scale = std::max<uint64_t>({a.total(), b.total(), 1});
    return l1 / static_cast<double>(scale);
}

StaticOracleReport
compareStaticOracle(const staticloc::StaticPrediction &prediction,
                    const MeasuredLocality &measured,
                    const std::vector<uint64_t> &detected_boundaries,
                    const StaticOracleConfig &config)
{
    StaticOracleReport r;
    r.applicable = true;
    r.checked = true;
    r.method = prediction.method;
    r.exact = prediction.exact;

    // Volume and footprint: always exact — a mismatch means the walker
    // and the generator disagree about the program itself.
    r.predictedAccesses = prediction.totalAccesses;
    r.measuredAccesses = measured.accesses;
    if (r.predictedAccesses != r.measuredAccesses)
        fail(r, "accesses: predicted %llu, measured %llu",
             static_cast<unsigned long long>(r.predictedAccesses),
             static_cast<unsigned long long>(r.measuredAccesses));
    r.predictedFootprint = prediction.distinctElements;
    r.measuredFootprint = measured.distinctElements;
    if (r.predictedFootprint != r.measuredFootprint)
        fail(r, "footprint: predicted %llu, measured %llu",
             static_cast<unsigned long long>(r.predictedFootprint),
             static_cast<unsigned long long>(r.measuredFootprint));

    // Reuse histogram and the miss curve it induces.
    r.histogramIdentical =
        histogramsIdentical(prediction.histogram, measured.histogram);
    r.histogramDivergence =
        histogramDivergence(prediction.histogram, measured.histogram);
    if (r.histogramDivergence > 0.0)
        fail(r, "histogram divergence %.6f > 0", r.histogramDivergence);

    size_t max_bin = std::max(prediction.histogram.binCount(),
                              measured.histogram.binCount());
    for (size_t b = 0; b <= max_bin; ++b) {
        uint64_t capacity = LogHistogram::binHigh(b);
        double err =
            std::fabs(prediction.histogram.missRate(capacity) -
                      measured.histogram.missRate(capacity));
        r.maxMissRateError = std::max(r.maxMissRateError, err);
    }
    if (r.maxMissRateError > 0.0)
        fail(r, "miss-rate error %.6f > 0", r.maxMissRateError);

    // Phase boundaries, ground-truth side: the predicted schedule's
    // entry clocks against the measured manual-marker clocks.
    r.predictedPhaseExecutions = prediction.schedule.size();
    r.measuredMarkers = measured.markerTimes.size();
    if (r.predictedPhaseExecutions != r.measuredMarkers) {
        fail(r, "phase executions: predicted %llu, measured %llu",
             static_cast<unsigned long long>(r.predictedPhaseExecutions),
             static_cast<unsigned long long>(r.measuredMarkers));
    } else {
        bool ids_ok = true;
        for (size_t i = 0; i < prediction.schedule.size(); ++i) {
            const staticloc::PhaseExecution &e = prediction.schedule[i];
            uint64_t t = measured.markerTimes[i];
            uint64_t err = e.startAccess > t ? e.startAccess - t
                                             : t - e.startAccess;
            r.markerMaxError = std::max(r.markerMaxError, err);
            ids_ok = ids_ok && e.marker == measured.markerIds[i];
        }
        if (!ids_ok)
            fail(r, "marker ids diverge from the predicted schedule");
        if (r.markerMaxError > config.markerTolerance)
            fail(r, "marker clock error %llu > %llu",
                 static_cast<unsigned long long>(r.markerMaxError),
                 static_cast<unsigned long long>(config.markerTolerance));
        r.markersIdentical = ids_ok && r.markerMaxError == 0;
    }

    // Phase boundaries, detector side: sampling makes detected times
    // sparse, so demand only that each one lands near a predicted
    // transition.
    std::vector<uint64_t> transitions = prediction.boundaryClocks();
    std::sort(transitions.begin(), transitions.end());
    r.detectedBoundaries = detected_boundaries.size();
    if (!transitions.empty() && !detected_boundaries.empty()) {
        uint64_t within = 0;
        for (uint64_t t : detected_boundaries) {
            auto it = std::lower_bound(transitions.begin(),
                                       transitions.end(), t);
            uint64_t err = ~0ULL;
            if (it != transitions.end())
                err = *it - t;
            if (it != transitions.begin())
                err = std::min(err, t - *(it - 1));
            r.detectedBoundaryMaxError =
                std::max(r.detectedBoundaryMaxError, err);
            within += err <= config.boundarySlack;
        }
        r.detectedBoundaryPrecision =
            static_cast<double>(within) /
            static_cast<double>(detected_boundaries.size());
        if (within != detected_boundaries.size())
            fail(r,
                 "%llu of %llu detected boundaries farther than %llu "
                 "accesses from any predicted transition",
                 static_cast<unsigned long long>(
                     detected_boundaries.size() - within),
                 static_cast<unsigned long long>(
                     detected_boundaries.size()),
                 static_cast<unsigned long long>(config.boundarySlack));
    }
    if (config.requireDetection && !transitions.empty() &&
        detected_boundaries.empty())
        fail(r, "detector found no boundaries; prediction has %llu "
                "transitions",
             static_cast<unsigned long long>(transitions.size()));

    r.ok = r.failures.empty();
    return r;
}

} // namespace lpp::core
