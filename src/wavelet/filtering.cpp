#include "wavelet/filtering.hpp"

#include <algorithm>
#include <cmath>

#include "support/stats.hpp"

namespace lpp::wavelet {

SubTraceFilter::SubTraceFilter(FilterConfig cfg_)
    : cfg(cfg_), dwt(cfg_.family)
{
}

std::vector<size_t>
SubTraceFilter::filterSignal(const std::vector<double> &distances) const
{
    std::vector<size_t> kept;
    if (distances.size() < cfg.minAccesses)
        return kept;

    std::vector<double> detail = dwt.stationaryDetail(distances);

    RunningStats stats;
    for (double d : detail)
        stats.push(std::abs(d));
    // Keep accesses with |w| > mean + 3 * stddev.
    double threshold = stats.mean() + 3.0 * stats.stddev();
    if (threshold <= 0.0)
        return kept; // constant signal: nothing abrupt anywhere

    for (size_t i = 0; i < detail.size(); ++i) {
        if (std::abs(detail[i]) > threshold)
            kept.push_back(i);
    }
    return kept;
}

std::vector<reuse::SamplePoint>
SubTraceFilter::apply(const std::vector<reuse::DataSample> &samples,
                      FilterStats *stats) const
{
    FilterStats local;
    std::vector<reuse::SamplePoint> merged;

    for (uint32_t di = 0; di < samples.size(); ++di) {
        const auto &datum = samples[di];
        ++local.dataSamples;
        local.accessesIn += datum.accesses.size();
        if (datum.accesses.size() < cfg.minAccesses) {
            ++local.dropped;
            continue;
        }

        std::vector<double> signal;
        signal.reserve(datum.accesses.size());
        for (const auto &a : datum.accesses)
            signal.push_back(static_cast<double>(a.distance));

        for (size_t idx : filterSignal(signal)) {
            const auto &a = datum.accesses[idx];
            merged.push_back(
                reuse::SamplePoint{a.time, a.distance, di});
            ++local.accessesKept;
        }
    }

    std::sort(merged.begin(), merged.end(),
              [](const reuse::SamplePoint &a,
                 const reuse::SamplePoint &b) {
                  return a.time < b.time;
              });

    if (stats)
        *stats = local;
    return merged;
}

} // namespace lpp::wavelet
