/**
 * @file
 * Wavelet filtering of per-datum sub-traces (paper Section 2.2.2).
 *
 * Each sampled data element's sequence of reuse distances is treated as a
 * signal. The level-1 wavelet coefficient of each access measures how
 * abruptly the datum's reuse behaviour changes there; accesses whose
 * coefficient magnitude exceeds mean + 3 sigma are kept as candidate
 * phase-change indicators, everything else (gradual change, local peaks)
 * is discarded. Filtering each datum separately is essential: a gradual
 * change in one datum's sub-trace can look abrupt in the merged trace and
 * would cause false positives (paper Fig. 3b discussion).
 */

#ifndef LPP_WAVELET_FILTERING_HPP
#define LPP_WAVELET_FILTERING_HPP

#include <cstdint>
#include <vector>

#include "reuse/sampler.hpp"
#include "wavelet/dwt.hpp"

namespace lpp::wavelet {

/** Configuration of the sub-trace filter. */
struct FilterConfig
{
    /** Wavelet family (the paper uses Daubechies-6). */
    Family family = Family::Daubechies6;

    /**
     * Data samples with fewer recorded accesses than this are dropped as
     * noise (too few points to carry a pattern).
     */
    size_t minAccesses = 4;
};

/** Filtering statistics for reporting and tests. */
struct FilterStats
{
    size_t dataSamples = 0;    //!< data samples examined
    size_t dropped = 0;        //!< data samples dropped as noise
    uint64_t accessesIn = 0;   //!< access samples examined
    uint64_t accessesKept = 0; //!< access samples surviving the filter
};

/**
 * Applies wavelet filtering to every datum's sub-trace and recompiles the
 * survivors into a single time-ordered filtered trace.
 */
class SubTraceFilter
{
  public:
    explicit SubTraceFilter(FilterConfig cfg = {});

    /**
     * Filter one datum's sub-trace.
     * @param distances the datum's reuse-distance signal
     * @return indices into `distances` that survive; empty when the
     *         signal is too short or has no significant coefficient
     */
    std::vector<size_t>
    filterSignal(const std::vector<double> &distances) const;

    /**
     * Filter all data samples and merge survivors by logical time.
     * @param samples per-datum access samples from the sampler
     * @param stats optional out-param for filtering statistics
     */
    std::vector<reuse::SamplePoint>
    apply(const std::vector<reuse::DataSample> &samples,
          FilterStats *stats = nullptr) const;

    /** @return the configuration in use. */
    const FilterConfig &config() const { return cfg; }

  private:
    FilterConfig cfg;
    Dwt dwt;
};

} // namespace lpp::wavelet

#endif // LPP_WAVELET_FILTERING_HPP
