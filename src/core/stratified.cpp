#include "core/stratified.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "bbv/bbv.hpp"
#include "support/logging.hpp"
#include "support/parallel_for.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"

namespace lpp::core {

namespace {

/** Two-sided confidence level of every reported interval. */
constexpr double ciConfidence = 0.95;

/**
 * Strata whose mean execution size reaches this many accesses relax
 * the samplesPerStratum floor to a single balanced draw (variance then
 * comes from the pooled residual model). Replay cost is proportional
 * to execution size while the within-stratum miss/access ratios of
 * such long executions are tight, so the second draw buys little
 * accuracy at a large cost there; spend it on the cheap
 * many-execution strata instead.
 */
constexpr uint64_t singleDrawMeanAccesses = 1ULL << 16;

/**
 * Standard normal quantile (Acklam's rational approximation, |error| <
 * 1.15e-9 over (0, 1)) — the z in the Cornish-Fisher t expansion and
 * the infinite-dof limit.
 */
double
normalQuantile(double p)
{
    LPP_REQUIRE(p > 0.0 && p < 1.0, "quantile probability %f out of (0,1)",
                p);
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
    constexpr double plow = 0.02425;
    double q, r;
    if (p < plow) {
        q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
                c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p > 1.0 - plow) {
        q = std::sqrt(-2.0 * std::log(1.0 - p));
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
                 c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
            1.0);
}

/** Two-sided t quantile at upper-tail probability `p` and dof `nu`,
 *  exact for nu 1 and 2, Cornish-Fisher beyond. */
double
tQuantileAt(double p, double nu)
{
    if (nu <= 1.0)
        return std::tan(M_PI * (p - 0.5)); // Cauchy, exact
    if (nu == 2.0) {
        double x = 2.0 * p - 1.0;
        return x * std::sqrt(2.0 / (1.0 - x * x)); // exact
    }
    // Cornish-Fisher expansion of the t quantile around the normal
    // one; relative error < 0.2% at nu = 3 and shrinking with nu.
    double z = normalQuantile(p);
    double z2 = z * z, z3 = z2 * z, z5 = z3 * z2, z7 = z5 * z2,
           z9 = z7 * z2;
    double g1 = (z3 + z) / 4.0;
    double g2 = (5.0 * z5 + 16.0 * z3 + 3.0 * z) / 96.0;
    double g3 = (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / 384.0;
    double g4 = (79.0 * z9 + 776.0 * z7 + 1482.0 * z5 - 1920.0 * z3 -
                 945.0 * z) /
                92160.0;
    return z + g1 / nu + g2 / (nu * nu) + g3 / (nu * nu * nu) +
           g4 / (nu * nu * nu * nu);
}

} // namespace

double
studentTQuantile(double confidence, double dof)
{
    LPP_REQUIRE(confidence > 0.0 && confidence < 1.0,
                "confidence %f out of (0,1)", confidence);
    double p = 0.5 + confidence / 2.0;
    if (!std::isfinite(dof))
        return normalQuantile(p);
    LPP_REQUIRE(dof >= 1.0, "t quantile needs dof >= 1, got %f", dof);
    if (dof >= 3.0 || dof == 1.0 || dof == 2.0)
        return tQuantileAt(p, dof);
    // Fractional dof below 3 (Welch–Satterthwaite): interpolate in
    // 1/nu between the bracketing formulas — t is close to linear in
    // 1/nu, and both endpoints are exact or near-exact.
    double lo = std::floor(dof), hi = lo + 1.0;
    double tlo = tQuantileAt(p, lo), thi = tQuantileAt(p, hi);
    double w = (1.0 / lo - 1.0 / dof) / (1.0 / lo - 1.0 / hi);
    return tlo + w * (thi - tlo);
}

std::vector<uint64_t>
sampleWithoutReplacement(uint64_t seed, uint64_t population, uint64_t k)
{
    if (k > population)
        k = population;
    std::vector<uint64_t> idx(population);
    std::iota(idx.begin(), idx.end(), 0);
    Rng rng(seed);
    for (uint64_t i = 0; i < k; ++i) {
        uint64_t j = i + rng.below(population - i);
        std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    std::sort(idx.begin(), idx.end());
    return idx;
}

std::vector<uint64_t>
selectBalancedOnSize(const std::vector<double> &sizes, uint64_t k)
{
    const uint64_t n = sizes.size();
    if (k > n)
        k = n;
    double mean = 0.0;
    for (double x : sizes)
        mean += x;
    if (n > 0)
        mean /= static_cast<double>(n);
    std::vector<uint64_t> pos(n);
    std::iota(pos.begin(), pos.end(), 0);
    std::stable_sort(pos.begin(), pos.end(),
                     [&](uint64_t a, uint64_t b) {
                         double da = std::abs(sizes[a] - mean);
                         double db = std::abs(sizes[b] - mean);
                         if (da != db)
                             return da < db;
                         if (sizes[a] != sizes[b])
                             return sizes[a] < sizes[b];
                         return a < b;
                     });
    pos.resize(k);
    std::sort(pos.begin(), pos.end());
    return pos;
}

void
StratifiedAccumulator::addExact(double total)
{
    sum += total;
}

void
StratifiedAccumulator::addSampled(uint64_t population,
                                  const std::vector<double> &sample)
{
    const size_t k = sample.size();
    LPP_REQUIRE(k >= 2, "a subsampled stratum needs >= 2 draws, got %zu",
                k);
    LPP_REQUIRE(k < population,
                "sample %zu must be smaller than the population %llu "
                "(use addExact for exhaustive strata)",
                k, static_cast<unsigned long long>(population));
    const double n = static_cast<double>(population);
    const double kd = static_cast<double>(k);
    double mean = 0.0;
    for (double x : sample)
        mean += x;
    mean /= kd;
    double s2 = 0.0;
    for (double x : sample)
        s2 += (x - mean) * (x - mean);
    s2 /= (kd - 1.0); // sample variance
    sum += n * mean;
    // Finite-population-corrected variance of the stratum total.
    double var = n * n * (1.0 - kd / n) * s2 / kd;
    varSum += var;
    dofDenom += var * var / (kd - 1.0);
}

void
StratifiedAccumulator::addRatio(
    uint64_t population, double covariateTotal,
    const std::vector<std::pair<double, double>> &sample)
{
    const size_t k = sample.size();
    LPP_REQUIRE(k >= 2, "a subsampled stratum needs >= 2 draws, got %zu",
                k);
    LPP_REQUIRE(k < population,
                "sample %zu must be smaller than the population %llu "
                "(use addExact for exhaustive strata)",
                k, static_cast<unsigned long long>(population));
    LPP_REQUIRE(covariateTotal > 0.0,
                "ratio estimation needs a positive covariate total");
    double sy = 0.0, sx = 0.0;
    for (const auto &p : sample) {
        sy += p.first;
        sx += p.second;
    }
    LPP_REQUIRE(sx > 0.0,
                "ratio estimation needs a positive sampled covariate "
                "sum (fall back to addSampled)");
    const double n = static_cast<double>(population);
    const double kd = static_cast<double>(k);
    const double r = sy / sx;
    sum += covariateTotal * r;
    // Residual sample variance about the fitted ratio.
    double s2 = 0.0;
    for (const auto &p : sample) {
        double e = p.first - r * p.second;
        s2 += e * e;
    }
    s2 /= (kd - 1.0);
    double var = n * n * (1.0 - kd / n) * s2 / kd;
    varSum += var;
    dofDenom += var * var / (kd - 1.0);
}

void
StratifiedAccumulator::addEstimate(double total, double var, double varDof)
{
    LPP_REQUIRE(var >= 0.0, "negative variance %f", var);
    LPP_REQUIRE(varDof >= 1.0, "variance dof must be >= 1, got %f",
                varDof);
    sum += total;
    varSum += var;
    dofDenom += var * var / varDof;
}

double
StratifiedAccumulator::dof() const
{
    if (varSum <= 0.0 || dofDenom <= 0.0)
        return std::numeric_limits<double>::infinity();
    return varSum * varSum / dofDenom; // Welch–Satterthwaite
}

double
StratifiedAccumulator::halfWidth(double confidence) const
{
    if (varSum <= 0.0)
        return 0.0;
    double nu = std::max(1.0, dof());
    return studentTQuantile(confidence, nu) * std::sqrt(varSum);
}

// Per-range measurement ---------------------------------------------

void
RangeLocalitySink::onBlock(trace::BlockId block, uint32_t instructions)
{
    weights[block] += instructions;
}

void
RangeLocalitySink::onAccess(trace::Addr addr)
{
    reuse.onAccess(addr);
    sim.onAccess(addr);
}

void
RangeLocalitySink::onAccessBatch(const trace::Addr *addrs, size_t n)
{
    reuse.onAccessBatch(addrs, n);
    sim.onAccessBatch(addrs, n);
}

RangeLocality
RangeLocalitySink::take()
{
    RangeLocality out;
    out.accesses = reuse.accessCount();
    out.distinctElements = reuse.distinctElements();
    out.histogram = reuse.histogram();
    out.cache = sim.total();
    out.blockWeights.assign(weights.begin(), weights.end());
    std::sort(out.blockWeights.begin(), out.blockWeights.end());
    weights.clear();
    return out;
}

std::vector<Stratum>
stratify(const Replay &replay)
{
    std::map<trace::PhaseId, std::vector<size_t>> groups;
    for (size_t i = 0; i < replay.executions.size(); ++i)
        groups[replay.executions[i].phase].push_back(i);
    std::vector<Stratum> out;
    out.reserve(groups.size());
    for (auto &kv : groups) {
        Stratum st;
        st.phase = kv.first;
        st.executions = std::move(kv.second);
        out.push_back(std::move(st));
    }
    return out;
}

namespace {

/** log2 size class of one access count (0 stays 0). */
uint32_t
sizeClassOf(uint64_t accesses)
{
    uint32_t c = 0;
    while (accesses >>= 1)
        ++c;
    return c;
}

} // namespace

std::vector<Stratum>
planStrata(const Replay &replay, const StratifiedSamplingConfig &config)
{
    std::vector<Stratum> base = stratify(replay);
    std::vector<Stratum> out;
    if (!replay.executions.empty()) {
        Stratum c;
        c.phase = replay.executions.front().phase;
        c.certainty = true;
        c.executions = {0};
        out.push_back(std::move(c));
        for (Stratum &st : base)
            std::erase(st.executions, size_t{0});
    }
    for (Stratum &st : base) {
        if (st.executions.empty())
            continue;
        if (config.sizeStratifyMin == 0 ||
            st.executions.size() < config.sizeStratifyMin) {
            out.push_back(std::move(st));
            continue;
        }
        std::map<uint32_t, Stratum> classes;
        for (size_t e : st.executions) {
            uint32_t c = sizeClassOf(replay.executions[e].accesses);
            Stratum &sub = classes[c];
            sub.phase = st.phase;
            sub.sizeClass = c;
            sub.executions.push_back(e);
        }
        for (auto &kv : classes)
            out.push_back(std::move(kv.second));
    }
    return out;
}

// Reports -----------------------------------------------------------

double
StratifiedEstimate::missRate(uint32_t ways) const
{
    LPP_REQUIRE(ways >= 1 && ways <= cache::simWays,
                "associativity %u out of range", ways);
    return totalAccesses == 0 ? 0.0
                              : missTotal[ways - 1] /
                                    static_cast<double>(totalAccesses);
}

double
StratifiedEstimate::missRateHalfWidth(uint32_t ways) const
{
    LPP_REQUIRE(ways >= 1 && ways <= cache::simWays,
                "associativity %u out of range", ways);
    return totalAccesses == 0 ? 0.0
                              : missHalfWidth[ways - 1] /
                                    static_cast<double>(totalAccesses);
}

double
StratifiedEvalReport::speedup() const
{
    return verified && sampledMs > 0.0 ? exactMs / sampledMs : 0.0;
}

double
StratifiedEvalReport::sampledFraction() const
{
    return estimate.totalAccesses == 0
               ? 0.0
               : static_cast<double>(estimate.measuredAccesses) /
                     static_cast<double>(estimate.totalAccesses);
}

StratifiedComparison
compareToExact(const StratifiedEstimate &sampled,
               const StratifiedEstimate &exact,
               const StratifiedSamplingConfig &config)
{
    LPP_REQUIRE(sampled.totalAccesses == exact.totalAccesses,
                "comparing estimates of different runs: %llu vs %llu "
                "accesses",
                static_cast<unsigned long long>(sampled.totalAccesses),
                static_cast<unsigned long long>(exact.totalAccesses));
    StratifiedComparison c;
    c.checked = true;
    for (uint32_t w = 1; w <= cache::simWays; ++w) {
        double rs = sampled.missRate(w);
        double re = exact.missRate(w);
        double abs = std::abs(rs - re);
        c.maxAbsMissRateError = std::max(c.maxAbsMissRateError, abs);
        double rel;
        if (re > 0.0)
            rel = abs / re;
        else
            rel = rs > 0.0 ? std::numeric_limits<double>::infinity()
                           : 0.0;
        c.maxRelMissRateError = std::max(c.maxRelMissRateError, rel);
        if (abs <= sampled.missRateHalfWidth(w))
            ++c.ciCoveredWays;
    }

    // Relative L1 over the extrapolated log2 bins plus the cold bin.
    double l1 = 0.0, totS = sampled.histogramInfinite,
           totE = exact.histogramInfinite;
    size_t bins = std::max(sampled.histogramBins.size(),
                           exact.histogramBins.size());
    for (size_t b = 0; b < bins; ++b) {
        double s = b < sampled.histogramBins.size()
                       ? sampled.histogramBins[b]
                       : 0.0;
        double e =
            b < exact.histogramBins.size() ? exact.histogramBins[b] : 0.0;
        l1 += std::abs(s - e);
        totS += s;
        totE += e;
    }
    l1 += std::abs(sampled.histogramInfinite - exact.histogramInfinite);
    c.histogramDivergence = l1 / std::max({totS, totE, 1.0});

    c.footprintRelError =
        std::abs(sampled.footprintSum - exact.footprintSum) /
        std::max(exact.footprintSum, 1.0);
    if (!sampled.bbv.empty() && sampled.bbv.size() == exact.bbv.size())
        c.bbvDistance = bbv::manhattan(sampled.bbv, exact.bbv);

    c.ok = c.maxRelMissRateError <= config.errorBound;
    if (!c.ok)
        c.failures.push_back(
            "max relative miss-rate error " +
            std::to_string(c.maxRelMissRateError) + " exceeds bound " +
            std::to_string(config.errorBound));
    return c;
}

// Evaluator ---------------------------------------------------------

namespace {

/** BBV geometry of the aggregate vector (BbvCollector defaults). */
constexpr size_t aggregateBbvDims = 32;
constexpr uint64_t aggregateBbvSeed = 12345;

/** Deterministic per-stratum selection seed. */
uint64_t
stratumSeed(uint64_t seed, trace::PhaseId phase, uint32_t size_class)
{
    SplitMix64 sm(seed ^ (static_cast<uint64_t>(phase) *
                              0x9e3779b97f4a7c15ULL +
                          0x632be59bd9b4e019ULL));
    SplitMix64 sub(sm.next() + size_class);
    return sub.next();
}

/**
 * Measure the planned ranges (waves of per-worker cursors, like the
 * sharded sweeps) and aggregate them into an extrapolated estimate.
 * picks[h] lists the positions within strata[h].executions to measure;
 * a full pick list means the stratum is exact (scale 1, no variance).
 * The reduction is strictly in (prologue, stratum, execution) order,
 * so the result is bit-identical at every thread count.
 */
StratifiedEstimate
measureAndAggregate(
    const trace::MemoryTrace &trace, const Replay &replay,
    const std::vector<trace::StreamingTrace::ChunkRange> &ranges,
    const std::vector<Stratum> &strata,
    const std::vector<std::vector<uint64_t>> &picks, double confidence,
    support::ThreadPool &pool, std::vector<StratumReport> *strata_out)
{
    StratifiedEstimate est;
    est.totalAccesses = trace.accessCount();
    est.totalExecutions = replay.executions.size();

    // Ranges to replay, ascending for cursor locality: range 0 is the
    // prologue, range i+1 is execution i.
    std::vector<size_t> jobs;
    const bool prologue = ranges[0].eventCount > 0;
    if (prologue)
        jobs.push_back(0);
    for (size_t h = 0; h < strata.size(); ++h)
        for (uint64_t pos : picks[h])
            jobs.push_back(1 + strata[h].executions[pos]);
    std::sort(jobs.begin(), jobs.end());

    std::vector<RangeLocality> results(jobs.size());
    const size_t waveSize = pool.threadCount() + 1;
    std::vector<trace::TraceCursor> cursors;
    cursors.reserve(waveSize);
    for (size_t i = 0; i < waveSize; ++i)
        cursors.emplace_back(trace);
    for (size_t begin = 0; begin < jobs.size(); begin += waveSize) {
        size_t count = std::min(waveSize, jobs.size() - begin);
        support::parallelFor(pool, count, [&](size_t i) {
            RangeLocalitySink sink;
            cursors[i].replayRange(sink, ranges[jobs[begin + i]]);
            results[begin + i] = sink.take();
        });
    }

    auto resultOf = [&](size_t range_idx) -> const RangeLocality & {
        auto it = std::lower_bound(jobs.begin(), jobs.end(), range_idx);
        LPP_DCHECK(it != jobs.end() && *it == range_idx,
                   "range %zu was not measured", range_idx);
        return results[static_cast<size_t>(it - jobs.begin())];
    };

    // Fixed-order reduction: per-way accumulators carry the CI math,
    // histogram/footprint/BBV are extrapolated point estimates.
    std::array<StratifiedAccumulator, cache::simWays> acc;
    std::vector<double> bins;
    double infinite = 0.0, footprint = 0.0;
    std::map<trace::BlockId, double> blocks;
    auto addScaled = [&](const RangeLocality &r, double scale) {
        if (r.histogram.binCount() > bins.size())
            bins.resize(r.histogram.binCount(), 0.0);
        for (size_t b = 0; b < r.histogram.binCount(); ++b)
            bins[b] += scale *
                       static_cast<double>(r.histogram.binValue(b));
        infinite +=
            scale * static_cast<double>(r.histogram.infiniteCount());
        footprint +=
            scale * static_cast<double>(r.distinctElements);
        for (const auto &kv : r.blockWeights)
            blocks[kv.first] += scale * static_cast<double>(kv.second);
        ++est.measuredRanges;
        est.measuredAccesses += r.accesses;
    };

    if (prologue) {
        const RangeLocality &r = resultOf(0);
        for (uint32_t w = 0; w < cache::simWays; ++w)
            acc[w].addExact(static_cast<double>(r.cache.misses[w]));
        addScaled(r, 1.0);
    }

    // Pass 1: gather each stratum's measured units and fit the pooled
    // residual model Var(e) = φ_w·x from every stratum that measured
    // at least two units — single-draw strata borrow φ̂_w below.
    struct StratumData
    {
        double A = 0.0;  //!< exact stratum access total (records)
        double sx = 0.0; //!< measured access sum
        std::vector<const RangeLocality *> rs;
        uint64_t sampledAccesses = 0;
    };
    std::vector<StratumData> data(strata.size());
    std::array<double, cache::simWays> phiNum{};
    double phiDof = 0.0;
    for (size_t h = 0; h < strata.size(); ++h) {
        const Stratum &st = strata[h];
        StratumData &d = data[h];
        for (size_t e : st.executions)
            d.A += static_cast<double>(replay.executions[e].accesses);
        d.rs.reserve(picks[h].size());
        for (uint64_t pos : picks[h]) {
            d.rs.push_back(&resultOf(1 + st.executions[pos]));
            d.sx += static_cast<double>(d.rs.back()->accesses);
            d.sampledAccesses += d.rs.back()->accesses;
        }
        if (d.rs.size() >= 2 && d.sx > 0.0) {
            for (uint32_t w = 0; w < cache::simWays; ++w) {
                double sy = 0.0;
                for (const RangeLocality *r : d.rs)
                    sy += static_cast<double>(r->cache.misses[w]);
                double rate = sy / d.sx;
                for (const RangeLocality *r : d.rs) {
                    double x = static_cast<double>(r->accesses);
                    if (x <= 0.0)
                        continue;
                    double e =
                        static_cast<double>(r->cache.misses[w]) -
                        rate * x;
                    phiNum[w] += e * e / x;
                }
            }
            phiDof += static_cast<double>(d.rs.size() - 1);
        }
    }

    // Pass 2: fixed-order accumulation.
    for (size_t h = 0; h < strata.size(); ++h) {
        const Stratum &st = strata[h];
        const std::vector<uint64_t> &pk = picks[h];
        const StratumData &d = data[h];
        const uint64_t n = st.executions.size();
        const bool exact = pk.size() == n;
        if (exact) {
            std::array<double, cache::simWays> sums{};
            for (const RangeLocality *r : d.rs) {
                for (uint32_t w = 0; w < cache::simWays; ++w)
                    sums[w] += static_cast<double>(r->cache.misses[w]);
                addScaled(*r, 1.0);
            }
            for (uint32_t w = 0; w < cache::simWays; ++w)
                acc[w].addExact(sums[w]);
        } else if (pk.size() == 1) {
            // Single draw: ratio point estimate, variance borrowed
            // from the pooled residual model. The selection logic
            // guarantees pooled dof exists whenever a single-draw
            // stratum does.
            LPP_REQUIRE(phiDof > 0.0,
                        "single-draw stratum without pooled residual "
                        "dof — selection should have bumped a stratum "
                        "to two draws");
            const RangeLocality &r = *d.rs[0];
            const double x = static_cast<double>(r.accesses);
            const bool ratio = d.A > 0.0 && x > 0.0;
            const double nd = static_cast<double>(n);
            addScaled(r, ratio ? d.A / x : nd);
            const double fpc = 1.0 - 1.0 / nd;
            for (uint32_t w = 0; w < cache::simWays; ++w) {
                double y = static_cast<double>(r.cache.misses[w]);
                double phi = phiNum[w] / phiDof;
                double t, var;
                if (ratio) {
                    t = d.A * y / x;
                    var = fpc * d.A * d.A * phi / x;
                } else {
                    t = nd * y;
                    // x̄ = A/N as the model's size for zero-access
                    // draws (A == 0 makes this vanish entirely).
                    var = fpc * nd * nd * phi * (d.A / nd);
                }
                acc[w].addEstimate(t, var, std::max(phiDof, 1.0));
            }
        } else {
            // Ratio estimation whenever the covariate is usable;
            // plain mean expansion when the stratum (or the sample)
            // carries no accesses at all.
            const bool ratio = d.A > 0.0 && d.sx > 0.0;
            const double scale =
                ratio ? d.A / d.sx
                      : static_cast<double>(n) /
                            static_cast<double>(pk.size());
            for (const RangeLocality *r : d.rs)
                addScaled(*r, scale);
            if (ratio) {
                std::vector<std::pair<double, double>> pairs(
                    d.rs.size());
                for (uint32_t w = 0; w < cache::simWays; ++w) {
                    for (size_t i = 0; i < d.rs.size(); ++i)
                        pairs[i] = {static_cast<double>(
                                        d.rs[i]->cache.misses[w]),
                                    static_cast<double>(
                                        d.rs[i]->accesses)};
                    acc[w].addRatio(n, d.A, pairs);
                }
            } else {
                std::vector<double> samples(d.rs.size());
                for (uint32_t w = 0; w < cache::simWays; ++w) {
                    for (size_t i = 0; i < d.rs.size(); ++i)
                        samples[i] = static_cast<double>(
                            d.rs[i]->cache.misses[w]);
                    acc[w].addSampled(n, samples);
                }
            }
        }
        if (strata_out) {
            StratumReport sr;
            sr.phase = st.phase;
            sr.sizeClass = st.sizeClass;
            sr.certainty = st.certainty;
            sr.executions = n;
            sr.sampled = pk.size();
            sr.exact = exact;
            for (size_t e : st.executions)
                sr.accesses += replay.executions[e].accesses;
            sr.sampledAccesses = d.sampledAccesses;
            strata_out->push_back(sr);
        }
    }

    for (uint32_t w = 0; w < cache::simWays; ++w) {
        est.missTotal[w] = acc[w].total();
        est.missHalfWidth[w] = acc[w].halfWidth(confidence);
    }
    est.histogramBins = std::move(bins);
    est.histogramInfinite = infinite;
    est.footprintSum = footprint;

    // Aggregate BBV: extrapolated block weights, projected and
    // L1-normalized exactly like BbvCollector does per interval.
    if (!blocks.empty()) {
        double total = 0.0;
        for (const auto &kv : blocks)
            total += kv.second;
        if (total > 0.0) {
            std::vector<double> v(aggregateBbvDims, 0.0);
            for (const auto &kv : blocks) {
                double share = kv.second / total;
                for (size_t d = 0; d < aggregateBbvDims; ++d)
                    v[d] += share * bbv::projectionCoefficient(
                                        kv.first, d, aggregateBbvSeed);
            }
            double norm = 0.0;
            for (double x : v)
                norm += x;
            if (norm > 0.0)
                for (double &x : v)
                    x /= norm;
            est.bbv = std::move(v);
        }
    }
    return est;
}

} // namespace

StratifiedEvaluator::StratifiedEvaluator(
    const StratifiedSamplingConfig &config, support::ThreadPool *pool_)
    : cfg(config), pool(pool_)
{
}

StratifiedEvalReport
StratifiedEvaluator::evaluate(const trace::MemoryTrace &trace,
                              const Replay &replay) const
{
    using clock = std::chrono::steady_clock;
    support::ThreadPool &tp =
        pool ? *pool : support::ThreadPool::shared();

    StratifiedEvalReport rep;
    rep.ran = true;
    LPP_REQUIRE(replay.totalAccesses == trace.accessCount(),
                "stratified evaluation needs the instrumented replay "
                "of this exact recording: %llu vs %llu accesses",
                static_cast<unsigned long long>(replay.totalAccesses),
                static_cast<unsigned long long>(trace.accessCount()));
    if (trace.empty()) {
        if (cfg.verifyAgainstExact) {
            rep.verified = true;
            rep.exact = rep.estimate;
            rep.comparison = compareToExact(rep.estimate, rep.exact, cfg);
        }
        return rep;
    }

    std::vector<Stratum> strata = planStrata(replay, cfg);
    std::vector<uint64_t> cuts;
    cuts.reserve(replay.executions.size());
    for (const ExecutionRecord &e : replay.executions)
        cuts.push_back(e.startAccess);
    rep.prologueAccesses = replay.executions.empty()
                               ? replay.totalAccesses
                               : replay.executions.front().startAccess;

    // Selection: deterministic per-stratum draws, k_h = max(floor,
    // ceil(fraction·N_h)); tiny strata (and any stratum k would
    // exhaust) fall back to exact measurement.
    const uint64_t kmin = std::max<uint64_t>(cfg.samplesPerStratum, 1);
    std::vector<std::vector<uint64_t>> picks(strata.size());
    std::vector<std::vector<uint64_t>> full(strata.size());
    auto selectK = [&](size_t h, uint64_t k) {
        const Stratum &st = strata[h];
        const uint64_t n = st.executions.size();
        if (cfg.selection == StratifiedSelection::BalancedOnSize) {
            std::vector<double> xs(n);
            for (uint64_t i = 0; i < n; ++i)
                xs[i] = static_cast<double>(
                    replay.executions[st.executions[i]].accesses);
            return selectBalancedOnSize(xs, k);
        }
        return sampleWithoutReplacement(
            stratumSeed(cfg.seed, st.phase, st.sizeClass), n, k);
    };
    for (size_t h = 0; h < strata.size(); ++h) {
        const uint64_t n = strata[h].executions.size();
        full[h].resize(n);
        std::iota(full[h].begin(), full[h].end(), 0);
        uint64_t accesses = 0;
        for (size_t e : strata[h].executions)
            accesses += replay.executions[e].accesses;
        const uint64_t floor_h =
            accesses / n >= singleDrawMeanAccesses ? 1 : kmin;
        const uint64_t k = std::max(
            floor_h, static_cast<uint64_t>(std::ceil(
                         cfg.sampleFraction * static_cast<double>(n))));
        if (n < 2 || k >= n) {
            picks[h] = full[h];
        } else {
            picks[h] = selectK(h, k);
            rep.sampled = true;
        }
    }
    // Bump rule: the pooled residual model needs at least one stratum
    // with two measured units. If every sampled stratum took a single
    // draw and no exhaustive stratum has >= 2 executions, widen the
    // largest sampled stratum to two draws rather than fabricate a
    // variance out of nothing.
    {
        bool needPhi = false, havePhi = false;
        for (size_t h = 0; h < strata.size(); ++h) {
            const bool exhaustive =
                picks[h].size() == strata[h].executions.size();
            if (!exhaustive && picks[h].size() == 1)
                needPhi = true;
            if (picks[h].size() >= 2)
                havePhi = true;
        }
        if (needPhi && !havePhi) {
            size_t best = strata.size();
            for (size_t h = 0; h < strata.size(); ++h) {
                if (picks[h].size() != 1 ||
                    picks[h].size() == strata[h].executions.size())
                    continue;
                if (best == strata.size() ||
                    strata[h].executions.size() >
                        strata[best].executions.size())
                    best = h;
            }
            LPP_REQUIRE(best < strata.size(),
                        "bump rule found no single-draw stratum");
            const uint64_t n = strata[best].executions.size();
            picks[best] = n <= 2 ? full[best] : selectK(best, 2);
        }
    }

    auto timedRun = [&](const trace::MemoryTrace &tr,
                        const std::vector<std::vector<uint64_t>> &p,
                        std::vector<StratumReport> *sout, double &ms) {
        auto t0 = clock::now();
        std::vector<trace::StreamingTrace::ChunkRange> ranges =
            tr.sliceAt(cuts);
        LPP_REQUIRE(ranges.size() == replay.executions.size() + 1,
                    "slice count %zu does not match %zu executions",
                    ranges.size(), replay.executions.size());
        for (size_t i = 0; i < replay.executions.size(); ++i)
            LPP_REQUIRE(
                ranges[i + 1].accessCount ==
                    replay.executions[i].accesses,
                "phase boundary %zu does not land on an event "
                "boundary: range has %llu accesses, execution %llu",
                i,
                static_cast<unsigned long long>(
                    ranges[i + 1].accessCount),
                static_cast<unsigned long long>(
                    replay.executions[i].accesses));
        StratifiedEstimate est = measureAndAggregate(
            tr, replay, ranges, strata, p, ciConfidence, tp, sout);
        ms = std::chrono::duration<double, std::milli>(clock::now() - t0)
                 .count();
        return est;
    };

    rep.estimate = timedRun(trace, picks, &rep.strata, rep.sampledMs);
    if (cfg.verifyAgainstExact) {
        rep.exact = timedRun(trace, full, nullptr, rep.exactMs);
        rep.verified = true;
        rep.comparison = compareToExact(rep.estimate, rep.exact, cfg);
    }
    return rep;
}

} // namespace lpp::core
