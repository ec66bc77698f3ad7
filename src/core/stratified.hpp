/**
 * @file
 * Phase-stratified sampled evaluation with confidence intervals.
 *
 * The paper's core claim — executions of the same phase recur with
 * near-identical locality — makes full-trace evaluation redundant:
 * measuring every phase execution re-measures the same behaviour over
 * and over. Following "CPU Simulation Using Two-Phase Stratified
 * Sampling" (Ekman, PAPERS.md), detected phase executions are treated
 * as strata: the recorded stream is sliced at execution boundaries, a
 * deterministic seeded sample of k executions per stratum is replayed
 * through the reuse/cache/BBV consumers via TraceCursor seeks, and the
 * per-stratum means are extrapolated to stratum totals with
 * finite-population variance and Student-t confidence intervals.
 *
 * Estimator: every execution's access count is known exactly from the
 * instrumented replay, so each stratum uses the classical ratio
 * estimator with accesses as the auxiliary variable (Cochran §6.3).
 * Per stratum h with N_h executions, known access total A_h, and k_h
 * sampled executions with miss counts y_i and access counts x_i:
 *
 *   R̂_h   = Σ y_i / Σ x_i                  (sample miss rate)
 *   T̂_h   = A_h · R̂_h
 *   Var_h = N_h² · (1 − k_h/N_h) · s²_e / k_h
 *           with residuals e_i = y_i − R̂_h·x_i, s²_e their sample
 *           variance (k_h − 1 denominator)
 *
 * and overall T̂ = Σ T̂_h, Var = Σ Var_h, with a two-sided CI of
 * T̂ ± t(0.95, ν)·√Var where ν is the Welch–Satterthwaite
 * effective degrees of freedom. When every execution of a stratum has
 * the same length the ratio estimator degenerates to plain mean
 * expansion N_h·ȳ_h with the textbook variance — but when lengths are
 * skewed (gcc's leaf phases span a 16x range) conditioning on the
 * known sizes removes the dominant variance component. Miss counts at
 * each of the simWays associativities carry a CI; histograms,
 * footprint, and BBV weights are extrapolated point estimates (scaled
 * by A_h / Σ x_i per stratum, no interval).
 *
 * Single-draw strata: a phase with a handful of huge executions
 * (vortex: 6 and 18 executions of ~100K accesses each) cannot afford
 * two draws per stratum — the replay cost would exceed a third of the
 * exhaustive pass. Strata whose mean execution size reaches 2^16
 * accesses therefore sample k_h = 1; their variance is
 * borrowed through a pooled residual model Var(e_i) = φ_w·x_i
 * (quasi-Poisson in the access count), with φ̂_w estimated from the
 * residuals of every stratum that measured >= 2 units (subsampled or
 * exhaustive), giving Var_h = (1 − 1/N_h)·A_h²·φ̂_w / x_1 with the
 * pooled residual dof. If no stratum would provide residual dof, the
 * largest subsampled stratum is bumped to two draws first — a CI is
 * never fabricated from nothing.
 *
 * Selection: the default is deterministic *balanced* sampling on the
 * known size covariate — the k executions whose access counts lie
 * closest to the stratum mean. Under the working model y = R·x + e
 * any x-based selection is model-unbiased, and balancing x̄_sample
 * toward X̄ minimizes the model variance (Royall-style model-based
 * sampling) while making both the estimate and the replay cost
 * deterministic. Seeded uniform draws (classical design-based SRS)
 * remain available as StratifiedSelection::SeededRandom.
 *
 * Measurement semantics: each execution range is measured in isolation
 * — cold reuse stack, cold cache — so per-execution values are
 * independent draws and the estimator is unbiased for the sum of
 * per-execution (in-isolation) measurements. The exact path
 * (verifyAgainstExact) measures *every* range with the identical
 * per-range semantics, which makes the comparison apples-to-apples and
 * makes 100%-sampling bit-identical to exact by construction. This is
 * a deliberate deviation from the whole-trace in-context histogram
 * (which cannot be sampled without replaying the skipped prefix); see
 * DESIGN.md "Stratified sampled evaluation".
 *
 * Stratum keying: strata start as one per leaf phase (marker id). The
 * run's first phase execution is split off as a *certainty unit* —
 * program initialization (first-touch, allocation) lands inside it, so
 * it recurs with nothing and would otherwise skew its stratum; it is
 * always measured exactly. Phases with at least sizeStratifyMin
 * executions are further split by the log2 size class of their access
 * counts: within a <2x size band the miss/access relation is close to
 * proportional even when it is visibly nonlinear across a 16x size
 * range (gcc), which is exactly where the ratio model must hold.
 * Small phases (few, large executions — vortex) stay phase-level so
 * the per-stratum k floor cannot force a near-exhaustive replay.
 *
 * Fallback rules (never a silent wrong answer):
 *  - a stratum with fewer than 2 executions, or where k would reach
 *    its population, is measured exhaustively (scale 1, zero variance);
 *  - the prologue before the first marker and the certainty unit are
 *    always measured exactly;
 *  - a stratum whose accesses (or sampled accesses) are all zero falls
 *    back from ratio estimation to plain mean expansion;
 *  - heterogeneous ("drifting") strata are still unbiased — the drift
 *    lands in the residual variance and widens the CI instead of
 *    skewing the estimate.
 */

#ifndef LPP_CORE_STRATIFIED_HPP
#define LPP_CORE_STRATIFIED_HPP

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/stack_sim.hpp"
#include "core/runtime.hpp"
#include "reuse/analyzer.hpp"
#include "support/histogram.hpp"
#include "trace/memory_trace.hpp"
#include "trace/sink.hpp"
#include "trace/types.hpp"

namespace lpp::support {
class ThreadPool;
}

namespace lpp::core {

/** How executions are picked within a stratum. */
enum class StratifiedSelection
{
    /** The k executions whose access counts are nearest the stratum
     *  mean (deterministic, model-based; the default). */
    BalancedOnSize,
    /** Seeded uniform draws without replacement (design-based SRS). */
    SeededRandom,
};

/** Sampled-evaluation settings (AnalysisConfig::stratifiedSampling). */
struct StratifiedSamplingConfig
{
    bool enabled = false; //!< opt-in sampled evaluation

    /** Minimum executions sampled per stratum. Two draws give every
     *  stratum its own residual variance; a floor of one is supported
     *  (single draws borrow variance through the pooled residual
     *  model) for tighter replay budgets. */
    uint64_t samplesPerStratum = 2;

    /** Within-stratum selection rule. */
    StratifiedSelection selection = StratifiedSelection::BalancedOnSize;

    /** Large strata sample max(samplesPerStratum,
     *  ceil(sampleFraction·N_h)) executions: the floor keeps tiny
     *  strata (few huge executions) from dominating the replay cost,
     *  the fraction keeps many-execution strata from being starved. */
    double sampleFraction = 0.05;

    /** Phases with at least this many executions are substratified by
     *  the log2 size class of their access counts (0 disables). */
    uint64_t sizeStratifyMin = 32;

    /** Seed of the deterministic per-stratum selection. */
    uint64_t seed = 0x51a7151edULL;

    /** Also run the exhaustive path and fill comparison/exact. */
    bool verifyAgainstExact = false;

    /** Relative miss-rate error bound comparison.ok asserts. */
    double errorBound = 0.01;

    /**
     * Frame-seal target applied to recordings made for sampled replay.
     * Seeks skip whole frames but must decode from the start of the
     * frame containing the target, so the sampled path's decode cost
     * has a floor of ~half a frame per seek; finer frames (default
     * 2^16 vs the recorder's 2^20) keep it proportional to the
     * sampled fraction.
     */
    uint64_t frameTargetAccesses = 1ULL << 16;
};

// Pure estimator ----------------------------------------------------

/**
 * @return the two-sided Student-t quantile: the half-width multiplier
 *         for a CI at `confidence` with `dof` degrees of freedom.
 *         Exact at dof 1 and 2, Cornish-Fisher expansion beyond;
 *         dof = +inf yields the normal quantile. dof must be >= 1.
 */
double studentTQuantile(double confidence, double dof);

/**
 * @return `k` distinct indices drawn uniformly from [0, population),
 *         sorted ascending — a deterministic partial Fisher-Yates over
 *         Xoshiro256**(seed). k >= population returns all indices.
 */
std::vector<uint64_t> sampleWithoutReplacement(uint64_t seed,
                                               uint64_t population,
                                               uint64_t k);

/**
 * @return the `k` positions whose `sizes` lie nearest the mean size
 *         (ties: smaller size, then smaller position), sorted
 *         ascending — deterministic balanced selection. k >=
 *         sizes.size() returns all positions.
 */
std::vector<uint64_t> selectBalancedOnSize(const std::vector<double> &sizes,
                                           uint64_t k);

/**
 * Stratified estimator of one scalar total (e.g. misses at one
 * associativity). Feed every stratum exactly once — addExact for
 * exhaustively measured strata, addSampled for subsampled ones — then
 * read the extrapolated total, its variance, and the CI half-width.
 */
class StratifiedAccumulator
{
  public:
    /** Stratum measured exhaustively: contributes `total`, no variance. */
    void addExact(double total);

    /**
     * Subsampled stratum, plain mean expansion: `population`
     * executions, of which `sample` were measured. Requires
     * 2 <= sample.size() < population.
     */
    void addSampled(uint64_t population, const std::vector<double> &sample);

    /**
     * Subsampled stratum, ratio estimation on a known auxiliary
     * variable: `sample` holds (value, covariate) pairs and
     * `covariateTotal` is the stratum's exact covariate sum (> 0, with
     * a positive sampled covariate sum). Contributes
     * covariateTotal·(Σvalue/Σcovariate) with the residual variance.
     * Degenerates to addSampled when the covariate is constant.
     */
    void addRatio(uint64_t population, double covariateTotal,
                  const std::vector<std::pair<double, double>> &sample);

    /**
     * Stratum with an externally computed estimate: contributes
     * `total` with variance `var` whose estimate carries `varDof`
     * degrees of freedom (e.g. a single-draw stratum under the pooled
     * residual model). var must be >= 0 and varDof >= 1.
     */
    void addEstimate(double total, double var, double varDof);

    /** @return the extrapolated overall total Σ T̂_h. */
    double total() const { return sum; }

    /** @return the estimator variance Σ Var_h. */
    double variance() const { return varSum; }

    /** @return Welch–Satterthwaite effective dof (+inf at 0 variance). */
    double dof() const;

    /** @return t(confidence, dof)·√variance, 0 when variance is 0. */
    double halfWidth(double confidence) const;

  private:
    double sum = 0.0;
    double varSum = 0.0;
    double dofDenom = 0.0; //!< Σ Var_h² / (k_h − 1)
};

// Per-range measurement ---------------------------------------------

/** In-isolation locality of one execution range (cold consumers). */
struct RangeLocality
{
    uint64_t accesses = 0;
    uint64_t distinctElements = 0;  //!< range footprint
    LogHistogram histogram;         //!< element-granular reuse, cold
    cache::SegmentLocality cache;   //!< misses at ways 1..simWays
    /** Instruction weight per basic block, sorted by block id. */
    std::vector<std::pair<trace::BlockId, uint64_t>> blockWeights;
};

/** Sink measuring one range: cold reuse stack + cold stack sim. */
class RangeLocalitySink : public trace::TraceSink
{
  public:
    RangeLocalitySink() = default;

    void onBlock(trace::BlockId block, uint32_t instructions) override;
    void onAccess(trace::Addr addr) override;
    void onAccessBatch(const trace::Addr *addrs, size_t n) override;

    /** @return the measurement (call once, after the range replayed). */
    RangeLocality take();

  private:
    reuse::ReuseAnalyzer reuse;
    cache::StackSimulator sim;
    std::unordered_map<trace::BlockId, uint64_t> weights;
};

// Stratification ----------------------------------------------------

/** One stratum: executions of one leaf phase (and one size class). */
struct Stratum
{
    trace::PhaseId phase = 0;
    uint32_t sizeClass = 0; //!< log2 access-count band (0: unsplit)
    bool certainty = false; //!< the run's first execution, always exact
    std::vector<size_t> executions; //!< indices into replay.executions
};

/** Group a replay's executions into strata, ordered by phase id. */
std::vector<Stratum> stratify(const Replay &replay);

/**
 * The full sampling frame: stratify by phase, split off the certainty
 * unit (the run's first execution), and substratify phases with at
 * least config.sizeStratifyMin executions by log2 size class.
 * Deterministic order: certainty first, then ascending (phase, class).
 */
std::vector<Stratum> planStrata(const Replay &replay,
                                const StratifiedSamplingConfig &config);

// Reports -----------------------------------------------------------

/** Extrapolated whole-run locality estimate. */
struct StratifiedEstimate
{
    uint64_t totalAccesses = 0;    //!< exact (from the recording)
    uint64_t totalExecutions = 0;  //!< phase executions in the replay
    uint64_t measuredRanges = 0;   //!< ranges actually replayed
    uint64_t measuredAccesses = 0; //!< accesses actually replayed

    /** Extrapolated miss totals and CI half-widths, ways 1..simWays. */
    std::array<double, cache::simWays> missTotal{};
    std::array<double, cache::simWays> missHalfWidth{};

    std::vector<double> histogramBins; //!< extrapolated log2-bin counts
    double histogramInfinite = 0.0;    //!< extrapolated cold accesses
    double footprintSum = 0.0; //!< extrapolated Σ per-range footprints
    std::vector<double> bbv;   //!< unit-L1 aggregate BBV (may be empty)

    /** @return estimated miss rate at associativity `ways` (1-based). */
    double missRate(uint32_t ways) const;

    /** @return CI half-width of missRate(ways). */
    double missRateHalfWidth(uint32_t ways) const;
};

/** How one stratum was handled. */
struct StratumReport
{
    trace::PhaseId phase = 0;
    uint32_t sizeClass = 0;  //!< log2 access-count band (0: unsplit)
    bool certainty = false;  //!< the run's first execution
    uint64_t executions = 0; //!< N_h
    uint64_t sampled = 0;    //!< k_h (== N_h when exact)
    bool exact = false;      //!< measured exhaustively
    uint64_t accesses = 0;   //!< exact stratum accesses (records)
    uint64_t sampledAccesses = 0; //!< accesses actually replayed
};

/** Sampled-vs-exact comparison (verifyAgainstExact). */
struct StratifiedComparison
{
    bool checked = false;
    bool ok = false; //!< maxRelMissRateError <= errorBound

    double maxAbsMissRateError = 0.0; //!< max over ways
    double maxRelMissRateError = 0.0; //!< max over ways, vs exact
    double histogramDivergence = 0.0; //!< relative L1 over bins
    double footprintRelError = 0.0;
    double bbvDistance = 0.0;   //!< manhattan, 0 when either empty
    uint32_t ciCoveredWays = 0; //!< ways whose CI contains the truth

    std::vector<std::string> failures; //!< violated bounds, readable
};

/** Everything one stratified evaluation produced. */
struct StratifiedEvalReport
{
    bool ran = false;     //!< the evaluator executed
    bool sampled = false; //!< at least one stratum was subsampled
    bool verified = false; //!< the exhaustive cross-check ran

    std::vector<StratumReport> strata;
    uint64_t prologueAccesses = 0; //!< always measured exactly

    StratifiedEstimate estimate;
    StratifiedEstimate exact; //!< valid when verified
    StratifiedComparison comparison;

    double sampledMs = 0.0; //!< wall time of the sampled path
    double exactMs = 0.0;   //!< wall time of the exhaustive path

    /** @return exactMs / sampledMs (0 until verified). */
    double speedup() const;

    /** @return measured fraction of the recording, in accesses. */
    double sampledFraction() const;
};

/**
 * Compare a sampled estimate against the exhaustive one measured with
 * identical per-range semantics. Pure computation; `ok` asserts the
 * relative miss-rate bound, everything else is reported as observed.
 */
StratifiedComparison compareToExact(const StratifiedEstimate &sampled,
                                    const StratifiedEstimate &exact,
                                    const StratifiedSamplingConfig &config);

// Evaluator ---------------------------------------------------------

/**
 * Drives the sampled evaluation over one recorded stream and the
 * phase executions an instrumented replay of that stream produced.
 * Ranges are measured through per-worker TraceCursors on the pool
 * (waves, like the sharded sweeps) and reduced in a fixed order, so
 * the result is bit-identical at every thread count.
 */
class StratifiedEvaluator
{
  public:
    explicit StratifiedEvaluator(const StratifiedSamplingConfig &config,
                                 support::ThreadPool *pool = nullptr);

    /**
     * Evaluate `trace` (the raw recorded stream) against `replay` (the
     * phase executions of its instrumented replay). The two must
     * describe the same run: replay.totalAccesses must equal the
     * recording's access count.
     */
    StratifiedEvalReport evaluate(const trace::MemoryTrace &trace,
                                  const Replay &replay) const;

  private:
    StratifiedSamplingConfig cfg;
    support::ThreadPool *pool;
};

} // namespace lpp::core

#endif // LPP_CORE_STRATIFIED_HPP
