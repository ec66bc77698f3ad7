/**
 * @file
 * Shared declarations of the evaluation benchmark: the seeded program
 * wrapper, operation accounting, the per-workload runner interface and
 * the per-layer sweep.
 */

#ifndef LPP_EVALBENCH_BENCH_HPP
#define LPP_EVALBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/thread_pool.hpp"
#include "tracer.hpp"
#include "workloads/workload.hpp"

namespace evalbench {

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since `t0`. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * A registry program whose train and reference input seeds are shifted
 * by the benchmark's workload seed. Offset 0 gives the program's own
 * inputs; sizes (the input scales) never change. The name is kept, so
 * execution keys (name@s<seed>:x<scale>) stay distinct per seed.
 */
class SeededWorkload : public lpp::workloads::Workload
{
  public:
    SeededWorkload(std::unique_ptr<lpp::workloads::Workload> base,
                   uint64_t offset)
        : inner(std::move(base)), seedOffset(offset)
    {}

    std::string name() const override { return inner->name(); }
    std::string description() const override
    {
        return inner->description();
    }
    std::string source() const override { return inner->source(); }

    lpp::workloads::WorkloadInput
    trainInput() const override
    {
        return shifted(inner->trainInput());
    }

    lpp::workloads::WorkloadInput
    refInput() const override
    {
        return shifted(inner->refInput());
    }

    void
    run(const lpp::workloads::WorkloadInput &input,
        lpp::trace::TraceSink &sink) const override
    {
        inner->run(input, sink);
    }

    std::vector<lpp::workloads::ArrayInfo>
    arrays(const lpp::workloads::WorkloadInput &input) const override
    {
        return inner->arrays(input);
    }

    bool predictable() const override { return inner->predictable(); }

  private:
    lpp::workloads::WorkloadInput
    shifted(lpp::workloads::WorkloadInput in) const
    {
        in.seed += seedOffset;
        return in;
    }

    std::unique_ptr<lpp::workloads::Workload> inner;
    uint64_t seedOffset;
};

/**
 * Operations attempted and failed. One operation is one program's
 * evaluation, interval profile or estimate within one timed pass; a
 * check that fails marks the operations it covers and names the
 * program and the check on stderr.
 */
class Accounting
{
  public:
    explicit Accounting(size_t ops_per_pass) : perPass(ops_per_pass) {}

    /** Open the next pass's row of operations. */
    void addPass() { failedOps.emplace_back(perPass, false); }

    /** Mark operation `op` of pass `pass` failed. */
    void fail(size_t pass, size_t op, const std::string &program,
              const std::string &check, const std::string &detail);

    /** Mark operation `op` failed in every pass (a check of outputs
     *  every pass shares, made once). */
    void failAllPasses(size_t op, const std::string &program,
                       const std::string &check,
                       const std::string &detail);

    /** Record a failed check that covers no timed operation: set-up,
     *  the traced layer sweep, or an untimed extra output. */
    void failRun(const std::string &program, const std::string &check,
                 const std::string &detail);

    size_t passes() const { return failedOps.size(); }
    uint64_t attempted() const { return failedOps.size() * perPass; }
    uint64_t failed() const;
    bool runFailed() const { return setupFailed; }

  private:
    size_t perPass;
    std::vector<std::vector<bool>> failedOps;
    bool setupFailed = false;
};

/** One per-layer measurement: work done, busy time, derived value. */
struct LayerMetric
{
    std::string unit;
    double value = 0.0;
    double work = 0.0;      //!< accesses, bytes or samples
    std::string workUnit;
    double busyS = 0.0;     //!< busy seconds the value rests on
};

using LayerTable = std::map<std::string, LayerMetric>;

/** A benchmark workload: set-up, timed passes and their checks. */
class Runner
{
  public:
    virtual ~Runner() = default;

    /** Operations per pass (programs x operation kinds). */
    virtual size_t opsPerPass() const = 0;

    /** @return a readable name of operation `op` (program.kind). */
    virtual std::string opName(size_t op) const = 0;

    /** @return the program (index into programs()) `op` serves. */
    virtual size_t opProgram(size_t op) const = 0;

    /** One complete set-up; the caller times it. */
    virtual void setup(Accounting &acc) = 0;

    /** Untimed work before a pass (e.g. emptying the store). */
    virtual void prepare() {}

    /**
     * One pass: every operation once, in a fixed order, each timed on
     * its own. Spans go to `tracer` when non-null.
     * @return the seconds of each operation (opsPerPass() entries)
     */
    virtual std::vector<double> pass(Tracer *tracer) = 0;

    /** Compare the pass just run with the first pass (pass index
     *  `index`), marking failed operations. */
    virtual void checkPass(size_t index, Accounting &acc) = 0;

    /** Reference checks of the first pass's outputs (no clock). */
    virtual void finalChecks(Accounting &acc) = 0;

    /** Accesses one pass covers, per program. */
    virtual std::vector<uint64_t> programAccesses() const = 0;

    /** Compressed recording bytes one pass reads or writes, per
     *  program. */
    virtual std::vector<uint64_t> storeBytes() const = 0;

    /** Programs of this workload. */
    virtual const std::vector<std::unique_ptr<SeededWorkload>> &
    programs() const = 0;
};

/** Build the runner of workload `name` (nullptr when unknown). */
std::unique_ptr<Runner> makeRunner(const std::string &name,
                                   uint64_t seed,
                                   lpp::support::ThreadPool &pool,
                                   const std::string &work_dir);

/** @return the pool size of workload `name` (0 when unknown). */
size_t workersFor(const std::string &name);

/** @return the names of every workload. */
std::vector<std::string> workloadNames();

/**
 * Per-layer sweep: time each layer's public entry points over the
 * workload's program inputs, from outside, recording a span per call.
 * Fills every layer metric except support.pool_busy_ratio and the
 * tracing overhead, which come from ordinary passes. A store entry
 * that does not load back whole fails the run through `acc`.
 */
void layerSweep(const std::vector<std::unique_ptr<SeededWorkload>> &programs,
                lpp::support::ThreadPool &pool, const std::string &work_dir,
                Tracer &tracer, LayerTable &out, Accounting &acc);

} // namespace evalbench

#endif // LPP_EVALBENCH_BENCH_HPP
