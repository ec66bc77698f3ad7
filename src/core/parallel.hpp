/**
 * @file
 * Deterministic fan-out of independent analysis jobs.
 *
 * Every experiment driver evaluates a grid of (workload × configuration)
 * cells whose cells share nothing; ParallelRunner runs such grids over
 * the shared thread pool and returns results in index order. Because
 * each job is a pure function of its inputs and merging is by index,
 * the output is bit-identical to running the jobs serially — the
 * determinism tests assert exactly this.
 *
 * The execution engine is support::parallelFor: the calling thread
 * claims jobs alongside the pool's workers, so a one-thread run has no
 * handoff at all (the caller just executes the jobs in index order),
 * and calling from inside a pool worker is safe — the caller can drain
 * the whole batch itself if every worker is busy. Result slots are
 * preallocated and each job owns exactly one, so completion needs no
 * per-job allocation and no lock around the slots; the parallelFor
 * barrier orders slot writes before the caller's reads.
 */

#ifndef LPP_CORE_PARALLEL_HPP
#define LPP_CORE_PARALLEL_HPP

#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/parallel_for.hpp"
#include "support/thread_pool.hpp"

namespace lpp::core {

/** Runs batches of independent jobs, merging in index order. */
class ParallelRunner
{
  public:
    /** @param pool_ worker pool; defaults to the process-wide pool. */
    explicit ParallelRunner(
        support::ThreadPool &pool_ = support::ThreadPool::shared())
        : pool(pool_)
    {
    }

    /**
     * Map `fn` over index range [0, n), in parallel, caller
     * participating, and collect the results in index order. Calls must
     * be independent (no shared mutable state). If calls throw, the
     * exception of the first failing index is rethrown here.
     */
    template <typename Fn>
    auto
    mapIndexed(size_t n, Fn fn)
        -> std::vector<std::invoke_result_t<Fn &, size_t>>
    {
        using Result = std::invoke_result_t<Fn &, size_t>;
        std::vector<std::optional<Result>> slots(n);
        support::parallelFor(pool, n,
                             [&](size_t i) { slots[i].emplace(fn(i)); });
        std::vector<Result> results;
        results.reserve(n);
        for (auto &slot : slots)
            results.push_back(std::move(*slot));
        return results;
    }

  private:
    support::ThreadPool &pool;
};

} // namespace lpp::core

#endif // LPP_CORE_PARALLEL_HPP
