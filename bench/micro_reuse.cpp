/**
 * @file
 * Microbenchmarks for the reuse-distance substrate: exact stack
 * distance tracking (including its compaction upkeep and the sharded
 * sweep) and variable-distance sampling throughput.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/parallel.hpp"
#include "reuse/analyzer.hpp"
#include "reuse/sampler.hpp"
#include "reuse/sharded_reuse.hpp"
#include "reuse/stack.hpp"
#include "support/flat_map.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "trace/memory_trace.hpp"

namespace {

void
BM_ReuseStackRandom(benchmark::State &state)
{
    uint64_t working_set = static_cast<uint64_t>(state.range(0));
    lpp::Rng rng(7);
    lpp::reuse::ReuseStack stack;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stack.access(rng.below(working_set)));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ReuseStackRandom)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void
BM_ReuseStackSweep(benchmark::State &state)
{
    uint64_t working_set = static_cast<uint64_t>(state.range(0));
    lpp::reuse::ReuseStack stack;
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stack.access(i));
        if (++i == working_set)
            i = 0;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ReuseStackSweep)->Arg(1 << 12)->Arg(1 << 18);

/**
 * The compaction-bound shape of a training run such as fft's: a small
 * working set (7168 elements) over a long trace, with the stack
 * reserved from the address space as the sampler reserves it. The time
 * axis fills every 15 working sets, so a run of this length compacts
 * many times; the per-access figure includes that upkeep.
 */
void
BM_ReuseStackCompactionBound(benchmark::State &state)
{
    const uint64_t working_set = 7168;
    lpp::Rng rng(13);
    std::vector<uint64_t> elements(1 << 20);
    for (size_t i = 0; i < elements.size(); ++i)
        elements[i] = i % 4 == 0 ? rng.below(working_set)
                                 : (i * 17) % working_set;
    for (auto _ : state) {
        lpp::reuse::ReuseStack stack;
        stack.reserveElements(working_set);
        uint64_t sum = 0;
        for (uint64_t e : elements)
            sum += stack.access(e);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * elements.size()));
}
BENCHMARK(BM_ReuseStackCompactionBound)->Unit(benchmark::kMillisecond);

/**
 * The sharded sweep over a recorded trace: chunk-local stacks on the
 * pool (arg = pool threads) and the sequential boundary resolve.
 */
void
BM_ShardedReuseSweep(benchmark::State &state)
{
    lpp::trace::MemoryTrace trace;
    lpp::Rng rng(17);
    std::vector<lpp::trace::Addr> batch;
    for (uint64_t block = 0; block < (1 << 14); ++block) {
        trace.onBlock(static_cast<lpp::trace::BlockId>(block % 32), 16);
        batch.clear();
        const uint64_t base = (block / 1024) * 4096;
        for (uint64_t i = 0; i < 64; ++i)
            batch.push_back(8 * (base + (block * 64 + i) % 24000));
        trace.onAccessBatch(batch.data(), batch.size());
        trace.onAccess(8 * rng.below(1 << 17));
    }
    trace.onEnd();

    lpp::support::ThreadPool pool(static_cast<size_t>(state.range(0)));
    lpp::reuse::ShardedSweepConfig cfg;
    cfg.chunkAccesses = 1 << 16;
    for (auto _ : state) {
        uint64_t sum = 0;
        lpp::reuse::shardedReuseSweep(
            trace, cfg, pool, [&](const lpp::reuse::ShardChunk &c) {
                for (uint64_t d : c.distances)
                    sum += d;
            });
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * trace.accessCount()));
}
BENCHMARK(BM_ShardedReuseSweep)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_VariableDistanceSampler(benchmark::State &state)
{
    lpp::reuse::SamplerConfig cfg;
    cfg.targetSamples = 20000;
    lpp::reuse::VariableDistanceSampler sampler(cfg);
    uint64_t i = 0;
    uint64_t n = 1 << 16;
    for (auto _ : state) {
        sampler.onAccess((i % n) * 8);
        ++i;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_VariableDistanceSampler);

// --- Hot-path substrate: flat robin-hood map vs std::unordered_map ---

void
BM_FlatMapProbe(benchmark::State &state)
{
    uint64_t keys = static_cast<uint64_t>(state.range(0));
    lpp::support::FlatMap<uint64_t> map(keys);
    for (uint64_t k = 0; k < keys; ++k)
        map.insert(k * 3, k);
    lpp::Rng rng(11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.find(rng.below(keys * 3)));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatMapProbe)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void
BM_UnorderedMapProbe(benchmark::State &state)
{
    uint64_t keys = static_cast<uint64_t>(state.range(0));
    std::unordered_map<uint64_t, uint64_t> map;
    map.reserve(keys);
    for (uint64_t k = 0; k < keys; ++k)
        map.emplace(k * 3, k);
    lpp::Rng rng(11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.find(rng.below(keys * 3)));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_UnorderedMapProbe)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// --- Batched vs per-access delivery into a ReuseAnalyzer ---

void
BM_AnalyzerPerAccess(benchmark::State &state)
{
    lpp::Rng rng(5);
    std::vector<lpp::trace::Addr> addrs(1 << 16);
    for (auto &a : addrs)
        a = rng.below(1 << 20) * 8;
    lpp::reuse::ReuseAnalyzer analyzer(1 << 20);
    lpp::trace::TraceSink &sink = analyzer;
    for (auto _ : state) {
        for (auto a : addrs)
            sink.onAccess(a);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * addrs.size()));
}
BENCHMARK(BM_AnalyzerPerAccess);

void
BM_AnalyzerBatched(benchmark::State &state)
{
    lpp::Rng rng(5);
    std::vector<lpp::trace::Addr> addrs(1 << 16);
    for (auto &a : addrs)
        a = rng.below(1 << 20) * 8;
    lpp::reuse::ReuseAnalyzer analyzer(1 << 20);
    lpp::trace::TraceSink &sink = analyzer;
    constexpr size_t batch = 4096;
    for (auto _ : state) {
        for (size_t i = 0; i < addrs.size(); i += batch)
            sink.onAccessBatch(addrs.data() + i,
                               std::min(batch, addrs.size() - i));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * addrs.size()));
}
BENCHMARK(BM_AnalyzerBatched);

// --- Parallel fan-out of independent reuse analyses (trace shards) ---

void
BM_ParallelReuseShards(benchmark::State &state)
{
    size_t shards = static_cast<size_t>(state.range(0));
    std::vector<std::vector<lpp::trace::Addr>> traces(shards);
    for (size_t s = 0; s < shards; ++s) {
        lpp::Rng rng(100 + s);
        traces[s].resize(1 << 15);
        for (auto &a : traces[s])
            a = rng.below(1 << 16) * 8;
    }
    lpp::core::ParallelRunner runner;
    for (auto _ : state) {
        auto counts = runner.mapIndexed(shards, [&](size_t s) {
            lpp::reuse::ReuseAnalyzer analyzer(1 << 16);
            analyzer.onAccessBatch(traces[s].data(), traces[s].size());
            analyzer.onEnd();
            return analyzer.histogram().total();
        });
        benchmark::DoNotOptimize(counts);
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * shards * (1 << 15)));
}
BENCHMARK(BM_ParallelReuseShards)->Arg(1)->Arg(4)->Arg(8);

} // namespace

BENCHMARK_MAIN();
