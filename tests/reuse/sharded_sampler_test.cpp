/**
 * @file
 * The sharded reuse sweep feeding an external-distance sampler must
 * collect exactly the samples the serial sampler collects, whatever
 * the pool size and wherever the chunk edges fall relative to the
 * stacks' 64-slot words.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "reuse/sampler.hpp"
#include "reuse/sharded_reuse.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "trace/memory_trace.hpp"

namespace {

using lpp::reuse::VariableDistanceSampler;
using lpp::trace::MemoryTrace;

/** Phases of sweeps and random reuse over drifting working sets, with
 *  a cold tail, in blocks of batched and single accesses. */
MemoryTrace
phasedTrace(uint64_t seed)
{
    MemoryTrace t;
    lpp::Rng rng(seed);
    std::vector<lpp::trace::Addr> batch;
    uint64_t cold = 1u << 20;
    for (uint64_t phase = 0; phase < 8; ++phase) {
        const uint64_t base = phase * 150;
        const uint64_t ws = 200 + 60 * (phase % 3);
        for (int block = 0; block < 120; ++block) {
            t.onBlock(static_cast<lpp::trace::BlockId>(phase * 4 + block % 4),
                      12);
            batch.clear();
            for (uint64_t i = 0, n = 1 + rng.below(40); i < n; ++i)
                batch.push_back(8 * (base + (block * 7 + i) % ws));
            t.onAccessBatch(batch.data(), batch.size());
            t.onAccess(8 * (rng.below(10) == 0 ? cold++
                                               : base + rng.below(ws)));
        }
    }
    t.onEnd();
    return t;
}

void
expectSameSamples(const VariableDistanceSampler &a,
                  const VariableDistanceSampler &b, const std::string &what)
{
    EXPECT_EQ(a.accessCount(), b.accessCount()) << what;
    EXPECT_EQ(a.sampleCount(), b.sampleCount()) << what;
    EXPECT_EQ(a.adjustments(), b.adjustments()) << what;
    EXPECT_EQ(a.qualificationThreshold(), b.qualificationThreshold())
        << what;
    EXPECT_EQ(a.temporalThreshold(), b.temporalThreshold()) << what;
    EXPECT_EQ(a.spatialThreshold(), b.spatialThreshold()) << what;
    ASSERT_EQ(a.samples().size(), b.samples().size()) << what;
    for (size_t d = 0; d < a.samples().size(); ++d) {
        const auto &x = a.samples()[d];
        const auto &y = b.samples()[d];
        ASSERT_EQ(x.element, y.element) << what << " datum " << d;
        ASSERT_EQ(x.accesses.size(), y.accesses.size())
            << what << " datum " << d;
        for (size_t i = 0; i < x.accesses.size(); ++i) {
            EXPECT_EQ(x.accesses[i].time, y.accesses[i].time) << what;
            EXPECT_EQ(x.accesses[i].distance, y.accesses[i].distance)
                << what;
        }
    }
}

TEST(ShardedSampler, BitIdenticalToSerialAtEveryPoolAndChunkSize)
{
    MemoryTrace t = phasedTrace(19);

    lpp::reuse::SamplerConfig cfg;
    cfg.targetSamples = 80;
    cfg.checkInterval = 301;
    cfg.initialQualification = 24;
    cfg.initialTemporal = 12;
    cfg.initialSpatial = 4;
    cfg.expectedAccesses = t.accessCount();
    cfg.floorQualification = 2;
    cfg.floorTemporal = 1;
    cfg.addressSpaceElements = 1500; // sizes the serial stack

    VariableDistanceSampler serial(cfg);
    t.replay(serial);
    ASSERT_GT(serial.sampleCount(), 0u);
    ASSERT_GT(serial.adjustments(), 0u);

    for (size_t threads : {1u, 2u, 4u}) {
        lpp::support::ThreadPool pool(threads);
        // None a multiple of 64, so chunk edges (and the chunk
        // stacks' slot counts) fall inside words.
        for (uint64_t chunk : {63u, 65u, 1000u, 4097u}) {
            auto sharded = VariableDistanceSampler::externalDistances(cfg);
            lpp::reuse::ShardedSweepConfig scfg;
            scfg.chunkAccesses = chunk;
            scfg.reserveElements = 1500;
            lpp::reuse::shardedReuseSweep(
                t, scfg, pool, [&](const lpp::reuse::ShardChunk &c) {
                    for (size_t i = 0; i < c.elements.size(); ++i)
                        sharded.observe(c.elements[i],
                                        c.range.firstAccess + i,
                                        c.distances[i]);
                });
            expectSameSamples(sharded, serial,
                              "threads " + std::to_string(threads) +
                                  " chunk " + std::to_string(chunk));
        }
    }
}

} // namespace
