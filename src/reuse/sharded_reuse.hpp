/**
 * @file
 * Sharded exact reuse-distance sweep over a recorded trace.
 *
 * The serial reuse-distance pass (ReuseStack) is the dominant cost of
 * the training analysis, and it looks inherently sequential — every
 * distance depends on all history. The PARDA observation (Niu et al.,
 * PPoPP'12) splits it: chop the access stream into chunks, and an
 * access whose previous access to the same element lies *within* its
 * chunk has a reuse window entirely inside the chunk, so a chunk-local
 * ReuseStack computes its exact distance with no global knowledge.
 * Only each chunk's *first* access to an element (a "boundary" access)
 * reaches across chunks; those are resolved sequentially against a
 * global last-access structure:
 *
 *   distance(k-th boundary access, element e)
 *     = k                      — distinct elements already touched in
 *                                this chunk (each was an earlier
 *                                boundary access, by definition)
 *     + |{x untouched in this chunk : lastAccess(x) > lastAccess(e)}|
 *                              — ReuseStack::remove on one global
 *                                stack, which also takes e's mark out
 *                                so the two terms never double-count
 *
 * or infinite if e was never seen. After a chunk's boundaries resolve,
 * every element the chunk touched gets its global last-access mark
 * moved to its final in-chunk position, and the next chunk proceeds.
 * Every quantity is an exact integer equal to what the serial stack
 * computes, so the sharded sweep is bit-identical to the serial pass
 * by construction — the property tests assert this per consumer.
 *
 * The parallel part (chunk-local stacks) is the expensive part; the
 * sequential resolve touches only distinct-elements-per-chunk entries.
 * Chunks are processed in waves of about the pool's parallelism so
 * peak memory stays at wave × chunk size, not the whole trace. Each
 * wave slot owns one trace::TraceCursor, so the chunk replays stream
 * straight out of the compressed frame list — no stage of the sweep
 * ever holds a decoded copy of the recording.
 */

#ifndef LPP_REUSE_SHARDED_REUSE_HPP
#define LPP_REUSE_SHARDED_REUSE_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "support/thread_pool.hpp"
#include "trace/memory_trace.hpp"
#include "trace/recorder.hpp"

namespace lpp::reuse {

/** Knobs for the sharded sweeps. */
struct ShardedSweepConfig
{
    /** Target data accesses per chunk (0 is treated as 1). */
    uint64_t chunkAccesses = 1u << 20;

    /**
     * Expected distinct-element count (address-space hint; 0 unknown).
     * Pre-sizes the global last-access table.
     */
    size_t reserveElements = 0;
};

/** Whole-trace totals produced by a sweep. */
struct TraceCounts
{
    uint64_t accesses = 0;         //!< data accesses in the trace
    uint64_t distinctElements = 0; //!< distinct elements touched
};

/**
 * One resolved chunk, handed to the sweep consumer in chunk order.
 * elements[i] / distances[i] describe the chunk's i-th data access;
 * global logical time of that access is range.firstAccess + i. The
 * distance is exact (ReuseStack::infinite for cold accesses). blocks
 * holds the chunk-local basic-block recording on chunk-local clocks;
 * absorbing the chunks' recorders in order rebuilds the global one.
 */
struct ShardChunk
{
    trace::MemoryTrace::ChunkRange range;
    std::vector<uint64_t> elements;
    std::vector<uint64_t> distances;
    trace::BlockRecorder blocks;
};

/**
 * Count accesses and distinct elements: the cheap sweep that replaces
 * the serial precount replay. Chunk-local distinct sets run on the
 * pool in parallel; the merge is a serial set union in chunk order.
 */
TraceCounts shardedPrecount(const trace::MemoryTrace &trace,
                            const ShardedSweepConfig &cfg,
                            support::ThreadPool &pool);

/**
 * The full sweep: replays the trace in parallel chunk-local passes,
 * resolves boundary distances sequentially, and calls `consume` once
 * per chunk, in chunk order, with exact per-access distances. The
 * chunk is owned by the sweep and freed after `consume` returns.
 */
TraceCounts
shardedReuseSweep(const trace::MemoryTrace &trace,
                  const ShardedSweepConfig &cfg, support::ThreadPool &pool,
                  const std::function<void(const ShardChunk &)> &consume);

} // namespace lpp::reuse

#endif // LPP_REUSE_SHARDED_REUSE_HPP
