#include "reuse/sharded_reuse.hpp"

#include <algorithm>

#include "reuse/stack.hpp"
#include "support/flat_map.hpp"
#include "support/logging.hpp"
#include "support/parallel_for.hpp"
#include "trace/types.hpp"

namespace lpp::reuse {

namespace {

/** Per-chunk state of the full sweep's parallel local pass. */
struct ChunkState
{
    ShardChunk chunk;
    ReuseStack stack{64};
    std::vector<size_t> firstTouch; //!< local indices of boundary accesses
};

/**
 * Chunk-local pass: exact intra-chunk distances via a private stack
 * sized so it never compacts (its last-access times must stay on the
 * raw local access axis for the end-of-chunk correction), plus the
 * chunk-local block recording.
 */
class LocalSink : public trace::TraceSink
{
  public:
    explicit LocalSink(ChunkState &st_) : st(st_) {}

    void
    onBlock(trace::BlockId block, uint32_t instructions) override
    {
        st.chunk.blocks.onBlock(block, instructions);
    }

    void
    onAccess(trace::Addr addr) override
    {
        handle(addr);
        st.chunk.blocks.onAccess(addr);
    }

    void
    onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            handle(addrs[i]);
        st.chunk.blocks.onAccessBatch(addrs, n);
    }

  private:
    void
    handle(trace::Addr addr)
    {
        uint64_t element = trace::toElement(addr);
        uint64_t dist = st.stack.access(element);
        if (dist == ReuseStack::infinite)
            st.firstTouch.push_back(st.chunk.elements.size());
        st.chunk.elements.push_back(element);
        st.chunk.distances.push_back(dist);
    }

    ChunkState &st;
};

void
localPass(trace::TraceCursor &cursor,
          const trace::MemoryTrace::ChunkRange &range, ChunkState &st)
{
    st.chunk.range = range;
    st.chunk.elements.reserve(range.accessCount);
    st.chunk.distances.reserve(range.accessCount);
    st.stack = ReuseStack(range.accessCount + 64);
    LocalSink sink(st);
    cursor.replayRange(sink, range);
}

/**
 * Sequential part: resolve the chunk's boundary distances against the
 * global stack, then move every locally-touched element's global mark
 * to its final in-chunk position.
 *
 * The global stack's last-access times are on its own (compacted)
 * axis; only their order matters. Resolving the k-th boundary access
 * of element e removes e's mark and counts the elements last accessed
 * after it; adding k counts the chunk's earlier boundary elements,
 * whose marks were removed the same way, so the sum is e's exact
 * serial distance. The chunk stack never compacts, so its live marks
 * are local access indices: visiting them in increasing order
 * re-inserts the touched elements in the order of their last access.
 */
void
resolveChunk(ChunkState &st, ReuseStack &global)
{
    uint64_t k = 0;
    for (size_t pos : st.firstTouch) {
        uint64_t count = global.remove(st.chunk.elements[pos]);
        if (count != ReuseStack::infinite)
            st.chunk.distances[pos] = k + count;
        ++k;
    }
    st.stack.forEachLastAccessTime([&](size_t time) {
        uint64_t element = st.chunk.elements[time];
        uint64_t d = global.access(element);
        LPP_DCHECK(d == ReuseStack::infinite,
                   "element %llu still marked at end-of-chunk insert",
                   static_cast<unsigned long long>(element));
    });
}

size_t
waveSize(support::ThreadPool &pool)
{
    return pool.threadCount() + 1; // the caller participates
}

/**
 * One streaming cursor per wave slot, reused across waves: a wave of
 * parallel chunk replays decodes one frame-sized window per worker
 * instead of touching a materialized trace, and slot i's cursor keeps
 * its decoder and batch scratch warm from wave to wave.
 */
std::vector<trace::TraceCursor>
cursorsFor(const trace::MemoryTrace &trace, size_t wave)
{
    std::vector<trace::TraceCursor> cursors;
    cursors.reserve(wave);
    for (size_t i = 0; i < wave; ++i)
        cursors.emplace_back(trace);
    return cursors;
}

/** Applies a callback to every data access delivered to it. */
template <typename Fn>
class AccessVisitor : public trace::TraceSink
{
  public:
    explicit AccessVisitor(Fn &fn_) : fn(fn_) {}

    void onAccess(trace::Addr addr) override { fn(addr); }

    void
    onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            fn(addrs[i]);
    }

  private:
    Fn &fn;
};

} // namespace

TraceCounts
shardedPrecount(const trace::MemoryTrace &trace,
                const ShardedSweepConfig &cfg, support::ThreadPool &pool)
{
    TraceCounts counts;
    counts.accesses = trace.accessCount();
    auto ranges = trace.chunks(cfg.chunkAccesses);

    support::FlatMap<uint8_t> seen;
    if (cfg.reserveElements > 0)
        seen.reserve(cfg.reserveElements);

    const size_t wave = waveSize(pool);
    auto cursors = cursorsFor(trace, wave);
    for (size_t base = 0; base < ranges.size(); base += wave) {
        const size_t n = std::min(wave, ranges.size() - base);
        // Per-chunk distinct-element lists, computed in parallel.
        std::vector<std::vector<uint64_t>> locals(n);
        support::parallelFor(pool, n, [&](size_t i) {
            support::FlatMap<uint8_t> localSeen;
            std::vector<uint64_t> &distinct = locals[i];
            auto visit = [&](trace::Addr addr) {
                uint64_t element = trace::toElement(addr);
                if (!localSeen.find(element)) {
                    localSeen.insert(element, 1);
                    distinct.push_back(element);
                }
            };
            AccessVisitor sink(visit);
            cursors[i].replayRange(sink, ranges[base + i]);
        });
        for (size_t i = 0; i < n; ++i)
            for (uint64_t element : locals[i])
                if (!seen.find(element))
                    seen.insert(element, 1);
    }
    counts.distinctElements = seen.size();
    return counts;
}

TraceCounts
shardedReuseSweep(const trace::MemoryTrace &trace,
                  const ShardedSweepConfig &cfg, support::ThreadPool &pool,
                  const std::function<void(const ShardChunk &)> &consume)
{
    TraceCounts counts;
    counts.accesses = trace.accessCount();
    auto ranges = trace.chunks(cfg.chunkAccesses);
    ReuseStack global;
    global.reserveElements(cfg.reserveElements);

    const size_t wave = waveSize(pool);
    auto cursors = cursorsFor(trace, wave);
    for (size_t base = 0; base < ranges.size(); base += wave) {
        const size_t n = std::min(wave, ranges.size() - base);
        std::vector<ChunkState> states(n);
        support::parallelFor(pool, n, [&](size_t i) {
            localPass(cursors[i], ranges[base + i], states[i]);
        });
        for (size_t i = 0; i < n; ++i) {
            resolveChunk(states[i], global);
            consume(states[i].chunk);
            states[i] = ChunkState{}; // free before the next wave
        }
    }
    counts.distinctElements = global.distinctCount();
    return counts;
}

} // namespace lpp::reuse
