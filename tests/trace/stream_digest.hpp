/**
 * @file
 * Test helper: fold an event stream into a 64-bit digest.
 *
 * Equivalence tests compare two streams by their digests instead of
 * serializing both. Every event contributes its kind and operands, and
 * a batch contributes its length before its addresses, so streams that
 * differ only in access-batch boundaries digest differently.
 */

#ifndef LPP_TESTS_TRACE_STREAM_DIGEST_HPP
#define LPP_TESTS_TRACE_STREAM_DIGEST_HPP

#include <cstddef>
#include <cstdint>

#include "trace/memory_trace.hpp"
#include "trace/sink.hpp"

namespace lpp::test {

/** Sink that hashes every event it observes, in order. */
class StreamDigest : public trace::TraceSink
{
  public:
    void
    onBlock(trace::BlockId block, uint32_t instructions) override
    {
        mix(1);
        mix(block);
        mix(instructions);
    }

    void
    onAccess(trace::Addr addr) override
    {
        mix(2);
        mix(addr);
    }

    void
    onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        mix(3);
        mix(n);
        for (size_t i = 0; i < n; ++i)
            mix(addrs[i]);
    }

    void
    onManualMarker(uint32_t marker_id) override
    {
        mix(4);
        mix(marker_id);
    }

    void
    onPhaseMarker(trace::PhaseId phase) override
    {
        mix(5);
        mix(phase);
    }

    void onEnd() override { mix(6); }

    /** @return the digest of everything observed so far. */
    uint64_t value() const { return h; }

  private:
    /** One splitmix64 step over the running state and `v`. */
    void
    mix(uint64_t v)
    {
        uint64_t z = h + v + 0x9E3779B97F4A7C15ULL;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        h = z ^ (z >> 31);
    }

    uint64_t h = 0;
};

/** @return the digest of a recording's replayed stream. */
inline uint64_t
streamDigest(const trace::MemoryTrace &t)
{
    StreamDigest d;
    t.replay(d);
    return d.value();
}

} // namespace lpp::test

#endif // LPP_TESTS_TRACE_STREAM_DIGEST_HPP
