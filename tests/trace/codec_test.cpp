/**
 * @file
 * Codec tests: a recording cut into predictive frames must replay the
 * live stream bit for bit — every opcode, access-batch boundary, and
 * extreme address jump — and the content hash must notice bit rot.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/random.hpp"
#include "trace/codec.hpp"
#include "trace/memory_trace.hpp"
#include "trace/sink.hpp"

namespace {

using lpp::trace::Addr;
using lpp::trace::MemoryTrace;

/** Records the stream as a flat, comparable event list. */
struct FlatSink : lpp::trace::TraceSink
{
    struct Event
    {
        char kind;
        uint64_t a = 0, b = 0;
        std::vector<Addr> addrs;
        bool
        operator==(const Event &o) const
        {
            return kind == o.kind && a == o.a && b == o.b &&
                   addrs == o.addrs;
        }
    };
    std::vector<Event> events;

    void
    onBlock(lpp::trace::BlockId block, uint32_t instructions) override
    {
        events.push_back({'B', block, instructions, {}});
    }
    void
    onAccess(Addr addr) override
    {
        events.push_back({'a', addr, 0, {}});
    }
    void
    onAccessBatch(const Addr *addrs, size_t n) override
    {
        events.push_back({'V', n, 0, std::vector<Addr>(addrs, addrs + n)});
    }
    void
    onManualMarker(uint32_t marker_id) override
    {
        events.push_back({'M', marker_id, 0, {}});
    }
    void
    onPhaseMarker(lpp::trace::PhaseId phase) override
    {
        events.push_back({'P', phase, 0, {}});
    }
    void onEnd() override { events.push_back({'E', 0, 0, {}}); }
};

/** A stream exercising every opcode, batch boundaries, and extreme
 *  address jumps (both directions, full 64-bit range). */
void
emitMixed(lpp::trace::TraceSink &t)
{
    t.onBlock(3, 17);
    t.onAccess(0x10000);
    t.onAccess(0x10008); // +8 delta
    t.onAccess(0x0FFF8); // negative delta
    std::vector<Addr> batch1{0x20000, 0x20008, 0x20010, 0x1FFF0,
                             0xFFFFFFFFFFFFFFFFull, 0, 42};
    t.onAccessBatch(batch1.data(), batch1.size());
    t.onManualMarker(7);
    t.onBlock(1, 2); // negative block delta
    std::vector<Addr> batch2{5, 5, 5};
    t.onAccessBatch(batch2.data(), batch2.size());
    t.onAccessBatch(batch2.data(), 0); // empty batch survives
    t.onPhaseMarker(9);
    t.onAccess(0x30000);
    t.onEnd();
}

/** A random stream of every event kind over full-range addresses. */
void
emitRandom(lpp::trace::TraceSink &t)
{
    lpp::Rng rng(12345);
    std::vector<Addr> batch;
    for (int i = 0; i < 2000; ++i) {
        switch (rng.below(6)) {
          case 0:
            t.onBlock(static_cast<lpp::trace::BlockId>(rng.below(64)),
                      static_cast<uint32_t>(rng.below(1000)));
            break;
          case 1:
            t.onAccess(rng.next());
            break;
          case 2: {
            batch.resize(rng.below(300));
            for (auto &x : batch)
                x = rng.next();
            t.onAccessBatch(batch.data(), batch.size());
            break;
          }
          case 3:
            t.onManualMarker(static_cast<uint32_t>(rng.below(16)));
            break;
          case 4:
            t.onPhaseMarker(
                static_cast<lpp::trace::PhaseId>(rng.below(16)));
            break;
          case 5:
            t.onEnd();
            break;
        }
    }
}

/**
 * Record `emit` into frames of at most `frame_target` accesses while
 * logging the live stream, then check the replay delivers the same
 * events with the same counts.
 */
void
expectFramesRoundTrip(void (*emit)(lpp::trace::TraceSink &),
                      uint64_t frame_target)
{
    MemoryTrace trace;
    trace.setFrameTargetAccesses(frame_target);
    FlatSink direct;
    lpp::trace::FanoutSink both;
    both.attach(&trace);
    both.attach(&direct);
    emit(both);
    ASSERT_GT(trace.frameCount(), 1u) << "frame target did not split";

    FlatSink decoded;
    trace.replay(decoded);
    EXPECT_EQ(decoded.events, direct.events);
    EXPECT_EQ(trace.eventCount(), direct.events.size());
}

TEST(TraceCodec, RoundTripPreservesEveryEventAndBatchBoundary)
{
    expectFramesRoundTrip(emitMixed, 4);
}

TEST(TraceCodec, RandomizedRoundTrip)
{
    expectFramesRoundTrip(emitRandom, 4096);
}

TEST(TraceCodec, ContentHashDetectsBitFlips)
{
    std::vector<uint8_t> payload(203);
    lpp::Rng rng(7);
    for (auto &b : payload)
        b = static_cast<uint8_t>(rng.below(256));
    auto h = lpp::trace::contentHash64(payload.data(), payload.size());
    for (size_t i = 0; i < payload.size(); i += 7) {
        payload[i] ^= 0x10;
        EXPECT_NE(h, lpp::trace::contentHash64(payload.data(),
                                               payload.size()));
        payload[i] ^= 0x10;
    }
    EXPECT_EQ(h, lpp::trace::contentHash64(payload.data(),
                                           payload.size()));
    // Truncation changes the hash too (size is part of the seed).
    EXPECT_NE(h, lpp::trace::contentHash64(payload.data(),
                                           payload.size() - 1));
}

} // namespace
