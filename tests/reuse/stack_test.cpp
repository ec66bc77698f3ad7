#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "reuse/stack.hpp"
#include "support/random.hpp"

namespace {

using lpp::reuse::RankBitmap;
using lpp::reuse::ReuseStack;

constexpr uint64_t inf = ReuseStack::infinite;

/** O(n*m) reference: count distinct elements between consecutive uses. */
class NaiveReuse
{
  public:
    uint64_t
    access(uint64_t element)
    {
        uint64_t dist = inf;
        auto it = lastIndex.find(element);
        if (it != lastIndex.end()) {
            std::unordered_set<uint64_t> between;
            for (size_t i = it->second + 1; i < history.size(); ++i)
                between.insert(history[i]);
            dist = between.size();
        }
        lastIndex[element] = history.size();
        history.push_back(element);
        return dist;
    }

  private:
    std::vector<uint64_t> history;
    std::unordered_map<uint64_t, size_t> lastIndex;
};

TEST(RankBitmap, PrefixSums)
{
    RankBitmap b(8);
    b.set(0);
    b.set(3);
    b.set(7);
    EXPECT_EQ(b.rank(0), 1u);
    EXPECT_EQ(b.rank(2), 1u);
    EXPECT_EQ(b.rank(3), 2u);
    EXPECT_EQ(b.rank(7), 3u);
}

TEST(RankBitmap, ClearedMarksLeaveTheRank)
{
    RankBitmap b(4);
    b.set(1);
    b.clear(1);
    b.set(2);
    EXPECT_FALSE(b.test(1));
    EXPECT_EQ(b.rank(1), 0u);
    EXPECT_EQ(b.rank(3), 1u);
}

TEST(RankBitmap, RanksAcrossWordBoundariesMatchACount)
{
    // Slots on both sides of every 64-slot word edge, plus random
    // set/clear churn, against a plain vector<bool> count.
    const size_t n = 64 * 9 + 5;
    RankBitmap b(n);
    std::vector<bool> ref(n, false);
    auto expectRanks = [&](const char *what) {
        uint64_t count = 0;
        for (size_t i = 0; i < n; ++i) {
            count += ref[i] ? 1 : 0;
            ASSERT_EQ(b.rank(i), count) << what << " slot " << i;
            ASSERT_EQ(b.test(i), ref[i]) << what << " slot " << i;
        }
    };
    for (size_t i : {0, 1, 62, 63, 64, 65, 127, 128, 129, 511, 512, 575,
                     576, 580}) {
        b.set(i);
        ref[i] = true;
    }
    expectRanks("edges");
    lpp::Rng rng(5);
    for (int step = 0; step < 4000; ++step) {
        size_t i = rng.below(n);
        if (ref[i])
            b.clear(i);
        else
            b.set(i);
        ref[i] = !ref[i];
    }
    expectRanks("churn");
    std::vector<size_t> visited;
    b.forEachSet([&](size_t i) { visited.push_back(i); });
    std::vector<size_t> expected;
    for (size_t i = 0; i < n; ++i)
        if (ref[i])
            expected.push_back(i);
    EXPECT_EQ(visited, expected);
}

TEST(RankBitmap, FillPrefixMarksExactlyTheLeadingSlots)
{
    for (size_t marks : {0, 1, 63, 64, 65, 128, 200}) {
        RankBitmap b(3);
        b.set(2);
        b.fillPrefix(marks, 300);
        EXPECT_EQ(b.size(), 300u);
        for (size_t i = 0; i < 300; ++i)
            ASSERT_EQ(b.rank(i), std::min<uint64_t>(i + 1, marks))
                << "marks " << marks << " slot " << i;
        // The rebuilt counts stay consistent under further updates.
        b.set(299);
        EXPECT_EQ(b.rank(299), marks + 1);
        if (marks > 0) {
            b.clear(marks - 1);
            EXPECT_EQ(b.rank(299), marks);
        }
    }
}

TEST(ReuseStack, FirstAccessIsInfinite)
{
    ReuseStack s;
    EXPECT_EQ(s.access(1), inf);
    EXPECT_EQ(s.access(2), inf);
    EXPECT_EQ(s.distinctCount(), 2u);
}

TEST(ReuseStack, ImmediateReuseIsZero)
{
    ReuseStack s;
    s.access(1);
    EXPECT_EQ(s.access(1), 0u);
    EXPECT_EQ(s.access(1), 0u);
}

TEST(ReuseStack, ClassicAbaPattern)
{
    ReuseStack s;
    s.access('a');
    s.access('b');
    EXPECT_EQ(s.access('a'), 1u);
}

TEST(ReuseStack, DuplicatesBetweenCountOnce)
{
    ReuseStack s;
    s.access('a');
    s.access('b');
    s.access('c');
    s.access('b');
    EXPECT_EQ(s.access('a'), 2u); // b and c, b counted once
}

TEST(ReuseStack, CyclicSweepDistanceIsWorkingSetMinusOne)
{
    const uint64_t n = 100;
    ReuseStack s;
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(s.access(i), inf);
    for (int pass = 0; pass < 3; ++pass) {
        for (uint64_t i = 0; i < n; ++i)
            EXPECT_EQ(s.access(i), n - 1);
    }
    EXPECT_EQ(s.accessCount(), 4 * n);
}

TEST(ReuseStack, MatchesNaiveOnRandomTrace)
{
    lpp::Rng rng(41);
    ReuseStack fast;
    NaiveReuse slow;
    for (int i = 0; i < 3000; ++i) {
        uint64_t e = rng.below(60);
        EXPECT_EQ(fast.access(e), slow.access(e)) << "at access " << i;
    }
}

TEST(ReuseStack, CompactionPreservesDistances)
{
    // Tiny capacity hint forces many compactions.
    lpp::Rng rng(43);
    ReuseStack fast(64);
    NaiveReuse slow;
    for (int i = 0; i < 5000; ++i) {
        uint64_t e = rng.below(40);
        ASSERT_EQ(fast.access(e), slow.access(e)) << "at access " << i;
    }
}

TEST(ReuseStack, ManyCompactionsBitIdenticalToLargeCapacityStack)
{
    // A stack with a tiny capacity hint compacts its time axis over
    // and over; one sized for the whole trace up front never does.
    // Distances must be bit-identical at every access regardless —
    // compaction is a pure re-numbering of the time axis. The trace
    // mixes phase-local sweeps with random reuse and a growing working
    // set so compactions land in every regime (dense marks, stale
    // marks, mid-sweep).
    lpp::Rng rng(97);
    ReuseStack tiny(8);       // compacts hundreds of times
    ReuseStack big(1u << 20); // never compacts in this trace
    uint64_t phase_base = 0;
    for (int phase = 0; phase < 6; ++phase) {
        const uint64_t working_set = 50 + 80 * phase;
        for (int i = 0; i < 20000; ++i) {
            uint64_t e;
            if (i % 3 == 0)
                e = phase_base + (i % working_set); // sweep
            else
                e = phase_base + rng.below(working_set);
            ASSERT_EQ(tiny.access(e), big.access(e))
                << "phase " << phase << " access " << i;
        }
        phase_base += working_set / 2; // partial working-set overlap
    }
    EXPECT_EQ(tiny.accessCount(), big.accessCount());
    EXPECT_EQ(tiny.distinctCount(), big.distinctCount());
}

TEST(ReuseStack, ResetForgetsHistory)
{
    ReuseStack s;
    s.access(1);
    s.reset();
    EXPECT_EQ(s.access(1), inf);
    EXPECT_EQ(s.accessCount(), 1u);
    EXPECT_EQ(s.distinctCount(), 1u);
}

TEST(ReuseStack, LargeWorkingSetBeyondInitialCapacity)
{
    ReuseStack s(128);
    const uint64_t n = 5000;
    for (uint64_t i = 0; i < n; ++i)
        s.access(i);
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(s.access(i), n - 1);
}

struct SweepParam
{
    uint64_t elements;
    size_t capacityHint;
};

class ReuseStackSweep : public ::testing::TestWithParam<SweepParam>
{};

TEST_P(ReuseStackSweep, RandomTraceMatchesNaive)
{
    auto [elements, hint] = GetParam();
    lpp::Rng rng(elements * 31 + hint);
    ReuseStack fast(hint);
    NaiveReuse slow;
    for (int i = 0; i < 1500; ++i) {
        uint64_t e = rng.below(elements);
        ASSERT_EQ(fast.access(e), slow.access(e));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReuseStackSweep,
    ::testing::Values(SweepParam{2, 64}, SweepParam{8, 64},
                      SweepParam{64, 64}, SweepParam{64, 4096},
                      SweepParam{512, 64}, SweepParam{512, 1u << 16}));

TEST(ReuseStack, DifferentialAgainstNaiveUnderManyCompactions)
{
    // Working sets whose live-mark counts sit at and around 64-slot
    // word edges, capacity hints that put the compaction trigger on
    // and beside a word edge, and a mix of sweeps and random reuse:
    // every distance must equal the naive count.
    for (uint64_t elements : {1, 63, 64, 65, 127, 128, 129, 300}) {
        for (size_t hint : {1, 63, 64, 65, 128, 1000}) {
            lpp::Rng rng(elements * 1009 + hint);
            ReuseStack fast(hint);
            NaiveReuse slow;
            for (uint64_t i = 0; i < 2500; ++i) {
                uint64_t e = rng.below(4) == 0 ? i % elements
                                               : rng.below(elements);
                ASSERT_EQ(fast.access(e), slow.access(e))
                    << "elements " << elements << " hint " << hint
                    << " access " << i;
            }
            EXPECT_EQ(fast.accessCount(), 2500u);
        }
    }
}

TEST(ReuseStack, ReservedStackMatchesNaiveAcrossCompactions)
{
    // Sized the way the sampler sizes it (reserveElements from an
    // address-space hint), then driven through many compactions by a
    // working set that grows and drifts.
    lpp::Rng rng(77);
    ReuseStack fast;
    fast.reserveElements(100);
    NaiveReuse slow;
    for (uint64_t i = 0; i < 12000; ++i) {
        uint64_t e = (i / 3000) * 40 + rng.below(90 + i / 400);
        ASSERT_EQ(fast.access(e), slow.access(e)) << "access " << i;
    }
}

TEST(ReuseStack, RemoveReportsLaterElementsAndForgets)
{
    ReuseStack s(8);
    for (uint64_t e : {1, 2, 3, 4, 2})
        s.access(e);
    // Last-access order, oldest first: 1 3 4 2.
    EXPECT_EQ(s.remove(3), 2u); // 4 and 2 came later
    EXPECT_EQ(s.remove(9), ReuseStack::infinite);
    EXPECT_EQ(s.distinctCount(), 3u);
    EXPECT_EQ(s.access(1), 2u); // 4 and 2; 3 is gone
    EXPECT_EQ(s.access(3), ReuseStack::infinite);
    // Order 4 2 1 3; then more accesses than the 64 slots, so the
    // stack compacts, which must keep the order.
    for (int round = 0; round < 20; ++round)
        for (uint64_t e : {5, 6, 7})
            s.access(e);
    EXPECT_EQ(s.remove(2), 5u); // 1 3 5 6 7
    EXPECT_EQ(s.remove(4), 5u);
    EXPECT_EQ(s.distinctCount(), 5u);
}

} // namespace
