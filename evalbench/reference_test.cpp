/**
 * @file
 * Hand-worked tests of the benchmark's reference code (reference.hpp).
 * Every expected number below is derived in the comment beside it, not
 * taken from the library. Exits non-zero on the first failed check.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "reference.hpp"

using evalbench::maxWays;
using evalbench::NaiveLru;
using evalbench::NaiveSegment;
using evalbench::StreamHash;
using lpp::trace::Addr;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    }
}

/** Byte address of line `tag` in set `set` (512 sets, 64-byte lines). */
Addr
lineAddr(uint64_t tag, uint64_t set = 0)
{
    return (tag * 512 + set) * 64;
}

std::vector<NaiveSegment>
simulate(const std::vector<Addr> &trace, std::vector<uint64_t> cuts = {},
         bool reset = false)
{
    NaiveLru lru(std::move(cuts), reset);
    for (Addr a : trace)
        lru.onAccess(a);
    lru.onEnd();
    return lru.segments();
}

void
expectMisses(const NaiveSegment &seg,
             const std::array<uint64_t, maxWays> &want,
             const std::string &what)
{
    for (uint32_t w = 0; w < maxWays; ++w)
        expect(seg.misses[w] == want[w],
               what + ": ways " + std::to_string(w + 1) + " got " +
                   std::to_string(seg.misses[w]) + ", want " +
                   std::to_string(want[w]));
}

void
testCyclicConflict()
{
    // Five lines of one set, swept twice (10 accesses). A cache with
    // fewer than five ways evicts each line just before its reuse, so
    // every access misses; five or more ways keep all five lines, so
    // only the first sweep's cold misses remain.
    std::vector<Addr> t;
    for (int rep = 0; rep < 2; ++rep)
        for (uint64_t tag = 0; tag < 5; ++tag)
            t.push_back(lineAddr(tag));
    auto segs = simulate(t);
    expect(segs.size() == 1, "cyclic: one segment");
    expect(segs[0].accesses == 10, "cyclic: 10 accesses");
    expectMisses(segs[0], {10, 10, 10, 10, 5, 5, 5, 5}, "cyclic");
}

void
testLruOrder()
{
    // A B C B A D A in one set.
    //  1 way : nothing is reused back to back, 7 misses.
    //  2 ways: A B C miss; B hits (C,B); A misses (evicts C); D misses
    //          (evicts B); A hits -> 5 misses.
    //  3 ways: A B C miss; B, A hit; D misses (evicts C, the LRU);
    //          A hits -> 4 misses.
    //  4+ ways: only the four cold misses.
    std::vector<Addr> t{lineAddr(0), lineAddr(1), lineAddr(2),
                        lineAddr(1), lineAddr(0), lineAddr(3),
                        lineAddr(0)};
    auto segs = simulate(t);
    expectMisses(segs[0], {7, 5, 4, 4, 4, 4, 4, 4}, "lru order");

    // A B C B D E B: a hit in the middle of the stack must refresh the
    // line, or a FIFO-like cache would evict it first.
    //  2 ways: A B C miss; B hits (B,C); D, E miss; B was evicted by E
    //          -> 6 misses.
    //  3 ways: A B C miss; B hits (B,C,A); D evicts A, E evicts C; B
    //          hits -> 5 misses (FIFO would evict B and miss 6).
    //  4+ ways: five cold misses.
    std::vector<Addr> u{lineAddr(0), lineAddr(1), lineAddr(2),
                        lineAddr(1), lineAddr(3), lineAddr(4),
                        lineAddr(1)};
    segs = simulate(u);
    expectMisses(segs[0], {7, 6, 5, 5, 5, 5, 5, 5}, "lru refresh");
}

void
testSetsAndLines()
{
    // Lines in different sets never evict each other: tag 0 and tag 1
    // of set 0 alternate with tag 0 of set 1 -> at 1 way set 0
    // thrashes (4 misses of 4) while set 1 misses once (cold).
    // Addresses inside one 64-byte line are the same line.
    std::vector<Addr> t{lineAddr(0, 0), lineAddr(0, 1), lineAddr(1, 0),
                        lineAddr(0, 1) + 8, lineAddr(0, 0) + 63,
                        lineAddr(0, 1) + 32, lineAddr(1, 0)};
    // 1 way: set0 sees 0,1,0,1 -> 4 misses; set1 sees 0,0,0 -> 1 miss.
    // 2+ ways: set0 2 cold misses; set1 1 cold miss.
    auto segs = simulate(t);
    expectMisses(segs[0], {5, 3, 3, 3, 3, 3, 3, 3}, "sets and lines");
}

void
testSegments()
{
    // A B | A B | C with cuts at clocks 2 and 4.
    std::vector<Addr> t{lineAddr(0), lineAddr(1), lineAddr(0),
                        lineAddr(1), lineAddr(2)};
    // Warm: segment 1 reuses A and B: misses at 1 way only (A evicted
    // B's way and vice versa) -> 2, at 2+ ways 0. Segment 2: C cold.
    auto warm = simulate(t, {2, 4}, false);
    expect(warm.size() == 3, "warm: three segments");
    expectMisses(warm[0], {2, 2, 2, 2, 2, 2, 2, 2}, "warm seg 0");
    expectMisses(warm[1], {2, 0, 0, 0, 0, 0, 0, 0}, "warm seg 1");
    expectMisses(warm[2], {1, 1, 1, 1, 1, 1, 1, 1}, "warm seg 2");
    // Reset: every segment starts empty, so segment 1 misses twice at
    // every associativity.
    auto cold = simulate(t, {2, 4}, true);
    expectMisses(cold[1], {2, 2, 2, 2, 2, 2, 2, 2}, "reset seg 1");
    expectMisses(cold[2], {1, 1, 1, 1, 1, 1, 1, 1}, "reset seg 2");
    // A cut at clock 0, a duplicate cut and a cut past the end give
    // empty segments.
    auto edge = simulate(t, {0, 3, 3, 9}, false);
    expect(edge.size() == 5, "edge cuts: five segments");
    expect(edge[0].accesses == 0 && edge[2].accesses == 0 &&
               edge[4].accesses == 0,
           "edge cuts: empty segments");
    expect(edge[1].accesses == 3 && edge[3].accesses == 2,
           "edge cuts: 3 + 2 accesses");
}

void
testStreamHash()
{
    StreamHash a, b, c, d;
    Addr batch[3] = {64, 128, 192};
    a.onBlock(7, 3);
    a.onAccessBatch(batch, 3);
    a.onManualMarker(1);
    // Same events, delivered one access at a time.
    b.onBlock(7, 3);
    for (Addr x : batch)
        b.onAccess(x);
    b.onManualMarker(1);
    expect(a.hash() == b.hash(), "hash: batching does not matter");
    expect(a.accesses() == 3 && a.blocks() == 1, "hash: counts");
    // Two accesses swapped.
    c.onBlock(7, 3);
    c.onAccess(128);
    c.onAccess(64);
    c.onAccess(192);
    c.onManualMarker(1);
    expect(c.hash() != a.hash(), "hash: order matters");
    // A block moved after the accesses.
    d.onAccessBatch(batch, 3);
    d.onBlock(7, 3);
    d.onManualMarker(1);
    expect(d.hash() != a.hash(), "hash: block position matters");
    StreamHash e, f;
    e.onBlock(7, 3);
    f.onBlock(7, 4);
    expect(e.hash() != f.hash(), "hash: instruction count matters");
}

} // namespace

int
main()
{
    testCyclicConflict();
    testLruOrder();
    testSetsAndLines();
    testSegments();
    testStreamHash();
    if (failures) {
        std::fprintf(stderr, "reference_test: %d check(s) failed\n",
                     failures);
        return 1;
    }
    std::printf("reference_test: all checks passed\n");
    return 0;
}
