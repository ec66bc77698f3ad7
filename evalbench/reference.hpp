/**
 * @file
 * Reference computations the benchmark checks the library against.
 *
 * Both are written from the definitions, share no code with the
 * library, and are small enough to verify by hand (reference_test.cpp
 * does, on hand-worked traces):
 *
 *  - NaiveLru: one plain LRU cache per associativity 1..8 (512 sets,
 *    64-byte lines, the paper's 32 KB..256 KB sweep). It does not use
 *    the stack-inclusion property the library's Mattson simulator is
 *    built on, so agreement between the two is evidence for both.
 *    Miss counts are collected per segment between caller-given
 *    access clocks, and the caches are either kept warm across each
 *    cut (as a machine's cache would be across a phase boundary) or
 *    emptied at each cut (in-isolation measurement of a range).
 *  - StreamHash: an order-sensitive hash and access count of an event
 *    stream (blocks, data accesses, manual markers). Access batches
 *    hash exactly like the same accesses delivered one by one, so a
 *    live run and a replay agree whatever their batching.
 */

#ifndef LPP_EVALBENCH_REFERENCE_HPP
#define LPP_EVALBENCH_REFERENCE_HPP

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "trace/sink.hpp"

namespace evalbench {

/** Associativities simulated together (ways 1..maxWays). */
constexpr uint32_t maxWays = 8;

/** Miss counts of one segment at every associativity. */
struct NaiveSegment
{
    uint64_t accesses = 0;
    std::array<uint64_t, maxWays> misses{}; //!< ways 1..maxWays
};

/** Eight independent LRU caches driven by one access stream. */
class NaiveLru : public lpp::trace::TraceSink
{
  public:
    /**
     * @param cuts access clocks (ascending) at which a segment closes;
     *        accesses [0, cuts[0]) form segment 0 and the accesses
     *        after the last cut form the final segment
     * @param reset_at_cut empty every cache at each cut
     */
    explicit NaiveLru(std::vector<uint64_t> cuts = {},
                      bool reset_at_cut = false)
        : cutList(std::move(cuts)), resetAtCut(reset_at_cut)
    {
        for (uint32_t w = 1; w <= maxWays; ++w) {
            lines[w - 1].assign(static_cast<size_t>(sets) * w, 0);
            used[w - 1].assign(sets, 0);
        }
    }

    void
    onAccess(lpp::trace::Addr addr) override
    {
        while (next < cutList.size() && clock == cutList[next]) {
            closeSegment();
            ++next;
        }
        ++clock;
        ++current.accesses;
        const uint64_t line = addr / lineBytes;
        const size_t set = static_cast<size_t>(line % sets);
        const uint64_t tag = line / sets;
        for (uint32_t w = 1; w <= maxWays; ++w) {
            uint64_t *ways = &lines[w - 1][set * w];
            uint32_t &n = used[w - 1][set];
            // Find the tag; MRU is ways[0].
            uint32_t pos = n;
            for (uint32_t i = 0; i < n; ++i)
                if (ways[i] == tag) {
                    pos = i;
                    break;
                }
            if (pos == n) {
                ++current.misses[w - 1];
                if (n < w)
                    ++n; // fill an empty way
                pos = n - 1; // else evict the LRU line
            }
            for (uint32_t i = pos; i > 0; --i)
                ways[i] = ways[i - 1];
            ways[0] = tag;
        }
    }

    void
    onAccessBatch(const lpp::trace::Addr *addrs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            onAccess(addrs[i]);
    }

    /** Close the open segment and every cut not yet reached. */
    void
    onEnd() override
    {
        if (ended)
            return;
        ended = true;
        for (; next < cutList.size(); ++next)
            closeSegment();
        closeSegment();
    }

    /** @return the segments (complete after onEnd: cuts.size() + 1). */
    const std::vector<NaiveSegment> &segments() const { return done; }

  private:
    static constexpr uint64_t sets = 512;
    static constexpr uint64_t lineBytes = 64;

    void
    closeSegment()
    {
        done.push_back(current);
        current = NaiveSegment{};
        if (resetAtCut)
            for (auto &u : used)
                std::fill(u.begin(), u.end(), 0);
    }

    std::vector<uint64_t> cutList;
    bool resetAtCut;
    std::array<std::vector<uint64_t>, maxWays> lines; //!< [set][way]
    std::array<std::vector<uint32_t>, maxWays> used;  //!< valid ways
    size_t next = 0;
    uint64_t clock = 0;
    bool ended = false;
    NaiveSegment current;
    std::vector<NaiveSegment> done;
};

/** Order-sensitive hash and access count of an event stream. */
class StreamHash : public lpp::trace::TraceSink
{
  public:
    void
    onBlock(lpp::trace::BlockId block, uint32_t instructions) override
    {
        mix(1);
        mix((static_cast<uint64_t>(block) << 32) | instructions);
        ++blockCount;
    }

    void
    onAccess(lpp::trace::Addr addr) override
    {
        mix(2);
        mix(addr);
        ++accessCount;
    }

    void
    onAccessBatch(const lpp::trace::Addr *addrs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            onAccess(addrs[i]);
    }

    void
    onManualMarker(uint32_t marker_id) override
    {
        mix(3);
        mix(marker_id);
    }

    uint64_t hash() const { return h; }
    uint64_t accesses() const { return accessCount; }
    uint64_t blocks() const { return blockCount; }

  private:
    void
    mix(uint64_t v)
    {
        h = (h ^ v) * 0x100000001b3ULL;
        h ^= h >> 29;
    }

    uint64_t h = 0xcbf29ce484222325ULL;
    uint64_t accessCount = 0;
    uint64_t blockCount = 0;
};

} // namespace evalbench

#endif // LPP_EVALBENCH_REFERENCE_HPP
