/**
 * @file
 * Exact LRU stack (reuse) distance in near-linear time.
 *
 * The reuse distance of an access is the number of distinct data elements
 * touched since the previous access to the same element (Mattson et al.,
 * 1970). The classic near-linear algorithm keeps, for every element, the
 * time of its most recent access, and counts how many "most recent" times
 * fall after a given time — an order-statistics query over time slots.
 *
 * The slots are a rank bitmap (RankBitmap): one occupancy bit per time
 * slot plus 32-bit Fenwick counts over 64-slot words, about 1.5 bits per
 * slot, so the time axis of a stack with tens of thousands of live
 * elements sits in L2. When the time counter reaches the last slot the
 * stack compacts by rank: an element's new time is its rank among the
 * live marks, which keeps the order, needs one pass over the last-access
 * table and no sort, and leaves 16·D + 64 slots for D live elements — so
 * compactions come at most once per 15·D accesses, and memory stays
 * proportional to the distinct elements (about 3 bytes of slots per
 * element after a compaction) rather than to the trace length.
 *
 * The last-access table is the per-access hot probe; it uses the flat
 * robin-hood map (support/flat_map.hpp) instead of std::unordered_map so
 * a lookup is one array walk instead of a bucket pointer chase, and it
 * can be reserved ahead from a workload's address-space size.
 */

#ifndef LPP_REUSE_STACK_HPP
#define LPP_REUSE_STACK_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/flat_map.hpp"
#include "support/logging.hpp"

namespace lpp::reuse {

/**
 * Set of marked slots over [0, size()) with rank queries: one bit per
 * slot, plus a Fenwick (binary indexed) tree of per-word mark counts.
 * rank(i) is the Fenwick prefix over the words before slot i's word
 * plus a popcount inside that word, so set, clear and rank are
 * O(log(size / 64)).
 *
 * The highest word marked so far (the tail) is kept out of the Fenwick
 * counts until a mark lands in a later word. A reuse stack marks its
 * slots in increasing order, so marking the newest slot is one bit
 * operation (plus one Fenwick update per 64 slots), and a clear or
 * rank inside the tail word — a reuse of an element last touched in
 * the current 64-slot word — never touches the Fenwick counts.
 *
 * Counts are 32-bit: no node can count more marks than there are
 * slots, and the slot count is capped at maxSlots.
 */
class RankBitmap
{
  public:
    /** Largest supported slot count (keeps every count in 32 bits). */
    static constexpr size_t maxSlots = 0xFFFFFFFFu;

    /** @param slots number of slots, all initially clear. */
    explicit RankBitmap(size_t slots = 0) { fillPrefix(0, slots); }

    /** Mark slot `i`, which must be clear. */
    void
    set(size_t i)
    {
        LPP_DCHECK(i < slots && !test(i), "set of slot %zu (of %zu) "
                   "that is out of range or already marked", i, slots);
        size_t w = i >> 6;
        if (w > tail) {
            // Every word after the tail is empty: publish the tail's
            // count and make this word the new tail.
            addToWord(tail, std::popcount(words[tail]));
            tail = w;
        } else if (w < tail) {
            addToWord(w, 1);
        }
        words[w] |= uint64_t{1} << (i & 63);
        ++marked;
    }

    /** Unmark slot `i`, which must be marked. */
    void
    clear(size_t i)
    {
        LPP_DCHECK(i < slots && test(i), "clear of slot %zu (of %zu) "
                   "that is out of range or not marked", i, slots);
        size_t w = i >> 6;
        if (w != tail)
            addToWord(w, -1);
        words[w] &= ~(uint64_t{1} << (i & 63));
        --marked;
    }

    /** @return whether slot `i` is marked. */
    bool
    test(size_t i) const
    {
        return (words[i >> 6] >> (i & 63)) & 1;
    }

    /** @return number of marked slots in [0, i]. */
    uint64_t
    rank(size_t i) const
    {
        size_t w = i >> 6;
        if (w >= tail) {
            // Nothing is marked after the tail word.
            uint64_t above = w == tail ? words[w] & ~lowBits(i) : 0;
            return marked - static_cast<uint64_t>(std::popcount(above));
        }
        uint64_t r =
            static_cast<uint64_t>(std::popcount(words[w] & lowBits(i)));
        for (size_t k = w; k > 0; k -= k & (~k + 1))
            r += counts[k];
        return r;
    }

    /** @return number of slots. */
    size_t size() const { return slots; }

    /**
     * Resize to `n` slots with exactly slots [0, marks) marked; the
     * counts are rebuilt in one linear pass.
     */
    void fillPrefix(size_t marks, size_t n);

    /** Apply `fn(slot)` to every marked slot, in increasing order. */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (size_t w = 0; w < words.size(); ++w)
            for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1)
                fn((w << 6) + static_cast<size_t>(std::countr_zero(bits)));
    }

  private:
    /** @return the bits of slot i's word at or below slot i. */
    static uint64_t
    lowBits(size_t i)
    {
        return ~uint64_t{0} >> (63 - (i & 63));
    }

    void
    addToWord(size_t w, int delta)
    {
        for (size_t k = w + 1; k < counts.size(); k += k & (~k + 1))
            counts[k] += static_cast<uint32_t>(delta);
    }

    std::vector<uint64_t> words;
    std::vector<uint32_t> counts; //!< Fenwick over words, 1-based
    size_t tail = 0;              //!< highest word marked; not counted
    uint64_t marked = 0;
    size_t slots = 0;
};

/**
 * Exact reuse-distance tracker.
 *
 * access(e) returns the LRU stack distance of the access, or
 * ReuseStack::infinite for the first access to e. The tracker compacts
 * its time axis by rank whenever the running time counter fills the
 * bitmap; compaction is amortized O(1) per access because it leaves
 * 15·D + 64 free slots for D live elements.
 */
class ReuseStack
{
  public:
    /** Distance reported for cold (first) accesses. */
    static constexpr uint64_t infinite = ~0ULL;

    /** @param capacity_hint initial number of time slots. */
    explicit ReuseStack(size_t capacity_hint = 1u << 16);

    /**
     * Pre-size for a trace touching about `elements` distinct elements
     * (typically a workload's address-space size). Reserves the
     * last-access table and, while no history exists yet, widens the
     * time axis to the post-compaction size for that many elements so
     * the first compaction is pushed past the warm-up.
     */
    void reserveElements(size_t elements);

    /**
     * Record an access to `element`.
     * @return its reuse distance, or `infinite` if never seen before.
     */
    uint64_t access(uint64_t element);

    /**
     * Forget `element`, as if it had never been accessed.
     * @return the number of elements last accessed after it (the
     *         distance its next access would have had), or `infinite`
     *         if it was not tracked.
     */
    uint64_t remove(uint64_t element);

    /** @return number of distinct elements tracked. */
    uint64_t distinctCount() const { return lastTime.size(); }

    /**
     * Visit the last-access time of every tracked element, in
     * increasing order. Times are on the stack's internal (compacted)
     * axis; they equal access indices only while no compaction has
     * happened — guaranteed when the stack was constructed with a
     * capacity hint covering the whole access sequence, which is how
     * the sharded sweep's per-chunk stacks use this.
     */
    template <typename Fn>
    void
    forEachLastAccessTime(Fn &&fn) const
    {
        marks.forEachSet(fn);
    }

    /** @return total accesses processed. */
    uint64_t accessCount() const { return accesses; }

    /** Forget all history. */
    void reset();

  private:
    void compact();

    RankBitmap marks;
    support::FlatMap<uint64_t> lastTime;
    uint64_t now = 0;
    uint64_t accesses = 0;
};

} // namespace lpp::reuse

#endif // LPP_REUSE_STACK_HPP
