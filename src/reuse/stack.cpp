#include "reuse/stack.hpp"

#include <algorithm>

namespace lpp::reuse {

namespace {

/** Slots left after compacting to `live` elements: 15·live + 64 free. */
size_t
slotsFor(size_t live)
{
    LPP_REQUIRE(live <= (RankBitmap::maxSlots - 64) / 16,
                "reuse stack of %zu live elements exceeds the rank "
                "bitmap's %zu slots",
                live, RankBitmap::maxSlots);
    return 16 * live + 64;
}

} // namespace

void
RankBitmap::fillPrefix(size_t marks, size_t n)
{
    LPP_REQUIRE(marks <= n && n <= maxSlots,
                "rank bitmap of %zu marks over %zu slots", marks, n);
    slots = n;
    marked = marks;
    tail = marks == 0 ? 0 : (marks - 1) / 64;
    words.assign((n + 63) / 64, 0);
    std::fill_n(words.begin(), marks / 64, ~uint64_t{0});
    if (marks % 64 != 0)
        words[marks / 64] = (uint64_t{1} << (marks % 64)) - 1;
    // Linear Fenwick build over every word before the tail: each node
    // pushes its total to its parent.
    counts.assign(words.size() + 1, 0);
    for (size_t k = 1; k < counts.size(); ++k) {
        if (k - 1 < tail)
            counts[k] += static_cast<uint32_t>(std::popcount(words[k - 1]));
        size_t parent = k + (k & (~k + 1));
        if (parent < counts.size())
            counts[parent] += counts[k];
    }
}

ReuseStack::ReuseStack(size_t capacity_hint)
    : marks(std::max<size_t>(capacity_hint, 64))
{
}

void
ReuseStack::reserveElements(size_t elements)
{
    lastTime.reserve(elements);
    size_t want = slotsFor(elements);
    if (now == 0 && lastTime.empty() && want > marks.size())
        marks = RankBitmap(want);
}

uint64_t
ReuseStack::access(uint64_t element)
{
    if (now >= marks.size())
        compact();

    ++accesses;
    uint64_t dist = infinite;
    uint64_t *slot = lastTime.find(element);
    if (slot) {
        uint64_t prev = *slot;
        LPP_DCHECK(prev < now, "last-access time %llu not before now %llu",
                   static_cast<unsigned long long>(prev),
                   static_cast<unsigned long long>(now));
        // Distinct elements touched strictly after prev: marks in
        // (prev, now). The mark at prev is this element's own.
        dist = lastTime.size() - marks.rank(prev);
        marks.clear(prev);
        *slot = now;
    } else {
        lastTime.insert(element, now);
    }
    marks.set(now);
    ++now;
    return dist;
}

uint64_t
ReuseStack::remove(uint64_t element)
{
    uint64_t *slot = lastTime.find(element);
    if (!slot)
        return infinite;
    uint64_t after = lastTime.size() - marks.rank(*slot);
    marks.clear(*slot);
    lastTime.erase(element);
    return after;
}

void
ReuseStack::compact()
{
    // Renumber by rank: the k-th oldest live mark moves to time k - 1,
    // which keeps every element's relative order (all a distance
    // query sees) while packing the live marks into [0, D).
    const size_t live = lastTime.size();
    lastTime.forEach([this](uint64_t, uint64_t &time) {
        LPP_DCHECK(marks.test(time), "element without a mark at %llu",
                   static_cast<unsigned long long>(time));
        time = marks.rank(time) - 1;
    });
    marks.fillPrefix(live, slotsFor(live));
    now = live;
}

void
ReuseStack::reset()
{
    marks.fillPrefix(0, marks.size());
    lastTime.clear();
    now = 0;
    accesses = 0;
}

} // namespace lpp::reuse
