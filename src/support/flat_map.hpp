/**
 * @file
 * Open-addressing robin-hood hash map with 64-bit integer keys.
 *
 * The reuse-distance hot loop performs one last-access-table probe per
 * memory access; std::unordered_map pays a pointer chase and an
 * allocation per node there. This map stores entries in one flat array
 * with robin-hood displacement (an inserting entry evicts any resident
 * entry that is closer to its home slot), which bounds probe-length
 * variance and keeps lookups inside one or two cache lines. Deletion
 * uses backward shifting, so no tombstones accumulate.
 */

#ifndef LPP_SUPPORT_FLAT_MAP_HPP
#define LPP_SUPPORT_FLAT_MAP_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/logging.hpp"

namespace lpp::support {

/** Avalanching finalizer (splitmix64) — spreads sequential keys. */
constexpr uint64_t
mixHash(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Flat robin-hood map from uint64_t keys to `Value`.
 *
 * Capacity is a power of two; the table grows at 7/8 load or when a
 * probe sequence exceeds the displacement limit. Iteration order is
 * unspecified (use forEach); all references are invalidated by any
 * mutation.
 */
template <typename Value>
class FlatMap
{
  public:
    FlatMap() = default;

    /** @param expected number of keys to pre-size for. */
    explicit FlatMap(size_t expected) { reserve(expected); }

    /** @return number of stored keys. */
    size_t size() const { return count; }

    /** @return whether the map is empty. */
    bool empty() const { return count == 0; }

    /** Pre-size so `expected` keys insert without rehashing. */
    void
    reserve(size_t expected)
    {
        size_t needed = tableFor(expected);
        if (needed > slots.size())
            rehash(needed);
    }

    /** Remove every key; capacity is retained. */
    void
    clear()
    {
        for (auto &d : dist)
            d = kEmpty;
        count = 0;
    }

    /** @return pointer to the value of `key`, or nullptr. */
    Value *
    find(uint64_t key)
    {
        size_t i = findIndex(key);
        return i == kNotFound ? nullptr : &slots[i].second;
    }

    const Value *
    find(uint64_t key) const
    {
        size_t i = findIndex(key);
        return i == kNotFound ? nullptr : &slots[i].second;
    }

    /** @return whether `key` is present. */
    bool contains(uint64_t key) const { return findIndex(key) != kNotFound; }

    /**
     * Insert `(key, value)` if absent.
     * @return pointer to the stored value (new or pre-existing)
     */
    Value *
    insert(uint64_t key, Value value)
    {
        if (slots.empty() || (count + 1) * 8 > slots.size() * 7)
            rehash(tableFor(count + 1));
        return place(key, std::move(value), false);
    }

    /** Insert or overwrite. @return pointer to the stored value. */
    Value *
    assign(uint64_t key, Value value)
    {
        if (slots.empty() || (count + 1) * 8 > slots.size() * 7)
            rehash(tableFor(count + 1));
        return place(key, std::move(value), true);
    }

    /** @return reference to the value of `key`, default-inserting it. */
    Value &operator[](uint64_t key) { return *insert(key, Value{}); }

    /**
     * Remove `key` (backward-shift deletion).
     * @return whether the key was present
     */
    bool
    erase(uint64_t key)
    {
        size_t i = findIndex(key);
        if (i == kNotFound)
            return false;
        LPP_DCHECK(count > 0, "erase from an empty table");
        size_t mask = slots.size() - 1;
        size_t next = (i + 1) & mask;
        // Shift the displaced run left by one until a home slot (or an
        // empty slot) terminates it.
        while (dist[next] > 0 && dist[next] != kEmpty) {
            slots[i] = std::move(slots[next]);
            dist[i] = static_cast<uint8_t>(dist[next] - 1);
            i = next;
            next = (next + 1) & mask;
        }
        dist[i] = kEmpty;
        --count;
        return true;
    }

    /** Apply `f(key, value)` to every entry, in unspecified order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (size_t i = 0; i < slots.size(); ++i)
            if (dist[i] != kEmpty)
                f(slots[i].first, slots[i].second);
    }

    /** Same, with `value` mutable in place (keys stay fixed). */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (size_t i = 0; i < slots.size(); ++i)
            if (dist[i] != kEmpty)
                f(slots[i].first, slots[i].second);
    }

    /** @return current slot count (capacity). */
    size_t capacity() const { return slots.size(); }

  private:
    // dist[i]: probe distance of the entry in slot i (0 = home slot);
    // kEmpty marks a free slot. Probe distances are bounded by growth:
    // the table rehashes before any distance can reach kEmpty.
    static constexpr uint8_t kEmpty = 0xFF;
    static constexpr size_t kNotFound = ~size_t{0};
    static constexpr size_t kMinCapacity = 16;

    static size_t
    tableFor(size_t expected)
    {
        // Smallest power of two holding `expected` at <= 7/8 load.
        size_t cap = kMinCapacity;
        while (expected * 8 > cap * 7)
            cap <<= 1;
        return cap;
    }

    size_t
    findIndex(uint64_t key) const
    {
        if (slots.empty())
            return kNotFound;
        size_t mask = slots.size() - 1;
        size_t i = mixHash(key) & mask;
        uint8_t d = 0;
        for (;;) {
            if (dist[i] == kEmpty || dist[i] < d)
                return kNotFound; // robin hood: key would sit here
            if (slots[i].first == key)
                return i;
            i = (i + 1) & mask;
            ++d;
        }
    }

    Value *
    place(uint64_t key, Value value, bool overwrite)
    {
        LPP_DCHECK(!slots.empty() && (slots.size() & (slots.size() - 1)) == 0,
                   "table size %zu not a power of two", slots.size());
        LPP_DCHECK(count < slots.size(),
                   "placing into a full table of %zu", slots.size());
        size_t mask = slots.size() - 1;
        size_t i = mixHash(key) & mask;
        uint8_t d = 0;
        std::pair<uint64_t, Value> carry(key, std::move(value));
        Value *result = nullptr;
        for (;;) {
            if (dist[i] == kEmpty) {
                slots[i] = std::move(carry);
                dist[i] = d;
                ++count;
                return result ? result : &slots[i].second;
            }
            if (!result && slots[i].first == carry.first) {
                if (overwrite)
                    slots[i].second = std::move(carry.second);
                return &slots[i].second;
            }
            if (dist[i] < d) {
                // Rich entry found: displace it and keep probing with
                // the evicted entry (its key can never equal a later
                // resident key, so equality checks stop mattering).
                std::swap(carry, slots[i]);
                std::swap(d, dist[i]);
                if (!result)
                    result = &slots[i].second;
            }
            i = (i + 1) & mask;
            ++d;
            if (d == kEmpty) {
                // Pathological clustering: grow and restart with the
                // carried entry.
                size_t grown = slots.size() * 2;
                rehashWithCarry(grown, carry.first,
                                std::move(carry.second));
                return find(key);
            }
        }
    }

    void
    rehash(size_t new_capacity)
    {
        std::vector<std::pair<uint64_t, Value>> old_slots;
        std::vector<uint8_t> old_dist;
        old_slots.swap(slots);
        old_dist.swap(dist);
        slots.resize(new_capacity);
        dist.assign(new_capacity, kEmpty);
        count = 0;
        for (size_t i = 0; i < old_slots.size(); ++i)
            if (old_dist[i] != kEmpty)
                place(old_slots[i].first,
                      std::move(old_slots[i].second), false);
    }

    void
    rehashWithCarry(size_t new_capacity, uint64_t key, Value value)
    {
        rehash(new_capacity);
        place(key, std::move(value), false);
    }

    std::vector<std::pair<uint64_t, Value>> slots;
    std::vector<uint8_t> dist;
    size_t count = 0;
};

} // namespace lpp::support

#endif // LPP_SUPPORT_FLAT_MAP_HPP
