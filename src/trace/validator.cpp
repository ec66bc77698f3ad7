#include "trace/validator.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "support/logging.hpp"

namespace lpp::trace {

namespace {

/** snprintf into a std::string (messages are short). */
template <typename... Args>
std::string
format(const char *fmt, Args... args)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
}

} // namespace

ValidatingSink::ValidatingSink(TraceSink *downstream, ValidatorConfig cfg_)
    : next(downstream), cfg(cfg_)
{
}

void
ValidatingSink::allowRange(Addr lo, Addr hi)
{
    LPP_REQUIRE(lo < hi, "empty address range [%llu, %llu)",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi));
    ranges.emplace_back(lo, hi);
    rangesSorted = false;
}

void
ValidatingSink::watch(const BatchSource *source)
{
    if (std::find(watched.begin(), watched.end(), source) == watched.end())
        watched.push_back(source);
}

void
ValidatingSink::unwatch(const BatchSource *source)
{
    watched.erase(std::remove(watched.begin(), watched.end(), source),
                  watched.end());
}

void
ValidatingSink::onBlock(BlockId block, uint32_t instructions)
{
    checkLive("onBlock");
    checkFlushed("onBlock");
    if (cfg.blockLimit != ValidatorConfig::noBlockLimit &&
        block >= cfg.blockLimit) {
        violate(Kind::BlockOutOfRange,
                format("block %u outside registered range [0, %u)", block,
                       cfg.blockLimit));
    }
    if (instructions < cfg.minBlockInstructions ||
        instructions > cfg.maxBlockInstructions) {
        violate(Kind::InstructionsOutOfRange,
                format("block %u retired %u instructions, outside [%u, %u]",
                       block, instructions, cfg.minBlockInstructions,
                       cfg.maxBlockInstructions));
    }
    ++events;
    if (next)
        next->onBlock(block, instructions);
}

void
ValidatingSink::onAccess(Addr addr)
{
    checkLive("onAccess");
    checkAddress(addr);
    ++events;
    if (next)
        next->onAccess(addr);
}

void
ValidatingSink::onAccessBatch(const Addr *addrs, size_t n)
{
    checkLive("onAccessBatch");
    for (size_t i = 0; i < n; ++i)
        checkAddress(addrs[i]);
    ++events;
    if (next)
        next->onAccessBatch(addrs, n);
}

void
ValidatingSink::onManualMarker(uint32_t marker_id)
{
    checkLive("onManualMarker");
    checkFlushed("onManualMarker");
    ++events;
    if (next)
        next->onManualMarker(marker_id);
}

void
ValidatingSink::onPhaseMarker(PhaseId phase)
{
    checkLive("onPhaseMarker");
    checkFlushed("onPhaseMarker");
    ++events;
    if (next)
        next->onPhaseMarker(phase);
}

void
ValidatingSink::onEnd()
{
    if (endSeen) {
        violate(Kind::DoubleEnd, "onEnd fired twice");
        ++events;
        return; // not forwarded: downstream saw a terminal end already
    }
    checkFlushed("onEnd");
    endSeen = true;
    ++events;
    if (next)
        next->onEnd();
}

uint64_t
ValidatingSink::countOf(Kind kind) const
{
    return counts[static_cast<size_t>(kind)];
}

std::string
ValidatingSink::reportText() const
{
    if (total == 0)
        return "trace protocol: clean (" + std::to_string(events) +
               " events)";
    std::string out = "trace protocol: " + std::to_string(total) +
                      " violation(s) in " + std::to_string(events) +
                      " events\n";
    for (const auto &v : recorded) {
        out += format("  [%s] event %" PRIu64 ": ", kindName(v.kind),
                      v.eventIndex);
        out += v.message;
        out += '\n';
    }
    if (total > recorded.size())
        out += format("  ... %" PRIu64 " more not recorded\n",
                      total - recorded.size());
    return out;
}

const char *
ValidatingSink::kindName(Kind kind)
{
    switch (kind) {
      case Kind::UnflushedBatch:
        return "unflushed-batch";
      case Kind::BlockOutOfRange:
        return "block-out-of-range";
      case Kind::InstructionsOutOfRange:
        return "instructions-out-of-range";
      case Kind::AddressOutOfRange:
        return "address-out-of-range";
      case Kind::EventAfterEnd:
        return "event-after-end";
      case Kind::DoubleEnd:
        return "double-end";
    }
    return "unknown";
}

void
ValidatingSink::checkFlushed(const char *event)
{
    for (const BatchSource *src : watched) {
        size_t pending = src->pendingAccesses();
        if (pending > 0) {
            violate(Kind::UnflushedBatch,
                    format("%s arrived with %zu buffered access(es) not "
                           "yet flushed",
                           event, pending));
        }
    }
}

void
ValidatingSink::checkLive(const char *event)
{
    if (endSeen)
        violate(Kind::EventAfterEnd,
                format("%s fired after onEnd", event));
}

void
ValidatingSink::checkAddress(Addr addr)
{
    if (ranges.empty())
        return;
    if (!rangesSorted) {
        std::sort(ranges.begin(), ranges.end());
        rangesSorted = true;
    }
    // First range starting after addr; the candidate is its predecessor.
    auto it = std::upper_bound(
        ranges.begin(), ranges.end(), addr,
        [](Addr a, const std::pair<Addr, Addr> &r) { return a < r.first; });
    if (it == ranges.begin() || addr >= (it - 1)->second) {
        violate(Kind::AddressOutOfRange,
                format("access to %#llx outside the declared address space",
                       static_cast<unsigned long long>(addr)));
    }
}

void
ValidatingSink::violate(Kind kind, std::string message)
{
    ++counts[static_cast<size_t>(kind)];
    ++total;
    if (recorded.size() < cfg.maxRecorded)
        recorded.push_back(Violation{kind, events, std::move(message)});
}

} // namespace lpp::trace
