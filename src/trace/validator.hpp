/**
 * @file
 * Runtime validator for the TraceSink stream protocol.
 *
 * Batched access delivery (workloads::Emitter) made the event-stream
 * contract subtle: a producer that buffers accesses but forgets to
 * flush before a block or marker event silently reorders the stream,
 * and the analyses downstream compute wrong phase boundaries instead
 * of crashing. ValidatingSink is a decorator that sits between a
 * producer and any downstream sink and enforces the contract:
 *
 *  - pending access batches are flushed before every non-access event
 *    (checked against registered BatchSource producers);
 *  - per-block instruction counts lie inside a configured band;
 *  - block IDs lie inside the workload's registered range;
 *  - access addresses fall inside the declared address space;
 *  - onEnd fires exactly once and is terminal.
 *
 * Violations are recorded (bounded) and optionally escalate to panic;
 * tests assert ok() after end-to-end runs of every workload.
 */

#ifndef LPP_TRACE_VALIDATOR_HPP
#define LPP_TRACE_VALIDATOR_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/sink.hpp"
#include "trace/types.hpp"

namespace lpp::trace {

/**
 * Producer-side view of unflushed batched accesses. Batching producers
 * (workloads::Emitter) implement this so a ValidatingSink can verify
 * that nothing is buffered when a non-access event arrives.
 */
class BatchSource
{
  public:
    virtual ~BatchSource() = default;

    /** @return accesses buffered but not yet delivered to the sink. */
    virtual size_t pendingAccesses() const = 0;
};

/** Tuning knobs for ValidatingSink. */
struct ValidatorConfig
{
    /** Sentinel: no block-ID limit configured. */
    static constexpr BlockId noBlockLimit = ~BlockId{0};

    /** Valid block IDs are [0, blockLimit); noBlockLimit disables. */
    BlockId blockLimit = noBlockLimit;

    /** Minimum instructions a block execution may retire. */
    uint32_t minBlockInstructions = 1;

    /** Maximum instructions a block execution may retire. */
    uint32_t maxBlockInstructions = 1u << 20;

    /** Violations stored verbatim; later ones only counted. */
    size_t maxRecorded = 64;
};

/** Decorator that validates the event stream and forwards it. */
class ValidatingSink : public TraceSink
{
  public:
    /** Contract clause a violation offends. */
    enum class Kind
    {
        UnflushedBatch,        //!< non-access event with buffered accesses
        BlockOutOfRange,       //!< block ID outside the registered range
        InstructionsOutOfRange, //!< instruction count outside the band
        AddressOutOfRange,     //!< access outside the declared space
        EventAfterEnd,         //!< any event following onEnd
        DoubleEnd,             //!< second onEnd
    };

    /** One recorded contract violation. */
    struct Violation
    {
        Kind kind;            //!< offended clause
        uint64_t eventIndex;  //!< 0-based index of the offending event
        std::string message;  //!< human-readable description
    };

    /**
     * @param downstream sink receiving the (unmodified) stream; may be
     *        nullptr to validate without forwarding
     * @param cfg_ validation limits
     */
    explicit ValidatingSink(TraceSink *downstream = nullptr,
                            ValidatorConfig cfg_ = {});

    /**
     * Declare [lo, hi) as valid access addresses. With no declared
     * range every address is accepted; with at least one, any access
     * outside all of them is a violation.
     */
    void allowRange(Addr lo, Addr hi);

    /** Valid block IDs become [0, limit). */
    void setBlockLimit(BlockId limit) { cfg.blockLimit = limit; }

    /**
     * Register a batching producer to be checked for unflushed
     * accesses at every non-access event. workloads::Emitter registers
     * itself automatically when constructed over a ValidatingSink.
     */
    void watch(const BatchSource *source);

    /** Unregister a producer (its buffers are no longer checked). */
    void unwatch(const BatchSource *source);

    // TraceSink interface --------------------------------------------

    void onBlock(BlockId block, uint32_t instructions) override;
    void onAccess(Addr addr) override;
    void onAccessBatch(const Addr *addrs, size_t n) override;
    void onManualMarker(uint32_t marker_id) override;
    void onPhaseMarker(PhaseId phase) override;
    void onEnd() override;

    // Violation report API -------------------------------------------

    /** @return whether the stream has been contract-clean so far. */
    bool ok() const { return total == 0; }

    /** @return violations seen, including ones beyond maxRecorded. */
    uint64_t totalViolations() const { return total; }

    /** @return recorded violations (first cfg.maxRecorded). */
    const std::vector<Violation> &violations() const { return recorded; }

    /** @return violations of one kind. */
    uint64_t countOf(Kind kind) const;

    /** @return events observed (batch = one event). */
    uint64_t eventsSeen() const { return events; }

    /** @return whether onEnd has been observed. */
    bool ended() const { return endSeen; }

    /** @return a multi-line report of every recorded violation. */
    std::string reportText() const;

    /** @return short name of a violation kind. */
    static const char *kindName(Kind kind);

  private:
    void checkFlushed(const char *event);
    void checkLive(const char *event);
    void checkAddress(Addr addr);
    void violate(Kind kind, std::string message);

    TraceSink *next;
    ValidatorConfig cfg;
    std::vector<std::pair<Addr, Addr>> ranges; //!< sorted, disjoint
    bool rangesSorted = true;
    std::vector<const BatchSource *> watched;
    std::vector<Violation> recorded;
    uint64_t counts[6] = {};
    uint64_t total = 0;
    uint64_t events = 0;
    bool endSeen = false;
};

} // namespace lpp::trace

#endif // LPP_TRACE_VALIDATOR_HPP
