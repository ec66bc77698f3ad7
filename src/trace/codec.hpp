/**
 * @file
 * The predictive frame codec for trace event streams.
 *
 * Workload address streams are not just local, they are
 * *predictable*: the same static reference (block, operand slot) walks
 * an affine sequence, so a per-(block, lane) value predictor — a Value
 * Prediction Table holding the last address and a short stride
 * history, classified by a saturating-confidence table — guesses most
 * addresses outright. The encoder then spends one bitmap *bit* per
 * predicted access and emits varint residue only for mispredictions.
 * Streams are cut into frames of about a million accesses; each frame
 * stores the codec seeds it starts from and resets the predictor
 * tables, so any frame decodes independently of the others (random
 * access for sharded replay) while staying bit-exact end to end.
 *
 * A frame payload is three consecutive sections:
 *   events  — one opcode byte per event; Block carries
 *             zigzag(block delta) + varint(instructions), Batch
 *             carries varint(length), Manual/Phase carry varint(id).
 *             Access and Batch carry *no* address bytes.
 *   bitmap  — one bit per data access, LSB-first: 1 = the predictor's
 *             guess was the address, 0 = read a residue.
 *   residue — zigzag varint of (address − predicted) per 0-bit.
 * Both sides run the identical predictor in lockstep, so the decoder
 * reconstructs every address from the bit stream alone; the 4-wide
 * unrolled fast path turns four consecutive 1-bits into four
 * predictor steps with no byte decoding at all.
 *
 * Sealing additionally runs each section through a byte-level LZ pass
 * (lzPack below). The event section is the big winner — workload
 * loops emit near-identical (Block, Batch) byte groups millions of
 * times — and a well-predicted stream's bitmap is runs of 0xFF bytes.
 * A section that does not shrink is stored raw; FrameInfo records both
 * the logical and the stored size per section, and stored == logical
 * means raw. Decoding unpacks into reused per-cursor buffers
 * (unpackFrame), so the bounded-replay working set stays one frame.
 *
 * Encoding preserves the stream exactly, including access-batch
 * boundaries; FrameDecoder is strict — any malformed byte stops the
 * decode with an error, never with out-of-bounds reads.
 */

#ifndef LPP_TRACE_CODEC_HPP
#define LPP_TRACE_CODEC_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/sink.hpp"
#include "trace/types.hpp"

namespace lpp::trace {

/** Event opcodes of the encoded stream (one byte each). */
enum class TraceOp : uint8_t
{
    Block = 0,  //!< zigzag(blockId delta), varint(instructions)
    Access = 1, //!< no operands (address in bitmap/residue)
    Batch = 2,  //!< varint(n) only (addresses in bitmap/residue)
    Manual = 3, //!< varint(marker id)
    Phase = 4,  //!< varint(phase id)
    End = 5,    //!< no operands
};

/**
 * 64-bit content hash (FNV-1a over 8-byte lanes with a finalizing
 * avalanche); verifies stored payloads against bit rot and truncation.
 */
uint64_t contentHash64(const uint8_t *data, size_t size);

// Byte-level LZ section transform -----------------------------------

/**
 * Greedy LZ with a 64 KiB window (hash-chained 4-byte anchors), in the
 * token-stream style of the LZ4 block format: a token byte splits into
 * a literal-run length and a match length (15 escapes to 255-extension
 * bytes), followed by the literals, a 2-byte little-endian match
 * offset, and nothing else — the decoder knows the exact output size
 * up front, so the final sequence simply omits the match.
 *
 * Appends the packed bytes to `out` and returns the packed size, or
 * returns 0 having left `out` untouched when packing would not shrink
 * the input (the caller stores such a section raw).
 */
size_t lzPack(const uint8_t *src, size_t n, std::vector<uint8_t> &out);

/**
 * Strict inverse of lzPack: unpack exactly `dst_bytes` bytes. Every
 * read and copy is bounds-checked; returns false on any malformed
 * token, offset past the produced prefix, or output-size mismatch —
 * never reads or writes out of bounds.
 */
bool lzUnpack(const uint8_t *src, size_t n, uint8_t *dst,
              size_t dst_bytes);

// Predictive frame codec -------------------------------------------

/** Geometry of the address predictor both codec sides run. */
struct PredictorConfig
{
    /** log2 of Value Prediction Table entries. */
    uint32_t tableBits = 14;

    /**
     * log2 of distinct predictor lanes per block: the i-th access
     * since the last block event selects lane min(i, 2^laneBits − 1),
     * so each static reference slot trains its own stride history and
     * long runs share a steady-state lane.
     */
    uint32_t laneBits = 6;

    /** Stride-history depth per entry (1..maxHistoryDepth). */
    uint32_t historyDepth = 4;

    bool
    operator==(const PredictorConfig &o) const
    {
        return tableBits == o.tableBits && laneBits == o.laneBits &&
               historyDepth == o.historyDepth;
    }

    /** @return whether the geometry is implementable. */
    bool valid() const;
};

/** Codec state a frame starts from, recorded per frame so any frame
 *  decodes without touching its predecessors. */
struct FrameSeeds
{
    uint64_t prevAddr = 0;  //!< delta-chain fallback predecessor
    uint64_t prevBlock = 0; //!< block-id delta chain
    uint64_t ctxBlock = 0;  //!< predictor block context
    uint64_t ctxLane = 0;   //!< accesses since the last block event

    bool
    operator==(const FrameSeeds &o) const
    {
        return prevAddr == o.prevAddr && prevBlock == o.prevBlock &&
               ctxBlock == o.ctxBlock && ctxLane == o.ctxLane;
    }
};

/** Frame directory entry: where the frame sits in the stream, how its
 *  payload splits into sections, and the hash guarding it on disk. */
struct FrameInfo
{
    uint64_t firstEvent = 0;  //!< global index of the first event
    uint64_t firstAccess = 0; //!< accesses recorded before the frame
    uint64_t events = 0;      //!< events in the frame (batch = one)
    uint64_t accesses = 0;    //!< data accesses in the frame
    uint64_t eventBytes = 0;  //!< logical section sizes, in order
    uint64_t bitmapBytes = 0;
    uint64_t residueBytes = 0;
    /** Bytes each section occupies in the payload: equal to the
     *  logical size when stored raw, smaller when LZ-packed. */
    uint64_t storedEventBytes = 0;
    uint64_t storedBitmapBytes = 0;
    uint64_t storedResidueBytes = 0;
    uint64_t payloadHash = 0; //!< contentHash64 of the stored payload
    FrameSeeds seeds;         //!< codec state at frame start

    /** @return stored payload size (what memory and disk hold). */
    uint64_t
    payloadBytes() const
    {
        return storedEventBytes + storedBitmapBytes +
               storedResidueBytes;
    }
};

/**
 * One frame's sections, unpacked and ready for FrameDecoder: pointers
 * into the payload for raw sections, into reused private buffers for
 * LZ-packed ones. Reuse one FrameSections across frames so a long
 * replay allocates its decode buffers once.
 */
struct FrameSections
{
    const uint8_t *events = nullptr;
    const uint8_t *bitmap = nullptr;
    const uint8_t *residue = nullptr;
    std::vector<uint8_t> scratch[3]; //!< backing for packed sections
};

/**
 * Resolve a frame's stored payload into decodable sections. `payload`
 * must hold info.payloadBytes() bytes. Returns false if an LZ-packed
 * section fails to unpack to its logical size (corrupt frame); the
 * caller decides whether that is a clean cache miss (file data) or an
 * invariant violation (in-memory data).
 */
bool unpackFrame(const FrameInfo &info, const uint8_t *payload,
                 FrameSections &out);

/** Same, but from three separately-stored section pointers (the
 *  in-memory frame views, whose open frame is not contiguous). */
bool unpackFrame(const FrameInfo &info, const uint8_t *events,
                 const uint8_t *bitmap, const uint8_t *residue,
                 FrameSections &out);

/**
 * The value predictor both codec sides run in lockstep: a Value
 * Prediction Table of (last address, stride-history ring) entries
 * keyed by (block context, access lane), classified by a 2-bit
 * saturating confidence counter per entry. Prediction is last-value
 * at low confidence and last + chosen-history-stride otherwise; a
 * cold entry falls back to the running previous address, which makes
 * the worst case a plain delta chain. The matched stride slot is
 * remembered as `chosen`, and because updates push the observed
 * stride to the ring's front, slot k keeps predicting stride patterns
 * of period k+1 (constant strides at k = 0, alternating pairs at
 * k = 1, ...).
 *
 * Each entry additionally classifies a *cross-lane* mode: the delta
 * from the immediately preceding access of the stream, whatever lane
 * it belonged to. Derived references — b[i] read right after a[i], or
 * x[k+1] right after x[k] — have a constant cross-lane delta even
 * when their own last-value stride is data-dependent random, so when
 * the cross-lane confidence beats the stride confidence the entry
 * predicts prevAddr + prevDelta instead.
 *
 * Determinism is the contract: a prediction depends only on the
 * stream prefix already trained on, so encoder and decoder agree bit
 * for bit.
 */
class AddressPredictor
{
  public:
    static constexpr uint32_t maxHistoryDepth = 4;

    explicit AddressPredictor(const PredictorConfig &cfg);

    /** Clear every table entry and restart from `seeds` (O(1): entries
     *  are epoch-stamped, not rewritten). */
    void reset(const FrameSeeds &seeds);

    /** A block event: switch context and rewind the lane counter. */
    void
    observeBlock(BlockId block)
    {
        ctxBlock = block;
        ctxLane = 0;
    }

    /**
     * One access, with one table lookup: `resolve(predicted, actual)`
     * sets `actual` from the prediction (the decoder) or leaves the
     * known address there (the encoder), then the predictor trains on
     * `actual` and advances the lane. If `resolve` returns false the
     * predictor is left unchanged and step() returns false.
     */
    template <typename Resolve>
    bool
    step(Resolve &&resolve, Addr &actual)
    {
        Entry &e = table[index()];
        if (!resolve(predictFrom(e), actual))
            return false;
        train(e, actual);
        return true;
    }

    /** @return the current codec seeds (for sealing a frame). */
    FrameSeeds
    seeds() const
    {
        return FrameSeeds{prevAddr, 0, ctxBlock, ctxLane};
    }

  private:
    struct Entry
    {
        uint64_t last = 0;
        int64_t strides[maxHistoryDepth] = {};
        int64_t prevDelta = 0; //!< cross-lane: addr − preceding addr
        uint32_t epoch = 0;
        uint8_t filled = 0;
        uint8_t conf = 0;
        uint8_t chosen = 0;
        uint8_t prevConf = 0; //!< cross-lane mode confidence
    };

    size_t index() const;
    Addr predictFrom(const Entry &e) const;
    void train(Entry &e, Addr actual);

    std::vector<Entry> table;
    uint32_t epoch = 1;
    uint32_t laneCap;
    uint32_t depth;
    uint32_t indexShift;
    uint64_t prevAddr = 0;
    uint64_t ctxBlock = 0;
    uint64_t ctxLane = 0;
};

/**
 * Builds one frame's three sections as events arrive. The owner
 * (StreamingTrace) decides when to seal; seal() emits the
 * concatenated payload plus its FrameInfo and resets the builder to
 * start the next frame from the current codec state.
 */
class FrameEncoder
{
  public:
    explicit FrameEncoder(const PredictorConfig &cfg);

    void onBlock(BlockId block, uint32_t instructions);
    void onAccess(Addr addr);
    void onAccessBatch(const Addr *addrs, size_t n);
    void onManualMarker(uint32_t marker_id);
    void onPhaseMarker(PhaseId phase);
    void onEnd();

    /** @return events appended to the open frame. */
    uint64_t events() const { return eventCnt; }

    /** @return data accesses appended to the open frame. */
    uint64_t accesses() const { return accessCnt; }

    /** @return whether the open frame holds no events. */
    bool empty() const { return eventCnt == 0; }

    /** @return bytes currently held by the open frame's sections. */
    size_t
    sectionBytes() const
    {
        return eventSec.size() + bitmapSec.size() + residueSec.size();
    }

    /** @return heap capacity of the builder, for memory accounting. */
    size_t
    capacityBytes() const
    {
        return eventSec.capacity() + bitmapSec.capacity() +
               residueSec.capacity();
    }

    /**
     * Close the open frame: fill `info` (section sizes, counts, seeds,
     * payload hash — the caller assigns the global offsets), move the
     * concatenated payload into `payload`, and reset for the next
     * frame, which inherits the current codec state as its seeds.
     */
    void seal(FrameInfo &info, std::vector<uint8_t> &payload);

    /** Describe the open frame without sealing it: fills `info` and
     *  copies the payload (used when persisting a live recording). */
    void materialize(FrameInfo &info,
                     std::vector<uint8_t> &payload) const;

    /** Section views for decoding the open frame in place. Invalidated
     *  by any subsequent append. */
    const std::vector<uint8_t> &eventSection() const { return eventSec; }
    const std::vector<uint8_t> &bitmapSection() const { return bitmapSec; }
    const std::vector<uint8_t> &residueSection() const
    {
        return residueSec;
    }

    /** @return the codec seeds the open frame started from. */
    const FrameSeeds &startSeeds() const { return start; }

    /** Drop all state and restart the stream from scratch. */
    void restart();

  private:
    void putVarint(std::vector<uint8_t> &out, uint64_t v);
    void appendAccess(Addr addr);
    void fillInfo(FrameInfo &info) const;

    AddressPredictor predictor;
    std::vector<uint8_t> eventSec;
    std::vector<uint8_t> bitmapSec;
    std::vector<uint8_t> residueSec;
    FrameSeeds start;
    uint64_t prevBlock = 0;
    uint64_t eventCnt = 0;
    uint64_t accessCnt = 0;
    uint64_t bitCnt = 0;
};

/**
 * Resumable decoder over one frame. Bind it to a frame's sections
 * with begin(), then pull events one at a time; pass a null sink to
 * skip events (codec state still advances — how a cursor seeks into
 * the middle of a frame). Strict and allocation-bounded: every read
 * is bounds-checked, a corrupt batch length cannot allocate more than
 * the frame's declared access count, and any inconsistency surfaces
 * as Error, never as undefined behavior.
 */
class FrameDecoder
{
  public:
    enum class Status
    {
        Event, //!< one event decoded (and delivered, if sink != null)
        Done,  //!< frame fully decoded and internally consistent
        Error, //!< malformed frame; stream state is unusable
    };

    explicit FrameDecoder(const PredictorConfig &cfg);

    /** Bind to a frame. The section pointers must stay valid until the
     *  frame is done; `info`'s counts bound every allocation. */
    void begin(const FrameInfo &info, const uint8_t *events,
               const uint8_t *bitmap, const uint8_t *residue);

    /** Decode the next event into `sink` (or skip it when null),
     *  buffering batch addresses in `scratch`. */
    Status next(TraceSink *sink, std::vector<Addr> &scratch);

    /** @return events decoded so far in this frame. */
    uint64_t eventsDecoded() const { return evDone; }

    /** @return accesses decoded so far in this frame. */
    uint64_t accessesDecoded() const { return accDone; }

  private:
    bool readBit(bool &bit);
    bool decodeAddr(Addr &addr);
    bool decodeRun(Addr *dst, uint64_t n);

    AddressPredictor predictor;
    const uint8_t *ev = nullptr, *evEnd = nullptr;
    const uint8_t *bm = nullptr;
    const uint8_t *res = nullptr, *resEnd = nullptr;
    uint64_t bitAvail = 0;
    uint64_t bitPos = 0;
    uint64_t prevBlock = 0;
    uint64_t evTotal = 0, accTotal = 0;
    uint64_t evDone = 0, accDone = 0;
};

} // namespace lpp::trace

#endif // LPP_TRACE_CODEC_HPP
