/**
 * @file
 * On-disk store of compressed execution traces: profile once, replay
 * everywhere.
 *
 * The paper's pipeline is profile-once, analyze-many — ATOM produced a
 * trace once and every analysis consumed the file. This store gives the
 * repo the same discipline across *processes*: the first execution of a
 * deterministic workload input records its event stream through the
 * predictive frame codec, and every later bench, sweep, or test
 * replays the file instead of re-simulating the program.
 *
 * An entry (format "LPT2") is a fixed header, the execution key, a
 * frame directory, and the concatenated frame payloads. The directory
 * mirrors trace::FrameInfo — per frame: stream offsets, section sizes,
 * codec seeds, and a payload hash — and is itself hash-guarded, so a
 * load verifies the directory once and each frame before trusting it.
 * Because frames are stored exactly as StreamingTrace holds them in
 * memory, load() adopts the bytes without decoding a single event;
 * StreamingTrace::replay then decodes one frame at a time.
 *
 * One entry per execution key (core::workloadKey renders
 * `name@s<seed>:x<scale>`), qualified by a caller-supplied content hash
 * of the workload's generator parameters, so a workload whose code or
 * array layout changed invalidates its own cache entries. Entries are
 * published with write-to-temporary + atomic rename, so concurrent
 * producers of the same key are safe (last writer wins with identical
 * bytes) and a crashed writer never leaves a half-written entry behind.
 * Loads verify the header (magic, version, key, params hash, predictor
 * geometry, sizes) before use and the directory and frame hashes
 * during adoption; any mismatch reads as a miss and the caller falls
 * back to live execution.
 *
 * The header also carries the precount statistics (access count,
 * distinct-element working set) the phase detector needs to size its
 * sampler, so a warm cache skips the precount pass entirely — the
 * "trace-derived counts" handoff of phase::PhaseDetector. The
 * directory hash covers the statistics too, so they are verified by
 * every successful load(); lookup() alone reports them unverified.
 */

#ifndef LPP_TRACE_TRACE_STORE_HPP
#define LPP_TRACE_TRACE_STORE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lpp::trace {

class StreamingTrace;

/** Derived per-stream statistics carried in a stored trace's header. */
struct StoredTraceStats
{
    bool valid = false;            //!< whether the fields below are set
    uint64_t distinctElements = 0; //!< working-set size in elements
};

/** What a header probe (TraceStore::lookup) learns about an entry. */
struct StoredTraceInfo
{
    std::string path;          //!< entry file
    uint64_t events = 0;       //!< recorded events (batch = one)
    uint64_t accesses = 0;     //!< recorded data accesses
    StoredTraceStats stats;    //!< precount handoff, when recorded
    uint64_t frames = 0;       //!< frames in the entry
    uint64_t payloadBytes = 0; //!< compressed payload size (all frames)
    uint64_t fileBytes = 0;    //!< total entry size on disk
};

/** Content-addressed cache of compressed traces under one directory. */
class TraceStore
{
  public:
    /** @param dir cache directory (created on first store). */
    explicit TraceStore(std::string dir);

    /** @return the cache directory. */
    const std::string &dir() const { return root; }

    /** @return the entry path for (key, params_hash). */
    std::string pathFor(const std::string &key,
                        uint64_t params_hash) const;

    /**
     * Header-verified probe: cheap (no directory or payload read).
     * Empty on a missing entry or any header mismatch. The reported
     * statistics are trustworthy only once load() of the entry has
     * succeeded.
     */
    std::optional<StoredTraceInfo> lookup(const std::string &key,
                                          uint64_t params_hash) const;

    /**
     * Adopt the entry's frames into a recording for repeated replay.
     * Zero-decode: the directory and every frame hash are verified,
     * then the compressed bytes are moved in as-is. The entry's
     * predictor geometry must match `out`'s; a mismatch is a miss.
     */
    bool load(const std::string &key, uint64_t params_hash,
              StreamingTrace &out) const;

    /**
     * Publish a recording atomically: write header + key + frame
     * directory + payloads to a temporary in the same directory, then
     * rename over the final path. The open frame, if any, is
     * materialized as the entry's last frame.
     *
     * @return total bytes on disk, or 0 on any I/O failure (the cache
     *         is best-effort; failures never break the pipeline).
     */
    uint64_t store(const std::string &key, uint64_t params_hash,
                   const StreamingTrace &trace,
                   const StoredTraceStats &stats) const;

  private:
    std::string root;
};

} // namespace lpp::trace

#endif // LPP_TRACE_TRACE_STORE_HPP
