/**
 * @file
 * Seeded mutation test of the stored-trace format (LPT2). A
 * multi-frame recording is stored, then its entry file is rewritten
 * with deterministic corruptions: every single-bit flip of the fixed
 * header, bit flips anywhere in the file, truncations, and splices of
 * bytes from a second entry. Each mutated file must either load, with
 * the original stream and the original precount statistics, or read
 * as a clean miss — never crash, never hand back a different stream
 * or statistics the analysis would size its sampler from.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "stream_digest.hpp"
#include "support/random.hpp"
#include "trace/memory_trace.hpp"
#include "trace/trace_store.hpp"

namespace fs = std::filesystem;

namespace {

using lpp::test::streamDigest;
using lpp::trace::Addr;
using lpp::trace::MemoryTrace;
using lpp::trace::TraceStore;

/** Fixed-width LPT2 header bytes (before the key). */
constexpr size_t headerBytes = 72;

/** Strided batches, scalar accesses, and markers, cut into frames of
 *  at most 512 accesses. */
MemoryTrace
recording(uint64_t seed)
{
    MemoryTrace t;
    t.setFrameTargetAccesses(512);
    lpp::Rng rng(seed);
    std::vector<Addr> batch;
    for (int round = 0; round < 120; ++round) {
        t.onBlock(static_cast<uint32_t>(round % 11), 8 + round % 3);
        batch.clear();
        Addr base = 0x40000 + 8 * rng.below(1 << 14);
        for (size_t i = 0, n = 1 + rng.below(48); i < n; ++i)
            batch.push_back(base + 8 * static_cast<Addr>(i));
        t.onAccessBatch(batch.data(), batch.size());
        t.onAccess(8 * rng.below(1 << 18));
        if (round % 17 == 0)
            t.onManualMarker(static_cast<uint32_t>(round));
    }
    t.onEnd();
    return t;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(TraceStoreMutation, EveryMutationLoadsIdenticallyOrMisses)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("lpp_store_mutation_" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);
    TraceStore store(dir.string());
    const std::string key = "fuzz@s1:x1";

    MemoryTrace original = recording(1);
    ASSERT_GT(original.frameCount(), 4u);
    ASSERT_GT(store.store(key, 1, original, {true, 99}), 0u);
    ASSERT_GT(store.store("fuzz@s2:x1", 2, recording(2), {}), 0u);
    const std::string path = store.pathFor(key, 1);
    const std::vector<uint8_t> good = readFile(path);
    const std::vector<uint8_t> other =
        readFile(store.pathFor("fuzz@s2:x1", 2));
    ASSERT_GT(good.size(), headerBytes + key.size());

    const uint64_t digest = streamDigest(original);
    size_t loaded = 0, missed = 0;
    auto check = [&](const std::vector<uint8_t> &bytes,
                     const std::string &what) {
        writeFile(path, bytes);
        auto info = store.lookup(key, 1);

        // A load is the hit the analysis acts on: it replays the
        // adopted frames and sizes its sampler from the probe's
        // statistics.
        MemoryTrace out;
        if (store.load(key, 1, out)) {
            ++loaded;
            ASSERT_TRUE(info.has_value()) << what;
            EXPECT_TRUE(info->stats.valid) << what;
            EXPECT_EQ(info->stats.distinctElements, 99u) << what;
            EXPECT_EQ(info->accesses, original.accessCount()) << what;
            EXPECT_EQ(streamDigest(out), digest) << what;
            EXPECT_EQ(out.eventCount(), original.eventCount()) << what;
            EXPECT_EQ(out.accessCount(), original.accessCount()) << what;
        } else {
            ++missed;
            EXPECT_TRUE(out.empty()) << what;
        }
    };

    check(good, "unmodified");
    ASSERT_EQ(loaded, 1u);

    // Every single-bit flip of the fixed header.
    for (size_t bit = 0; bit < 8 * headerBytes; ++bit) {
        auto bytes = good;
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        check(bytes, "header bit " + std::to_string(bit));
    }

    lpp::Rng rng(2024);
    // One to three bit flips anywhere in the file.
    for (int i = 0; i < 100; ++i) {
        auto bytes = good;
        std::string what = "flips";
        for (uint64_t f = 0, n = 1 + rng.below(3); f < n; ++f) {
            uint64_t bit = rng.below(8 * bytes.size());
            bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            what += ' ';
            what += std::to_string(bit);
        }
        check(bytes, what);
    }
    // Truncations, from the empty file to one byte short.
    for (int i = 0; i < 50; ++i) {
        size_t cut = rng.below(good.size());
        check(std::vector<uint8_t>(good.begin(),
                                   good.begin() +
                                       static_cast<std::ptrdiff_t>(cut)),
              "truncated to " + std::to_string(cut));
    }
    // Splices from the second entry: a span copied over the same
    // offsets, or the tail from a cut point on.
    for (int i = 0; i < 50; ++i) {
        auto bytes = good;
        size_t limit = std::min(good.size(), other.size());
        size_t from = rng.below(limit);
        size_t len = 1 + rng.below(limit - from);
        std::string what;
        if (i % 2 == 0) {
            std::copy_n(other.begin() + static_cast<std::ptrdiff_t>(from),
                        len,
                        bytes.begin() + static_cast<std::ptrdiff_t>(from));
            what = "span " + std::to_string(from) + "+" +
                   std::to_string(len);
        } else {
            bytes.resize(from);
            bytes.insert(bytes.end(),
                         other.begin() + static_cast<std::ptrdiff_t>(from),
                         other.end());
            what = "tail from " + std::to_string(from);
        }
        check(bytes, "splice " + what);
    }

    // Every header field is verified (the statistics through the
    // directory hash), so no header flip loads; among the rest only a
    // splice that copies identical bytes can.
    EXPECT_GT(missed, loaded);
    fs::remove_all(dir);
}

} // namespace
