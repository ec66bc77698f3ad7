/**
 * @file
 * Trace-store tests: atomic publication, header-verified lookup,
 * hash-verified replay, and miss semantics on every kind of mismatch
 * (params hash, key, corruption, truncation).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "stream_digest.hpp"
#include "trace/memory_trace.hpp"
#include "trace/trace_store.hpp"

namespace fs = std::filesystem;

namespace {

using lpp::trace::Addr;
using lpp::trace::MemoryTrace;
using lpp::trace::StoredTraceStats;
using lpp::trace::TraceStore;

class TraceStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::temp_directory_path() /
              ("lpp_store_test_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name());
        fs::remove_all(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    MemoryTrace
    sampleTrace() const
    {
        MemoryTrace t;
        t.onBlock(1, 10);
        std::vector<Addr> batch{0x1000, 0x1008, 0x1010, 0x0FF8};
        t.onAccessBatch(batch.data(), batch.size());
        t.onAccess(0x2000);
        t.onManualMarker(3);
        t.onEnd();
        return t;
    }

    fs::path dir;
};

TEST_F(TraceStoreTest, StoreThenLoadRoundTrips)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    StoredTraceStats stats{true, 6};
    auto bytes = store.store("fft@s1:x1", 0xABCDull, t, stats);
    ASSERT_GT(bytes, 0u);

    auto info = store.lookup("fft@s1:x1", 0xABCDull);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->events, t.eventCount());
    EXPECT_EQ(info->accesses, t.accessCount());
    EXPECT_TRUE(info->stats.valid);
    EXPECT_EQ(info->stats.distinctElements, 6u);
    EXPECT_EQ(info->fileBytes, bytes);
    EXPECT_GT(info->payloadBytes, 0u);
    EXPECT_TRUE(fs::exists(info->path));

    MemoryTrace loaded;
    ASSERT_TRUE(store.load("fft@s1:x1", 0xABCDull, loaded));
    EXPECT_EQ(loaded.eventCount(), t.eventCount());
    EXPECT_EQ(loaded.accessCount(), t.accessCount());

    // Replayed streams are bit-identical: digest both and compare.
    EXPECT_EQ(lpp::test::streamDigest(loaded),
              lpp::test::streamDigest(t));
}

TEST_F(TraceStoreTest, MissOnAbsentEntryKeyOrParamsMismatch)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    EXPECT_FALSE(store.lookup("fft@s1:x1", 1).has_value());

    store.store("fft@s1:x1", 1, t, {});
    EXPECT_TRUE(store.lookup("fft@s1:x1", 1).has_value());
    // Different generator parameters: invalidated.
    EXPECT_FALSE(store.lookup("fft@s1:x1", 2).has_value());
    // Different key: separate entry.
    EXPECT_FALSE(store.lookup("fft@s2:x1", 1).has_value());

    MemoryTrace out;
    EXPECT_FALSE(store.load("fft@s1:x1", 2, out));
    EXPECT_TRUE(out.empty());
}

TEST_F(TraceStoreTest, DistinctKeysAndParamsCoexist)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    MemoryTrace t2;
    t2.onAccess(0xAAAA);
    t2.onEnd();

    store.store("w@s1:x1", 1, t, {});
    store.store("w@s1:x1", 2, t2, {});
    store.store("w@s2:x1", 1, t2, {});

    MemoryTrace a, b;
    ASSERT_TRUE(store.load("w@s1:x1", 1, a));
    ASSERT_TRUE(store.load("w@s1:x1", 2, b));
    EXPECT_EQ(a.eventCount(), t.eventCount());
    EXPECT_EQ(b.eventCount(), t2.eventCount());
}

TEST_F(TraceStoreTest, CorruptPayloadReadsAsMiss)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    store.store("w@s1:x1", 7, t, {});
    auto info = store.lookup("w@s1:x1", 7);
    ASSERT_TRUE(info.has_value());

    // Flip one payload byte in place (header intact): lookup still
    // succeeds (header-only) but load fails on the payload hash.
    {
        std::fstream f(info->path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(static_cast<std::streamoff>(info->fileBytes - 1));
        char c = 0;
        f.seekg(static_cast<std::streamoff>(info->fileBytes - 1));
        f.read(&c, 1);
        c = static_cast<char>(c ^ 0x40);
        f.seekp(static_cast<std::streamoff>(info->fileBytes - 1));
        f.write(&c, 1);
    }
    EXPECT_TRUE(store.lookup("w@s1:x1", 7).has_value());
    MemoryTrace out;
    EXPECT_FALSE(store.load("w@s1:x1", 7, out));
    EXPECT_TRUE(out.empty());
}

TEST_F(TraceStoreTest, CorruptFrameDirectoryReadsAsMiss)
{
    TraceStore store(dir.string());
    store.store("w@s1:x1", 7, sampleTrace(), {});
    auto info = store.lookup("w@s1:x1", 7);
    ASSERT_TRUE(info.has_value());

    // Flip a byte in the frame directory (the region just before the
    // payloads): the header still parses, but the directory hash
    // mismatch turns the load into a clean miss.
    {
        std::fstream f(info->path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        auto at = static_cast<std::streamoff>(info->fileBytes -
                                              info->payloadBytes - 1);
        char c = 0;
        f.seekg(at);
        f.read(&c, 1);
        c = static_cast<char>(c ^ 0x04);
        f.seekp(at);
        f.write(&c, 1);
    }
    EXPECT_TRUE(store.lookup("w@s1:x1", 7).has_value());
    MemoryTrace out;
    EXPECT_FALSE(store.load("w@s1:x1", 7, out));
    EXPECT_TRUE(out.empty());
}

TEST_F(TraceStoreTest, TruncatedEntryReadsAsMiss)
{
    TraceStore store(dir.string());
    store.store("w@s1:x1", 7, sampleTrace(), {});
    auto info = store.lookup("w@s1:x1", 7);
    ASSERT_TRUE(info.has_value());
    fs::resize_file(info->path, info->fileBytes - 3);
    EXPECT_FALSE(store.lookup("w@s1:x1", 7).has_value());
    MemoryTrace out;
    EXPECT_FALSE(store.load("w@s1:x1", 7, out));
}

TEST_F(TraceStoreTest, PublicationLeavesNoTemporaries)
{
    TraceStore store(dir.string());
    for (int i = 0; i < 4; ++i)
        store.store("w@s1:x1", static_cast<uint64_t>(i), sampleTrace(),
                    {});
    size_t files = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        EXPECT_EQ(e.path().extension(), ".lpt") << e.path();
        ++files;
    }
    EXPECT_EQ(files, 4u);
}

TEST_F(TraceStoreTest, OverwriteReplacesEntryAtomically)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    store.store("w@s1:x1", 1, t, {});
    MemoryTrace t2;
    t2.onAccess(1);
    t2.onAccess(2);
    t2.onEnd();
    store.store("w@s1:x1", 1, t2, StoredTraceStats{true, 2});

    auto info = store.lookup("w@s1:x1", 1);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->events, t2.eventCount());
    EXPECT_TRUE(info->stats.valid);
    MemoryTrace out;
    ASSERT_TRUE(store.load("w@s1:x1", 1, out));
    EXPECT_EQ(lpp::test::streamDigest(out), lpp::test::streamDigest(t2));
}

TEST_F(TraceStoreTest, ReplayDeliversDirectlyIntoSink)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    store.store("w@s1:x1", 1, t, {});

    MemoryTrace loaded;
    ASSERT_TRUE(store.load("w@s1:x1", 1, loaded));
    MemoryTrace sink;
    loaded.replay(sink);
    EXPECT_EQ(lpp::test::streamDigest(sink), lpp::test::streamDigest(t));
    MemoryTrace other;
    EXPECT_FALSE(store.load("w@s1:x1", 99, other));
}

} // namespace
