/**
 * @file
 * Per-layer sweep of the traced mode: each layer's public entry points
 * are called from here, over every input of the workload's programs,
 * with a span around each call. Consumers fed by a replay are timed on
 * already decoded buffers (TimedBuffer), so their rates describe the
 * consumer alone; whole-run stages are reported in ms summed over the
 * workload's programs. Every entry the sweep stores must load back
 * whole, or the run fails.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.hpp"
#include "cache/stack_sim.hpp"
#include "core/analysis.hpp"
#include "core/evaluation.hpp"
#include "core/runtime.hpp"
#include "core/stratified.hpp"
#include "grammar/hierarchy.hpp"
#include "phase/detector.hpp"
#include "trace/instrument.hpp"
#include "trace/memory_trace.hpp"
#include "trace/recorder.hpp"
#include "trace/trace_store.hpp"

namespace evalbench {

using namespace lpp;

namespace {

/** Work and busy time of one layer, summed over calls. */
struct Tally
{
    double work = 0.0;
    double busyS = 0.0;

    void
    add(double w, double s)
    {
        work += w;
        busyS += s;
    }
};

/** Time `fn` under a span named `name`; @return seconds. */
template <typename Fn>
double
timed(Tracer &tracer, const std::string &name, Fn &&fn)
{
    Tracer::Scope s(&tracer, name);
    auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/**
 * Buffers a replayed stream and hands it to `target` in blocks of about
 * 2^20 accesses, timing only the hand-over. The consumer's time is thus
 * measured on events already decoded, with no decode time to subtract.
 * Event order and access-batch boundaries are kept exactly.
 */
class TimedBuffer : public trace::TraceSink
{
  public:
    TimedBuffer(trace::TraceSink &target_, double &seconds_)
        : target(target_), seconds(seconds_)
    {}

    void
    onBlock(trace::BlockId block, uint32_t instructions) override
    {
        events.push_back({Kind::Block, block, instructions, 0, 0});
    }

    void
    onAccess(trace::Addr addr) override
    {
        onAccessBatch(&addr, 1);
    }

    void
    onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        events.push_back({Kind::Batch, 0, 0, addrBuf.size(), n});
        addrBuf.insert(addrBuf.end(), addrs, addrs + n);
        if (addrBuf.size() >= (1u << 20))
            flush(false);
    }

    void
    onManualMarker(uint32_t id) override
    {
        events.push_back({Kind::Manual, id, 0, 0, 0});
    }

    void
    onPhaseMarker(trace::PhaseId phase) override
    {
        events.push_back({Kind::Phase, phase, 0, 0, 0});
    }

    void onEnd() override { flush(true); }

  private:
    enum class Kind : uint8_t { Block, Batch, Manual, Phase };

    struct Event
    {
        Kind kind;
        uint32_t id;
        uint32_t instructions;
        size_t offset;
        size_t count;
    };

    void
    flush(bool end)
    {
        auto t0 = Clock::now();
        for (const Event &e : events) {
            switch (e.kind) {
            case Kind::Block:
                target.onBlock(e.id, e.instructions);
                break;
            case Kind::Batch:
                target.onAccessBatch(addrBuf.data() + e.offset, e.count);
                break;
            case Kind::Manual:
                target.onManualMarker(e.id);
                break;
            case Kind::Phase:
                target.onPhaseMarker(e.id);
                break;
            }
        }
        if (end)
            target.onEnd();
        seconds += secondsSince(t0);
        events.clear();
        addrBuf.clear();
    }

    trace::TraceSink &target;
    double &seconds;
    std::vector<Event> events;
    std::vector<trace::Addr> addrBuf;
};

/** Seconds `consumer` spends on a replay of `rec` (decode excluded). */
double
consumerSeconds(const trace::StreamingTrace &rec, trace::TraceSink &consumer)
{
    double s = 0.0;
    TimedBuffer buf(consumer, s);
    rec.replay(buf);
    return s;
}

/** Counts a replayed stream; the cheapest sink a replay can feed. */
class CountSink : public trace::TraceSink
{
  public:
    void onAccess(trace::Addr) override { ++n; }
    void onAccessBatch(const trace::Addr *, size_t k) override { n += k; }
    uint64_t n = 0;
};

void
rate(LayerTable &out, const std::string &name, const std::string &unit,
     const Tally &t, double scale, const std::string &work_unit)
{
    LayerMetric m;
    m.unit = unit;
    m.work = t.work;
    m.workUnit = work_unit;
    m.busyS = t.busyS;
    m.value = t.busyS > 0.0 ? t.work / scale / t.busyS : 0.0;
    out[name] = m;
}

void
stage(LayerTable &out, const std::string &name, double seconds,
      double calls)
{
    LayerMetric m;
    m.unit = "ms";
    m.value = seconds * 1e3;
    m.work = calls;
    m.workUnit = "calls";
    m.busyS = seconds;
    out[name] = m;
}

} // namespace

void
layerSweep(const std::vector<std::unique_ptr<SeededWorkload>> &programs,
           support::ThreadPool &pool, const std::string &work_dir,
           Tracer &tracer, LayerTable &out, Accounting &acc)
{
    const std::string store_dir = work_dir + "/layer_store";
    std::filesystem::remove_all(store_dir);
    trace::TraceStore store(store_dir);
    core::StratifiedSamplingConfig scfg;
    scfg.enabled = true;

    Tally gen, enc, write, load, decode, sampler, instrument, collector,
        stacksim, intervals, rangeReplay, rangeLocality;
    double raw = 0.0, encoded = 0.0, samples = 0.0, replayed = 0.0;
    double filterS = 0.0, partitionS = 0.0, markersS = 0.0,
           hierarchyS = 0.0, planS = 0.0;

    for (const auto &wp : programs) {
        const SeededWorkload &w = *wp;
        const std::string &name = w.name();
        Tracer::Scope program(&tracer, name);

        // Generation, encode, store write/load and decode, per input.
        trace::StreamingTrace recs[2];
        for (int side = 0; side < 2; ++side) {
            auto in = side ? w.refInput() : w.trainInput();
            std::string key = core::workloadKey(w, in);
            CountSink live;
            double g = timed(tracer, "workloads.gen",
                             [&] { w.run(in, live); });
            gen.add(static_cast<double>(live.n), g);

            trace::StreamingTrace rec;
            double r = timed(tracer, "trace.record",
                             [&] { w.run(in, rec); });
            enc.add(static_cast<double>(rec.rawBytes()), r - g);
            raw += static_cast<double>(rec.rawBytes());
            encoded += static_cast<double>(rec.encodedBytes());

            uint64_t bytes = 0;
            double ws = timed(tracer, "trace.store_write", [&] {
                bytes = store.store(key, 1, rec, trace::StoredTraceStats{});
            });
            write.add(static_cast<double>(bytes), ws);
            bool loaded = false;
            double ls = timed(tracer, "trace.store_load", [&] {
                loaded = store.load(key, 1, recs[side]);
            });
            if (!loaded || recs[side].accessCount() != rec.accessCount())
                acc.failRun(name, "layer sweep",
                            key + ": stored recording did not load back");
            load.add(static_cast<double>(bytes), ls);

            CountSink replayedCount;
            double d = timed(tracer, "trace.decode", [&] {
                recs[side].replay(replayedCount);
            });
            decode.add(static_cast<double>(recs[side].rawBytes()), d);
        }
        const trace::StreamingTrace &train = recs[0];
        const trace::StreamingTrace &ref = recs[1];
        const double trainAccesses =
            static_cast<double>(train.accessCount());
        const double refAccesses = static_cast<double>(ref.accessCount());

        // Training-side stages, configured as the analysis does.
        core::AnalysisConfig acfg;
        if (acfg.detector.sampler.addressSpaceElements == 0) {
            uint64_t elements = 0;
            for (const auto &a : w.arrays(w.trainInput()))
                elements += a.elements;
            acfg.detector.sampler.addressSpaceElements = elements;
        }
        phase::PhaseDetector detector(acfg.detector);
        phase::PrecountStats pre;
        timed(tracer, "phase.precount", [&] {
            pre = phase::PhaseDetector::precountFromTrace(train);
        });
        reuse::VariableDistanceSampler vds(detector.samplingConfig(&pre));
        double s = 0.0;
        timed(tracer, "reuse.sampler",
              [&] { s = consumerSeconds(train, vds); });
        sampler.add(trainAccesses, s);
        samples += static_cast<double>(vds.sampleCount());
        trace::BlockRecorder blocks;
        timed(tracer, "trace.blocks", [&] { train.replay(blocks); });

        std::vector<reuse::SamplePoint> filtered;
        wavelet::FilterStats fstats;
        filterS += timed(tracer, "wavelet.filter", [&] {
            filtered = detector.filterSamples(vds.samples(), &fstats);
        });
        phase::Partition part;
        partitionS += timed(tracer, "phase.partition", [&] {
            part = detector.partitionFiltered(filtered);
        });
        phase::MarkerSelection sel;
        markersS += timed(tracer, "phase.markers", [&] {
            sel = detector.selectMarkers(blocks, part.phaseCount());
        });
        hierarchyS += timed(tracer, "grammar.hierarchy", [&] {
            grammar::PhaseHierarchy::fromSequence(sel.sequence());
        });

        // Reference-side consumers, each fed from decoded buffers.
        CountSink instrumented;
        trace::Instrumenter inst(sel.table, instrumented);
        double ti = 0.0;
        timed(tracer, "trace.instrument",
              [&] { ti = consumerSeconds(ref, inst); });
        instrument.add(refAccesses, ti);

        // The collector sits behind the instrumenter, which injects the
        // phase markers; the buffer between them times the collector.
        core::ExecutionCollector col;
        double tc = 0.0;
        timed(tracer, "core.collector", [&] {
            TimedBuffer buf(col, tc);
            trace::Instrumenter colInst(sel.table, buf);
            ref.replay(colInst);
        });
        collector.add(refAccesses, tc);

        cache::StackSimulator sim;
        double tsim = 0.0;
        timed(tracer, "cache.stacksim",
              [&] { tsim = consumerSeconds(ref, sim); });
        stacksim.add(refAccesses, tsim);

        double tiv = 0.0;
        timed(tracer, "bbv.intervals", [&] {
            core::collectIntervals(
                [&](trace::TraceSink &sink) {
                    tiv += consumerSeconds(ref, sink);
                },
                50000, 32);
        });
        intervals.add(refAccesses, tiv);

        // Range replay over the phase executions of a fine-framed
        // recording, visiting every other range first so that each
        // range starts with a seek, as the sampled evaluator's do.
        const core::Replay &replay = col.replay();
        trace::StreamingTrace fine;
        fine.setFrameTargetAccesses(scfg.frameTargetAccesses);
        timed(tracer, "trace.record_fine",
              [&] { w.run(w.refInput(), fine); });
        std::vector<uint64_t> cuts;
        for (const auto &e : replay.executions)
            cuts.push_back(e.startAccess);
        std::vector<trace::StreamingTrace::ChunkRange> ranges;
        double sliceS = timed(tracer, "trace.slice",
                              [&] { ranges = fine.sliceAt(cuts); });
        std::vector<size_t> order;
        for (size_t i = 0; i < ranges.size(); i += 2)
            order.push_back(i);
        for (size_t i = 1; i < ranges.size(); i += 2)
            order.push_back(i);
        double rangeAccesses = 0.0;
        for (const auto &r : ranges)
            rangeAccesses += static_cast<double>(r.accessCount);
        double rr = timed(tracer, "trace.range_replay", [&] {
            trace::TraceCursor cursor(fine);
            for (size_t i : order) {
                CountSink c;
                cursor.replayRange(c, ranges[i]);
            }
        });
        rangeReplay.add(rangeAccesses, sliceS + rr);
        double rl = 0.0;
        timed(tracer, "core.range_locality", [&] {
            trace::TraceCursor cursor(fine);
            for (size_t i : order) {
                core::RangeLocalitySink sink;
                TimedBuffer buf(sink, rl);
                cursor.replayRange(buf, ranges[i]);
                buf.onEnd();
                auto t0 = Clock::now();
                sink.take();
                rl += secondsSince(t0);
            }
        });
        rangeLocality.add(rangeAccesses, rl);

        planS += timed(tracer, "core.strat_plan",
                       [&] { core::planStrata(replay, scfg); });
        timed(tracer, "core.strat_estimate", [&] {
            core::StratifiedEvaluator ev(scfg, &pool);
            replayed += static_cast<double>(
                ev.evaluate(fine, replay).estimate.measuredAccesses);
        });
    }
    std::filesystem::remove_all(store_dir);

    const double n = static_cast<double>(programs.size());
    rate(out, "trace.decode_mb_per_s", "MB/s", decode, 1e6, "raw bytes");
    rate(out, "trace.encode_mb_per_s", "MB/s", enc, 1e6, "raw bytes");
    rate(out, "trace.store_write_mb_per_s", "MB/s", write, 1e6,
         "file bytes");
    rate(out, "trace.store_load_mb_per_s", "MB/s", load, 1e6, "file bytes");
    rate(out, "trace.range_replay_maccess_per_s", "Maccess/s", rangeReplay,
         1e6, "accesses");
    rate(out, "trace.instrument_maccess_per_s", "Maccess/s", instrument, 1e6,
         "accesses");
    rate(out, "workloads.gen_maccess_per_s", "Maccess/s", gen, 1e6,
         "accesses");
    rate(out, "reuse.sampler_maccess_per_s", "Maccess/s", sampler, 1e6,
         "accesses");
    rate(out, "cache.stacksim_maccess_per_s", "Maccess/s", stacksim, 1e6,
         "accesses");
    rate(out, "core.collector_maccess_per_s", "Maccess/s", collector, 1e6,
         "accesses");
    rate(out, "bbv.intervals_maccess_per_s", "Maccess/s", intervals, 1e6,
         "accesses");
    rate(out, "core.range_locality_maccess_per_s", "Maccess/s",
         rangeLocality, 1e6, "accesses");

    LayerMetric ratio;
    ratio.unit = "ratio";
    ratio.value = encoded > 0.0 ? raw / encoded : 0.0;
    ratio.work = raw;
    ratio.workUnit = "raw bytes";
    out["trace.compression_ratio"] = ratio;

    LayerMetric count;
    count.unit = "count";
    count.value = samples;
    count.work = samples;
    count.workUnit = "access samples";
    out["reuse.samples"] = count;

    LayerMetric rep;
    rep.unit = "Maccess";
    rep.value = replayed / 1e6;
    rep.work = replayed;
    rep.workUnit = "accesses";
    out["core.strat_replayed_maccess"] = rep;

    stage(out, "wavelet.filter_ms", filterS, n);
    stage(out, "phase.partition_ms", partitionS, n);
    stage(out, "phase.markers_ms", markersS, n);
    stage(out, "grammar.hierarchy_ms", hierarchyS, n);
    stage(out, "core.strat_plan_ms", planS, n);
}

} // namespace evalbench
