/**
 * @file
 * Evaluation benchmark: one named workload per invocation.
 *
 *   evalbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>]
 *
 * Untraced (--trace 0): the workload is set up twice (the median is
 * setup_s), then timed passes run until `seconds` have elapsed (at
 * least two); peak_rss_mb is the mean over passes of the highest
 * resident set sampled while a pass runs. Each pass's outputs are
 * compared with the first pass,
 * and after the timed loop the first pass is checked against reference
 * computations (reference.hpp). The end-to-end metrics are printed as
 * the last line of stdout, as one JSON object.
 *
 * Traced (--trace 1): one set-up, two ordinary passes and two passes
 * with spans around the per-program calls (their difference is the
 * tracing overhead), then the per-layer sweep. The spans are written
 * as Chrome trace-event JSON and as a flat per-layer table into the
 * work directory, and the per-layer metrics are printed as the JSON
 * line.
 *
 * The process exits 1 when any check fails, naming the program and
 * the check on stderr.
 */

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "support/logging.hpp"

using namespace evalbench;
namespace fs = std::filesystem;

namespace {

/** Set-ups per untraced run; setup_s is their median. */
constexpr int setupCount = 2;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: evalbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
                 "workloads:",
                 msg);
    for (const auto &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || errno || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** @return the process's peak resident set so far, in MB. */
double
maxRssMb()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * @return the current resident set in MB, read from /proc/self/status
 *         with plain system calls (no allocation), or 0 when unreadable
 */
double
residentMb()
{
    int fd = ::open("/proc/self/status", O_RDONLY);
    if (fd < 0)
        return 0.0;
    char buf[4096];
    ssize_t n = ::read(fd, buf, sizeof buf - 1);
    ::close(fd);
    if (n <= 0)
        return 0.0;
    buf[n] = '\0';
    const char *line = std::strstr(buf, "VmRSS:");
    return line ? std::strtod(line + 6, nullptr) / 1024.0 : 0.0; // kB
}

/**
 * The highest resident set seen while it lives, sampled every
 * millisecond on a thread of its own. Unlike ru_maxrss it covers one
 * pass alone: not the set-up, whose live runs could set the process's
 * peak on their own, nor the passes before.
 */
class RssSampler
{
  public:
    RssSampler()
        : sampler([this] {
              while (!stop.load(std::memory_order_relaxed)) {
                  peak = std::max(peak, residentMb());
                  std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
          })
    {}

    ~RssSampler()
    {
        if (sampler.joinable())
            finish();
    }

    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** Stop sampling. @return the peak in MB. */
    double
    finish()
    {
        stop.store(true, std::memory_order_relaxed);
        sampler.join();
        return std::max(peak, residentMb());
    }

  private:
    std::atomic<bool> stop{false};
    double peak = 0.0; //!< written by the sampler, read after join
    std::thread sampler;
};

/** @return CPU seconds (user + system) this process has used. */
double
cpuSeconds()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, const Accounting &acc,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(acc.attempted()),
                static_cast<unsigned long long>(acc.failed()));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Wall and CPU seconds of one pass and its per-operation seconds. */
struct PassTimes
{
    double wall = 0.0;
    double cpu = 0.0;
    double rssMb = 0.0;     //!< peak resident set during the pass
    double busyRatio = 0.0; //!< pool workers' busy share of the wall
    std::vector<double> ops;
};

/**
 * One pass: prepare (untimed), run (timed), compare with pass 0.
 * Memory the allocator holds free from earlier passes is handed back
 * first (malloc_trim), so each pass's resident-set peak is its own;
 * the allocator's arenas and policies stay as every caller has them.
 */
PassTimes
runPass(Runner &runner, Accounting &acc, lpp::support::ThreadPool &pool,
        Tracer *tracer)
{
    runner.prepare();
    acc.addPass();
    pool.resetWorkerStats();
    malloc_trim(0);
    PassTimes t;
    RssSampler rss;
    double c0 = cpuSeconds();
    auto t0 = Clock::now();
    {
        Tracer::Scope s(tracer, "pass");
        t.ops = runner.pass(tracer);
    }
    t.wall = secondsSince(t0);
    t.cpu = cpuSeconds() - c0;
    t.rssMb = rss.finish();
    double busy = 0.0;
    for (const auto &w : pool.workerStats())
        busy += static_cast<double>(w.busyNs) / 1e9;
    t.busyRatio = busy / (static_cast<double>(pool.threadCount()) * t.wall);
    runner.checkPass(acc.passes() - 1, acc);
    return t;
}

void
writeLayerTable(const std::string &path, const std::string &workload,
                const LayerTable &layers, const Tracer &tracer)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "# per-layer metrics, workload %s\n", workload.c_str());
    std::fprintf(f, "%-36s %14s %-10s %16s %-14s %10s\n", "metric", "value",
                 "unit", "work", "work unit", "busy s");
    for (const auto &[name, m] : layers)
        std::fprintf(f, "%-36s %14.4f %-10s %16.0f %-14s %10.4f\n",
                     name.c_str(), m.value, m.unit.c_str(), m.work,
                     m.workUnit.c_str(), m.busyS);
    std::fprintf(f, "\n# spans: count, total and self seconds\n");
    std::fprintf(f, "%-36s %8s %12s %12s\n", "span", "count", "total s",
                 "self s");
    for (const auto &[name, r] : tracer.table())
        std::fprintf(f, "%-36s %8llu %12.4f %12.4f\n", name.c_str(),
                     static_cast<unsigned long long>(r.count), r.totalS,
                     r.selfS);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string work_root = ".bench_build/evalbench/work";
    uint64_t seed = 0, seconds = 0;
    int trace = -1;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) {
            if (i + 1 >= argc)
                usage((std::string("missing value for ") + flag).c_str());
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload")) {
            workload = value("--workload");
        } else if (!std::strcmp(argv[i], "--seed")) {
            seed = parseCount("--seed", value("--seed"));
            have_seed = true;
        } else if (!std::strcmp(argv[i], "--seconds")) {
            seconds = parseCount("--seconds", value("--seconds"));
            have_seconds = true;
        } else if (!std::strcmp(argv[i], "--trace")) {
            uint64_t t = parseCount("--trace", value("--trace"));
            if (t > 1)
                usage("--trace takes 0 or 1");
            trace = static_cast<int>(t);
        } else if (!std::strcmp(argv[i], "--work-dir")) {
            work_root = value("--work-dir");
        } else {
            usage((std::string("unknown argument ") + argv[i]).c_str());
        }
    }
    if (workload.empty() || !have_seed || !have_seconds || trace < 0)
        usage("--workload, --seed, --seconds and --trace are required");
    const size_t workers = workersFor(workload);
    if (workers == 0)
        usage(("unknown workload " + workload).c_str());

    // The shared pool is never wider than the workload's own pool.
    setenv("LPP_THREADS", std::to_string(workers).c_str(), 1);
    lpp::setVerbose(false);
    lpp::support::ThreadPool pool(workers);

    const std::string dir = work_root + "/" + workload;
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto runner = makeRunner(workload, seed, pool, dir);
    Accounting acc(runner->opsPerPass());
    std::vector<Metric> metrics;

    std::vector<double> setupS;
    for (int i = 0; i < (trace ? 1 : setupCount); ++i) {
        auto t0 = Clock::now();
        runner->setup(acc);
        setupS.push_back(secondsSince(t0));
    }

    if (!trace) {
        // Each operation's fastest run is the one least disturbed by the
        // host; the pass time the metric rests on is their sum.
        std::vector<double> wallS, cpuS, rssMb;
        std::vector<std::vector<double>> opS(runner->opsPerPass());
        const double setupPeak = maxRssMb();
        auto loop = Clock::now();
        while (wallS.size() < 2 ||
               secondsSince(loop) < static_cast<double>(seconds)) {
            PassTimes t = runPass(*runner, acc, pool, nullptr);
            for (size_t i = 0; i < opS.size(); ++i)
                opS[i].push_back(t.ops[i]);
            wallS.push_back(t.wall);
            cpuS.push_back(t.cpu);
            rssMb.push_back(t.rssMb);
        }
        std::vector<double> best;
        for (size_t i = 0; i < opS.size(); ++i) {
            best.push_back(*std::min_element(opS[i].begin(), opS[i].end()));
            std::fprintf(stderr, "  %-28s fastest %.4f s, median %.4f s:",
                         runner->opName(i).c_str(), best.back(),
                         median(opS[i]));
            for (double v : opS[i])
                std::fprintf(stderr, " %.3f", v);
            std::fprintf(stderr, "\n");
        }
        // A pass's peak depends on how its concurrent tasks overlap and
        // on which thread's arena frees what, so it takes a few values
        // far apart; their mean is steadier than their median.
        double peak = 0.0;
        std::fprintf(stderr, "pass peak RSS, MB:");
        for (double v : rssMb) {
            peak += v / static_cast<double>(rssMb.size());
            std::fprintf(stderr, " %.1f", v);
        }
        std::fprintf(stderr,
                     "; mean %.1f; process peak %.1f MB after set-up, "
                     "%.1f MB after the passes\n",
                     peak, setupPeak, maxRssMb());
        auto checks = Clock::now();
        runner->finalChecks(acc);
        std::fprintf(stderr, "reference checks took %.1f s\n",
                     secondsSince(checks));

        // Per program: covered accesses over the sum of its operations'
        // fastest times. Store bytes per access is a property of each
        // program's recordings, summarized by the geometric mean over
        // programs so that one program's share of the accesses, which
        // moves with the seed, does not weigh in.
        std::vector<uint64_t> perProgram = runner->programAccesses();
        std::vector<uint64_t> storeBytes = runner->storeBytes();
        std::vector<double> programS(perProgram.size(), 0.0);
        for (size_t i = 0; i < best.size(); ++i)
            programS[runner->opProgram(i)] += best[i];
        double fastest = 0.0, accesses = 0.0, logBytes = 0.0;
        for (size_t p = 0; p < perProgram.size(); ++p) {
            double a = static_cast<double>(perProgram[p]);
            fastest += programS[p];
            accesses += a;
            logBytes += std::log(static_cast<double>(storeBytes[p]) / a);
            std::fprintf(stderr,
                         "  %-28s %.3f Maccess/s, %.5f stored B/access\n",
                         runner->programs()[p]->name().c_str(),
                         a / 1e6 / programS[p],
                         static_cast<double>(storeBytes[p]) / a);
        }
        double bytesPerAccess =
            std::exp(logBytes / static_cast<double>(perProgram.size()));
        std::string setups_text;
        for (double v : setupS) {
            if (!setups_text.empty())
                setups_text += ' ';
            setups_text += std::to_string(v);
        }
        std::fprintf(stderr,
                     "%s seed %llu: %zu passes of %.2f M accesses; sum of "
                     "fastest operations %.3f s; pass wall median %.3f s "
                     "(fastest %.3f, slowest %.3f), CPU median %.3f s; "
                     "set-ups %s s\n",
                     workload.c_str(), static_cast<unsigned long long>(seed),
                     wallS.size(), accesses / 1e6, fastest, median(wallS),
                     *std::min_element(wallS.begin(), wallS.end()),
                     *std::max_element(wallS.begin(), wallS.end()),
                     median(cpuS), setups_text.c_str());
        metrics = {
            {"maccess_per_s", accesses / 1e6 / fastest, "Maccess/s"},
            {"setup_s", median(setupS), "s"},
            {"peak_rss_mb", peak, "MB"},
            {"store_bytes_per_access", bytesPerAccess, "B/access"},
        };
    } else {
        Tracer tracer;
        PassTimes plain, traced;
        for (int r = 0; r < 2; ++r) {
            PassTimes t = runPass(*runner, acc, pool, nullptr);
            if (r == 0 || t.wall < plain.wall)
                plain = t;
            t = runPass(*runner, acc, pool, &tracer);
            if (r == 0 || t.wall < traced.wall)
                traced = t;
        }
        LayerTable layers;
        {
            Tracer::Scope s(&tracer, "layers");
            layerSweep(runner->programs(), pool, dir, tracer, layers, acc);
        }
        runner->finalChecks(acc);

        LayerMetric m;
        m.unit = "ratio";
        m.value = plain.busyRatio;
        m.work = static_cast<double>(pool.threadCount());
        m.workUnit = "workers";
        m.busyS = plain.wall;
        layers["support.pool_busy_ratio"] = m;
        m.unit = "%";
        m.value = 100.0 * (traced.wall - plain.wall) / plain.wall;
        m.work = 2;
        m.workUnit = "pass pairs";
        m.busyS = traced.wall;
        layers["bench.tracing_overhead_pct"] = m;

        std::string trace_path = work_root + "/" + workload + ".trace.json";
        std::string table_path = work_root + "/" + workload + ".layers.txt";
        if (!tracer.writeChromeTrace(trace_path))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         trace_path.c_str());
        writeLayerTable(table_path, workload, layers, tracer);
        std::fprintf(stderr,
                     "%s: fastest ordinary pass %.3f s, fastest traced pass "
                     "%.3f s (tracing overhead %.2f%%); spans in %s, table "
                     "in %s\n",
                     workload.c_str(), plain.wall, traced.wall,
                     layers["bench.tracing_overhead_pct"].value,
                     trace_path.c_str(), table_path.c_str());
        for (const auto &[name, l] : layers) {
            std::fprintf(stderr,
                         "  %-36s %12.4f %-9s (%.0f %s in %.4f s)\n",
                         name.c_str(), l.value, l.unit.c_str(), l.work,
                         l.workUnit.c_str(), l.busyS);
            metrics.push_back({name, l.value, l.unit});
        }
    }

    fs::remove_all(dir);
    bool correct = acc.failed() == 0 && !acc.runFailed();
    printResult(correct, acc, metrics);
    return correct ? 0 : 1;
}
