/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * Spans (name, start, end, parent) are recorded around the calls the
 * benchmark makes into each library layer, kept in memory, and written
 * when the run ends: as Chrome trace-event JSON (open it in
 * chrome://tracing or Perfetto) and as a flat table of total and self
 * time per span name. A span's self time is its duration minus the
 * part covered by its child spans. Spans are opened and closed on one
 * thread (the benchmark's main thread), so one parent stack serves.
 */

#ifndef LPP_EVALBENCH_TRACER_HPP
#define LPP_EVALBENCH_TRACER_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace evalbench {

class Tracer
{
  public:
    /** One closed span; times in ns since the tracer was created. */
    struct Span
    {
        std::string name;
        uint64_t startNs = 0;
        uint64_t endNs = 0;
        int64_t parent = -1; //!< index of the enclosing span, or -1
    };

    /** Opens a span on construction and closes it on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::string name) : t(tracer)
        {
            if (t)
                index = t->open(std::move(name));
        }
        ~Scope()
        {
            if (t)
                t->close(index);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t;
        size_t index = 0;
    };

    Tracer() : origin(std::chrono::steady_clock::now()) {}

    /** Write Chrome trace-event JSON ("X" complete events). */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (size_t i = 0; i < list.size(); ++i) {
            const Span &s = list[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%lld}}",
                         i ? ",\n" : "", s.name.c_str(),
                         static_cast<double>(s.startNs) / 1e3,
                         static_cast<double>(s.endNs - s.startNs) / 1e3,
                         i, static_cast<long long>(s.parent));
        }
        std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
        return std::fclose(f) == 0;
    }

    /** Total and self time per span name. */
    struct Row
    {
        uint64_t count = 0;
        double totalS = 0.0;
        double selfS = 0.0;
    };

    std::map<std::string, Row>
    table() const
    {
        std::vector<uint64_t> childNs(list.size(), 0);
        for (const Span &s : list)
            if (s.parent >= 0)
                childNs[static_cast<size_t>(s.parent)] +=
                    s.endNs - s.startNs;
        std::map<std::string, Row> rows;
        for (size_t i = 0; i < list.size(); ++i) {
            const Span &s = list[i];
            double dur = static_cast<double>(s.endNs - s.startNs) / 1e9;
            Row &r = rows[s.name];
            ++r.count;
            r.totalS += dur;
            r.selfS += dur - static_cast<double>(childNs[i]) / 1e9;
        }
        return rows;
    }

  private:
    uint64_t
    nowNs() const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - origin)
                .count());
    }

    size_t
    open(std::string name)
    {
        Span s;
        s.name = std::move(name);
        s.startNs = nowNs();
        s.parent = stack.empty() ? -1 : stack.back();
        list.push_back(std::move(s));
        stack.push_back(static_cast<int64_t>(list.size() - 1));
        return list.size() - 1;
    }

    void
    close(size_t index)
    {
        list[index].endNs = nowNs();
        if (!stack.empty())
            stack.pop_back();
    }

    std::chrono::steady_clock::time_point origin;
    std::vector<Span> list;
    std::vector<int64_t> stack; //!< indices of the open spans
};

} // namespace evalbench

#endif // LPP_EVALBENCH_TRACER_HPP
