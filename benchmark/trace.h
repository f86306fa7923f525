/**
 * @file
 * In-memory span recorder of the benchmark's traced run.
 *
 * Spans are recorded by the harness around its calls into each ciflow
 * layer, never inside the library. A span carries its name, start and
 * end (steady_clock nanoseconds), the index of its parent span and the
 * id of the iteration (or set-up repetition) it belongs to. Spans stay
 * in memory until the run ends. selfTimesMs() then reduces them to the
 * per-layer self time of each iteration: a span's duration minus the
 * part of it covered by its child spans. writeChromeTrace() writes
 * them out.
 */

#ifndef CIFLOW_BENCHMARK_TRACE_H
#define CIFLOW_BENCHMARK_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace bench
{

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        std::int64_t t0 = 0, t1 = 0;
        std::int32_t parent = -1;
        std::uint32_t group = 0;
    };

    /** Start a new group (an iteration or a set-up repetition). */
    void beginGroup(std::uint32_t id) { group_ = id; }

    std::int32_t
    open(const char *name)
    {
        spans_.push_back({name, nowNs(), 0, cur_, group_});
        cur_ = static_cast<std::int32_t>(spans_.size() - 1);
        return cur_;
    }

    void
    close(std::int32_t idx)
    {
        spans_[idx].t1 = nowNs();
        cur_ = spans_[idx].parent;
    }

    /**
     * Self time in milliseconds per (group, span name): each span's
     * duration minus the durations of its direct children. Spans nest
     * strictly (one caller thread), so children never overlap.
     */
    std::map<std::uint32_t, std::map<std::string, double>>
    selfTimesMs() const
    {
        std::vector<std::int64_t> childNs(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childNs[s.parent] += s.t1 - s.t0;
        std::map<std::uint32_t, std::map<std::string, double>> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out[s.group][s.name] +=
                static_cast<double>(s.t1 - s.t0 - childNs[i]) * 1e-6;
        }
        return out;
    }

    /**
     * Write the spans of groups >= fromGroup as Chrome trace events
     * (Perfetto opens them): one track per group, each span's index and
     * its parent's in args. Returns false when the file cannot be
     * written.
     */
    bool
    writeChromeTrace(const std::string &path, std::uint32_t fromGroup) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::int64_t base = spans_.empty() ? 0 : spans_[0].t0;
        std::fprintf(f, "{\"traceEvents\": [");
        bool first = true;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.group < fromGroup)
                continue;
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"ph\": \"X\", "
                         "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"id\": %zu, "
                         "\"parent\": %d}}",
                         first ? "" : ",", s.name, s.group,
                         static_cast<double>(s.t0 - base) * 1e-3,
                         static_cast<double>(s.t1 - s.t0) * 1e-3, i,
                         s.parent);
            first = false;
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
    std::int32_t cur_ = -1;
    std::uint32_t group_ = 0;
};

/** RAII span; records nothing when the tracer is null (untraced run). */
class Scope
{
  public:
    Scope(Tracer *t, const char *name)
        : t_(t), idx_(t ? t->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (t_)
            t_->close(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    std::int32_t idx_;
};

} // namespace bench

#endif // CIFLOW_BENCHMARK_TRACE_H
