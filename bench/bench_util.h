/**
 * @file
 * Shared helpers for the benchmark harnesses: formatted table printing,
 * paper reference values for side-by-side comparison, and the one JSON
 * writer every BENCH_*.json artifact is produced through.
 */

#ifndef CIFLOW_BENCH_BENCH_UTIL_H
#define CIFLOW_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "rpu/runner.h"

namespace ciflow::benchutil
{

/** Print a rule line of the given width. */
inline void
rule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Print a centred header between rules. */
inline void
header(const std::string &title, int width = 78)
{
    rule(width);
    int pad = (width - static_cast<int>(title.size())) / 2;
    std::printf("%*s%s\n", pad > 0 ? pad : 0, "", title.c_str());
    rule(width);
}

/** "x.xx" ratio formatting with a trailing 'x'. */
inline std::string
times(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", v);
    return buf;
}

/** Median, minimum and interquartile range of a host-time sample. */
struct Spread
{
    double median = 0.0;
    double min = 0.0;
    double iqr = 0.0;

    /** The same spread in units `f` times larger (e.g. s -> ms/op). */
    Spread
    scaled(double f) const
    {
        return {median * f, min * f, iqr * f};
    }
};

/** Spread of a non-empty sample (sorts it). */
inline Spread
spreadOf(std::vector<double> &t)
{
    std::sort(t.begin(), t.end());
    return {stats::percentileSorted(t, 0.5), t.front(),
            stats::percentileSorted(t, 0.75) -
                stats::percentileSorted(t, 0.25)};
}

/**
 * Time `a` and `b` over `passes` alternating passes and return the
 * spread of each side's seconds per pass. Alternation puts a slow
 * phase of the host on both sides rather than on one, and the median
 * of each side is what a ratio gate should compare.
 */
template <typename A, typename B>
std::pair<Spread, Spread>
alternatingSpreads(int passes, A &&a, B &&b)
{
    using Clock = std::chrono::steady_clock;
    std::vector<double> ta(passes), tb(passes);
    for (int i = 0; i < passes; ++i) {
        Clock::time_point t0 = Clock::now();
        a();
        ta[i] = std::chrono::duration<double>(Clock::now() - t0).count();
        t0 = Clock::now();
        b();
        tb[i] = std::chrono::duration<double>(Clock::now() - t0).count();
    }
    return {spreadOf(ta), spreadOf(tb)};
}

/**
 * The Figure 5/6 CSV body: per-dataflow runtime across `sweep` with
 * evks streamed (first three columns) and on-chip (last three), all
 * graphs cached in `runner` and evaluated on its pool.
 */
inline void
printStreamVsOnchipCsv(ExperimentRunner &runner, const HksParams &b,
                       const std::vector<double> &sweep)
{
    MemoryConfig on{32ull << 20, true};
    MemoryConfig off{32ull << 20, false};
    std::vector<std::vector<SimStats>> cols;
    for (const MemoryConfig &mem : {off, on})
        for (Dataflow d : allDataflows())
            cols.push_back(
                runner.sweep(*runner.experiment(b, d, mem), sweep));

    std::printf("bandwidth_gbps,mp_stream_ms,dc_stream_ms,oc_stream_ms,"
                "mp_onchip_ms,dc_onchip_ms,oc_onchip_ms\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        std::printf("%g", sweep[i]);
        for (const auto &col : cols)
            std::printf(",%.3f", col[i].runtimeMs());
        std::printf("\n");
    }
}

/**
 * Minimal streaming JSON writer: the single code path every
 * BENCH_*.json artifact goes through (the four harnesses used to
 * hand-roll fprintf blocks with four diverging comma/precision
 * conventions). Field order is emission order; commas and nesting are
 * tracked internally, so a harness just declares its fields. Doubles
 * print at %.9g — more precision than any CI gate compares — and
 * every writer finishes with finish(), which closes the root object.
 *
 * The metrics() method embeds an obs::MetricsRegistry as a named
 * sub-object, which is how every artifact gains its machine-readable
 * metrics block.
 */
class JsonWriter
{
  public:
    /** Open the root object on `os` (the artifact file). */
    explicit JsonWriter(std::ostream &os) : os(os)
    {
        os << "{";
        first.push_back(true);
    }

    /** Close the root object; call exactly once, last. */
    void
    finish()
    {
        first.pop_back();
        os << "\n}\n";
    }

    void
    field(const char *name, const char *v)
    {
        key(name);
        os << '"' << escaped(v) << '"';
    }

    void
    field(const char *name, const std::string &v)
    {
        field(name, v.c_str());
    }

    void
    field(const char *name, double v)
    {
        // %.9g would happily print "nan"/"inf", which no JSON parser
        // (including the CI jq gates) accepts — a poisoned metric must
        // fail the emitting harness, not the artifact's consumers.
        panicIf(!std::isfinite(v),
                std::string("JsonWriter: non-finite double for key \"") +
                    name + "\"");
        key(name);
        char b[40];
        std::snprintf(b, sizeof b, "%.9g", v);
        os << b;
    }

    void
    field(const char *name, bool v)
    {
        key(name);
        os << (v ? "true" : "false");
    }

    void
    field(const char *name, std::uint64_t v)
    {
        key(name);
        os << v;
    }

    void
    field(const char *name, int v)
    {
        field(name, static_cast<std::uint64_t>(v));
    }

    void
    beginArray(const char *name)
    {
        key(name);
        os << "[";
        first.push_back(true);
    }

    void
    endArray()
    {
        first.pop_back();
        os << "\n" << indent() << "]";
    }

    /** Begin an anonymous object (an array element). */
    void
    beginObject()
    {
        sep();
        os << "\n" << indent();
        first.push_back(true);
        os << "{";
    }

    void
    endObject()
    {
        first.pop_back();
        os << "}";
    }

    /** Embed `m` as the sub-object field `name`. */
    void
    metrics(const char *name, const obs::MetricsRegistry &m)
    {
        key(name);
        m.writeJson(os);
    }

  private:
    static std::string
    escaped(const char *v)
    {
        std::string out;
        for (; *v != '\0'; ++v) {
            if (*v == '"' || *v == '\\')
                out += '\\';
            out += *v;
        }
        return out;
    }

    std::string
    indent() const
    {
        return std::string(2 * (first.size() - 1), ' ');
    }

    void
    sep()
    {
        if (!first.back())
            os << ",";
        first.back() = false;
    }

    void
    key(const char *name)
    {
        sep();
        os << "\n" << indent() << "\"" << name << "\": ";
    }

    std::ostream &os;
    std::vector<char> first;
};

/** Emit `s` as the fields `name` (median), `name`_min and `name`_iqr. */
inline void
spreadFields(JsonWriter &w, const std::string &name, const Spread &s)
{
    w.field(name.c_str(), s.median);
    w.field((name + "_min").c_str(), s.min);
    w.field((name + "_iqr").c_str(), s.iqr);
}

} // namespace ciflow::benchutil

#endif // CIFLOW_BENCH_BENCH_UTIL_H
