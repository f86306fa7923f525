/**
 * @file
 * The benchmark harness: one workload per process, closed loop.
 *
 *   ciflow_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                [--iters N] [--digests FILE] [--spans FILE] [--record]
 *
 * One caller runs iterations back to back for --seconds (default 20),
 * on a pool of one worker pinned with it to one CPU. Set-up runs
 * kSetupReps times, spread over the run, each time replacing the
 * instance the loop drives and followed by one untimed warm-up
 * iteration; setup_s is their median. --iters N instead runs exactly N
 * rounds after a single set-up, for the harness's self-checks. Every
 * iteration's outputs are checked (invariants, a digest equal across
 * iterations, instances and traced/untraced paths, and to any digest
 * FILE records for this workload and seed), and after the loop a
 * second instance with nproc workers must reproduce them. --trace 0
 * prints the end-to-end metrics; --trace 1 alternates untraced and
 * traced iterations, prints the per-layer metrics and fails unless the
 * layer self times account for the untraced median iteration. The last
 * stdout line is one JSON object: correct, attempted, failed and
 * metrics. Any failed check makes the exit code nonzero. --spans FILE
 * writes the traced run's spans as a Chrome trace; --record prints the
 * digest and exact metrics in digests.txt's format.
 */

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

using namespace bench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Fixed number of rounds instead of --seconds (0 = time-bound). */
    std::size_t iters = 0;
    std::string digests;
    /** Where a traced run writes its spans (Chrome trace JSON). */
    std::string spans;
    bool record = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: ciflow_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--iters N] [--digests FILE] "
                 "[--spans FILE] [--record]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--record") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload" || k == "--digests" || k == "--spans") {
            (k == "--workload" ? a.workload
             : k == "--digests" ? a.digests
                                : a.spans) = v;
            continue;
        }
        const double x = std::strtod(v, &end);
        if (end == v || *end != '\0' || !(x >= 0))
            usage(("bad value for " + k).c_str());
        if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = x;
        else if (k == "--trace")
            a.trace = x != 0;
        else if (k == "--iters")
            a.iters = static_cast<std::size_t>(x);
        else
            usage(("unknown option " + k).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** CPUs this process may run on (what `nproc` counts). */
cpu_set_t
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        CPU_SET(0, &set);
    return set;
}

/**
 * Pin this process, and the threads it starts from now on, to the CPU
 * it runs on. Returns that CPU, or -1 when pinning failed.
 */
int
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return -1;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

/** Process high-water RSS in MiB (VmHWM). */
double
peakRssMiB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t r = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    r = std::clamp<std::size_t>(r, 1, v.size());
    return v[r - 1];
}

/** Exact text of a recorded value: hex digest or hex-float count. */
std::string
exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

/** Metrics the workloads report as exact per-iteration values. */
bool
recordedKey(const std::string &k)
{
    return k.rfind("sim_", 0) == 0 || k == "tune_evals";
}

/**
 * Check the digest FILE's entries for (workload, seed or "*"): lines
 * "workload seed key value", '#' comments. Returns how many applied.
 */
std::size_t
checkRecorded(const Args &a, std::uint64_t digest, const Counts &counts,
              Checks &chk)
{
    std::size_t matched = 0;
    if (a.digests.empty())
        return matched;
    std::ifstream f(a.digests);
    if (!chk.expect(bool(f), "cannot read " + a.digests))
        return matched;
    std::string line;
    while (std::getline(f, line)) {
        std::istringstream is(line);
        std::string w, seed, key, value;
        if (!(is >> w >> seed >> key >> value) || w[0] == '#')
            continue;
        if (w != a.workload ||
            (seed != "*" && seed != std::to_string(a.seed)))
            continue;
        std::string got;
        if (key == "digest") {
            got = hex(digest);
        } else {
            const auto it = counts.find(key);
            got = it == counts.end() ? "missing" : exact(it->second);
        }
        ++matched;
        chk.expect(got == value, a.workload + " seed " +
                                     std::to_string(a.seed) + ": " + key +
                                     " is " + got + ", recorded " + value);
    }
    return matched;
}

struct Metric
{
    const char *name;
    const char *unit;
    double value;
};

void
printResult(const Checks &chk, const std::vector<Metric> &ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                chk.failed == 0 ? "true" : "false", chk.calls, chk.failed);
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name,
                    std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                    ms[i].unit);
    std::printf("}}\n");
}

double
get(const Counts &k, const char *name)
{
    const auto it = k.find(name);
    return it == k.end() ? 0.0 : it->second;
}

/** Groups of set-up repetitions, apart from iteration groups. */
constexpr std::uint32_t kSetupGroup = 1u << 30;

/** Set-up repetitions of a time-bound run; setup_s is their median. */
constexpr std::size_t kSetupReps = 9;

/** How closely the traced run's layer self times must sum to the
 * untraced median iteration, and how much of a traced iteration the
 * layer spans must cover (see METRICS.md, Tolerance). */
constexpr double kLayerSumTolerance = 0.15;
constexpr double kMinSpanCoverage = 0.95;

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const std::string buildType = CIFLOW_BENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool assertions = false;
#else
    const bool assertions = true;
#endif
    if (buildType != "Release" || assertions) {
        std::fprintf(stderr,
                     "error: refusing to report from a %s build%s; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     buildType.c_str(),
                     assertions ? " with assertions on" : "");
        return 2;
    }
    if (!makeWorkload(a.workload))
        usage(("unknown workload " + a.workload).c_str());

    const cpu_set_t allowed = allowedCpus();
    const std::size_t cpus =
        static_cast<std::size_t>(std::max(1, CPU_COUNT(&allowed)));
    // The timed loop runs one worker on one CPU: the caller and the
    // worker hand off work hundreds of times per iteration, and
    // cross-CPU wake-ups on a shared host made those hand-offs the
    // noisiest part of a run. nproc workers are used only by the
    // thread-invariance check after the loop.
    const int pinnedCpu = pinToCurrentCpu();
    const Env env{a.seed, 1};
    Checks chk;
    Tracer tracer;
    Tracer *tr = a.trace ? &tracer : nullptr;

    std::vector<double> plainMs, tracedMs;
    std::uint64_t refDigest = 0;
    Counts refCounts;
    bool haveRef = false;
    auto absorb = [&](const IterOut &o, const char *what) {
        if (!haveRef) {
            refDigest = o.digest;
            haveRef = true;
        } else {
            chk.expect(o.digest == refDigest,
                       std::string(what) + " digest differs from the "
                                           "first iteration");
        }
        for (const auto &[k, v] : o.counts) {
            const auto it = refCounts.find(k);
            if (it == refCounts.end())
                refCounts.emplace(k, v);
            else
                chk.expect(std::memcmp(&it->second, &v, sizeof v) == 0,
                           std::string(what) + " " + k +
                               " differs between iterations");
        }
    };

    // Set-up, repeated: once before the loop and then at evenly spaced
    // times within it, each repetition replacing the instance the loop
    // drives. setup_s then samples the machine over the whole run, and
    // every instance must reproduce the first one's outputs.
    std::vector<double> setupS;
    std::unique_ptr<Workload> w;
    auto setUp = [&] {
        w.reset();
        tracer.beginGroup(kSetupGroup +
                          static_cast<std::uint32_t>(setupS.size()));
        const std::int64_t t0 = nowNs();
        std::unique_ptr<Workload> fresh = makeWorkload(a.workload);
        {
            Scope s(tr, "setup");
            fresh->setup(env, tr, chk);
        }
        setupS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        w = std::move(fresh);
        // One untimed iteration lets lazy state and caches fill.
        w->run(nullptr);
        absorb(w->verify(chk), "warm-up");
    };
    setUp();

    // Closed loop. A traced run alternates an untraced and a traced
    // iteration, so both see the same machine state.
    const std::int64_t loop0 = nowNs();
    std::uint32_t iter = 0;
    for (std::size_t round = 0;; ++round) {
        for (bool traced : {false, true}) {
            if (traced && !a.trace)
                continue;
            tracer.beginGroup(iter++);
            const std::int64_t t0 = nowNs();
            {
                Scope s(traced ? tr : nullptr, "iteration");
                w->run(traced ? tr : nullptr);
            }
            const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
            (traced ? tracedMs : plainMs).push_back(ms);
            absorb(w->verify(chk), traced ? "traced" : "untraced");
        }
        const double elapsed = static_cast<double>(nowNs() - loop0) * 1e-9;
        if (a.iters ? round + 1 >= a.iters : elapsed >= a.seconds)
            break;
        if (!a.iters && setupS.size() < kSetupReps &&
            elapsed >= a.seconds * static_cast<double>(setupS.size()) /
                           static_cast<double>(kSetupReps))
            setUp();
    }
    // An untraced run still drives the traced path once, untimed: it
    // yields the exact counts and cross-checks the two paths' outputs.
    if (!a.trace) {
        Tracer scratch;
        w->run(&scratch);
        absorb(w->verify(chk), "traced");
    }

    // High-water RSS of this workload, before the check below adds a
    // second instance.
    const double peakRss = peakRssMiB();

    // Thread invariance: nproc workers must give the one-worker loop's
    // outputs.
    const bool threaded = w->threaded();
    if (threaded && cpus > 1) {
        w.reset();
        sched_setaffinity(0, sizeof allowed, &allowed);
        std::unique_ptr<Workload> other = makeWorkload(a.workload);
        other->setup(Env{a.seed, cpus}, nullptr, chk);
        other->run(nullptr);
        const IterOut o = other->verify(chk);
        const std::string widths =
            "1 and " + std::to_string(cpus) + " threads";
        chk.expect(o.digest == refDigest, "digest differs between " + widths);
        for (const auto &[k, v] : o.counts)
            if (recordedKey(k))
                chk.expect(std::memcmp(&refCounts[k], &v, sizeof v) == 0,
                           k + " differs between " + widths);
    }

    const std::size_t recordedChecks =
        checkRecorded(a, refDigest, refCounts, chk);
    for (const auto &[k, v] : refCounts)
        chk.expect(std::isfinite(v), k + " is not finite");

    const double p50 = median(plainMs);
    const double itS = p50 * 1e-3;

    // Per-layer self time: medians over traced iterations, or over
    // set-up repetitions for the set-up layers.
    const auto self = tracer.selfTimesMs();
    auto layerMs = [&](const char *span, bool setup) {
        std::vector<double> v;
        for (const auto &[g, m] : self) {
            if ((g >= kSetupGroup) != setup)
                continue;
            const auto it = m.find(span);
            v.push_back(it == m.end() ? 0.0 : it->second);
        }
        return median(v);
    };
    double layerSum = 0.0;
    for (const char *s :
         {"hksflow.build", "rpu.compile", "rpu.rates", "sim.replay",
          "sim.replay_many", "tune.cd", "tune.hc", "tune.ocbase", "serve.run",
          "serve.fault_run"})
        layerSum += layerMs(s, false);
    std::vector<double> coverage;
    for (const auto &[g, m] : self) {
        if (g >= kSetupGroup)
            continue;
        double total = 0.0;
        for (const auto &[name, v] : m)
            total += v;
        coverage.push_back(ratio(total - m.at("iteration"), total));
    }
    const double layerSumOverP50 = ratio(layerSum, p50);
    const double spanCoverage = median(coverage);
    // The per-layer profile must describe the timed iterations. A run of
    // a few --iters rounds has too few samples for a steady median.
    if (a.trace && !a.iters) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "layer self times sum to %.3f of the untraced "
                      "iter_ms_p50, outside 1 +- %.2f",
                      layerSumOverP50, kLayerSumTolerance);
        chk.expect(std::abs(layerSumOverP50 - 1.0) <= kLayerSumTolerance,
                   buf);
        std::snprintf(buf, sizeof buf,
                      "layer spans cover %.3f of a traced iteration, "
                      "below %.2f",
                      spanCoverage, kMinSpanCoverage);
        chk.expect(spanCoverage >= kMinSpanCoverage, buf);
    }

    const char *compiler =
#if defined(__clang__)
        "clang " __clang_version__;
#elif defined(__GNUC__)
        "GCC " __VERSION__;
#else
        "unknown";
#endif
    std::printf("# workload=%s seed=%" PRIu64 " trace=%d\n",
                a.workload.c_str(), a.seed, a.trace ? 1 : 0);
    std::printf("# env nproc=%zu pinned_cpu=%d threads=1 "
                "check_threads=%zu compiler=\"%s\" build=%s "
                "iterations=%zu traced_iterations=%zu setup_reps=%zu "
                "digest=%s recorded_checks=%zu\n",
                cpus, pinnedCpu, threaded ? cpus : std::size_t(1), compiler,
                buildType.c_str(), plainMs.size(), tracedMs.size(),
                setupS.size(), hex(refDigest).c_str(), recordedChecks);
    for (const std::string &m : chk.messages)
        std::printf("# FAIL %s\n", m.c_str());
    if (a.record) {
        std::printf("%s %" PRIu64 " digest %s\n", a.workload.c_str(),
                    a.seed, hex(refDigest).c_str());
        for (const auto &[k, v] : refCounts)
            if (recordedKey(k))
                std::printf("%s %" PRIu64 " %s %s\n", a.workload.c_str(),
                            a.seed, k.c_str(), exact(v).c_str());
    }

    // Workload-level figures; rates are over the untraced median.
    const Counts &k = refCounts;
    const double sims = get(k, "sims"), evals = get(k, "tune.evaluations"),
                 jobs = get(k, "jobs");
    const std::vector<Metric> figures = {
        {"iter_ms_p50", "ms", p50},
        {"iter_ms_min", "ms", percentile(plainMs, 0.0)},
        {"sims_per_s", "1/s", ratio(sims, itS)},
        {"evals_per_s", "1/s", ratio(evals, itS)},
        {"jobs_per_s", "1/s", ratio(jobs, itS)},
        {"failed_frac", "ratio",
         ratio(static_cast<double>(chk.failed), static_cast<double>(chk.calls))},
        {"sim_p99_ms", "ms", get(k, "sim_p99_ms")},
        {"sim_qps", "1/s", get(k, "sim_qps")},
        {"sim_degraded_p99_ms", "ms", get(k, "sim_degraded_p99_ms")},
        {"tune_evals", "count", get(k, "tune_evals")},
    };
    std::vector<Metric> ms;
    if (!a.trace) {
        ms = {
            {"setup_s", "s", median(setupS)},
            {"iter_ms_p90", "ms", percentile(plainMs, 0.90)},
            {"peak_rss_mb", "MiB", peakRss},
        };
        // The JSON line keeps the metrics every workload has; the
        // workload-specific figures are printed for reading.
        for (const Metric &m : ms)
            std::printf("%-24s %16.6f %s\n", m.name, m.value, m.unit);
        for (const Metric &m : figures)
            if (m.value != 0.0 || std::strcmp(m.name, "failed_frac") == 0)
                std::printf("%-24s %16.6f %s\n", m.name, m.value, m.unit);
    } else {
        const double tp50 = median(tracedMs);
        const double replayMs = layerMs("sim.replay", false),
                     manyMs = layerMs("sim.replay_many", false),
                     tuneMs = layerMs("tune.cd", false) +
                              layerMs("tune.hc", false) +
                              layerMs("tune.ocbase", false),
                     runMs = layerMs("serve.run", false),
                     faultMs = layerMs("serve.fault_run", false);
        ms = figures;
        ms.insert(ms.end(), {
            {"hksflow.build_ms", "ms", layerMs("hksflow.build", false)},
            {"hksflow.graphs", "count", get(k, "hksflow.graphs")},
            {"hksflow.tasks", "count", get(k, "hksflow.tasks")},
            {"rpu.compile_ms", "ms", layerMs("rpu.compile", false)},
            {"rpu.compiles", "count", get(k, "rpu.compiles")},
            {"rpu.rates_ms", "ms", layerMs("rpu.rates", false)},
            {"rpu.runner_cache_hit_rate", "ratio",
             get(k, "rpu.runner_cache_hit_rate")},
            {"sim.replay_ms", "ms", replayMs},
            {"sim.replays", "count", get(k, "sim.replays")},
            {"sim.replay_ns_per_op", "ns",
             ratio(replayMs * 1e6, get(k, "sim.replay_ops"))},
            {"sim.replay_many_ms", "ms", manyMs},
            {"sim.replay_many_points", "count",
             get(k, "sim.replay_many_points")},
            {"sim.replay_many_ns_per_op_point", "ns",
             ratio(manyMs * 1e6, get(k, "sim.replay_many_op_points"))},
            {"tune.reference_ms", "ms", layerMs("tune.reference", true)},
            {"tune.cd_ms", "ms", layerMs("tune.cd", false)},
            {"tune.hc_ms", "ms", layerMs("tune.hc", false)},
            {"tune.ocbase_ms", "ms", layerMs("tune.ocbase", false)},
            {"tune.us_per_eval", "us", ratio(tuneMs * 1e3, evals)},
            {"tune.evaluations", "count", evals},
            {"tune.cache_hit_rate", "ratio", get(k, "tune.cache_hit_rate")},
            {"tune.patched_evals", "count", get(k, "tune.patched_evals")},
            {"tune.batch_lane_occupancy", "ratio",
             get(k, "tune.batch_lane_occupancy")},
            {"serve.price_ms", "ms", layerMs("serve.price", true)},
            {"serve.assets_ms", "ms", layerMs("serve.assets", true)},
            {"serve.arrivals_ms", "ms", layerMs("serve.arrivals", true)},
            {"fault.sample_ms", "ms", layerMs("fault.sample", true)},
            {"serve.run_ms", "ms", runMs},
            {"serve.us_per_job", "us", ratio(runMs * 1e3, jobs)},
            {"serve.fault_run_ms", "ms", faultMs},
            {"serve.fault_us_per_job", "us",
             ratio(faultMs * 1e3, get(k, "arrivals"))},
            {"fault.trace_events", "count", get(k, "fault.trace_events")},
            {"serve.warm_op_frac", "ratio", get(k, "serve.warm_op_frac")},
            {"serve.batched_frac", "ratio", get(k, "serve.batched_frac")},
            {"serve.max_queue_depth", "count",
             get(k, "serve.max_queue_depth")},
            {"serve.degraded_frac", "ratio", get(k, "serve.degraded_frac")},
            {"serve.retries", "count", get(k, "serve.retries")},
            {"serve.salvaged", "count", get(k, "serve.salvaged")},
            {"serve.rejected_frac", "ratio", get(k, "serve.rejected_frac")},
            {"fault.chip_failures", "count", get(k, "fault.chip_failures")},
            {"fault.failovers", "count", get(k, "fault.failovers")},
            {"bench.harness_ms", "ms", layerMs("iteration", false)},
            {"bench.trace_overhead", "ratio", ratio(tp50, p50)},
            {"bench.span_coverage", "ratio", spanCoverage},
            {"bench.layer_sum_over_p50", "ratio", layerSumOverP50},
        });
        for (const Metric &m : ms)
            std::printf("%-34s %16.6f %s\n", m.name, m.value, m.unit);
        // Every set-up and the last four rounds: all spans of a long
        // dse_sweep run would take tens of MB.
        const std::uint32_t fromGroup = iter > 8 ? iter - 8 : 0;
        if (!a.spans.empty() && !tracer.writeChromeTrace(a.spans, fromGroup))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         a.spans.c_str());
    }
    printResult(chk, ms);
    return chk.failed == 0 ? 0 : 1;
}
