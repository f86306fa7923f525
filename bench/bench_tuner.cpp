/**
 * @file
 * Auto-tuner strategy study over the paper's co-design knobs.
 *
 * For every paper benchmark this builds the joint
 * (dataflow x capacity x bandwidth x channels x MODOPS) grid — the
 * axes Tables IV/V and Figures 8/9 sweep one at a time — and runs the
 * three tune strategies against it:
 *
 *  - exhaustive grid: the ground-truth optimum and Pareto frontier;
 *  - coordinate descent on a fresh cache: must rediscover the grid
 *    optimum bit-identically while evaluating < 50% of the grid;
 *  - random-restart hill climb sharing the descent's cache: shows
 *    cross-strategy cache reuse.
 *
 * It also re-derives Table IV's OCbase through the tune engine
 * (tune::ocBaseBandwidth over ocBaseSpace()) and requires it to equal
 * the rpu-layer grid scan bit-identically.
 *
 * The layout-axis section measures how fast the tuner can explore the
 * channel-layout axes (memChannels x channelPolicy): one fresh
 * compile + replay per layout point (what a layout move cost before
 * the experiment cached compiled layouts) vs the tuner's own route,
 * one HksExperiment::simulateRuntimeMany batch over the whole grid
 * replayed from the experiment's layout cache — after asserting the
 * batch is bit-identical to the fresh compiles. Both sides are timed
 * as the median of kLayoutTrials passes; the first batch, which fills
 * the cache (one compile, then in-place rebinds), is reported
 * separately as layout_fill_ms. CI gates layout_axis_speedup >= 10x.
 *
 * Emits BENCH_tune.json for the CI artifact trail and exits nonzero
 * when any benchmark misses a gate — the tuner failing to rediscover
 * the paper's operating points is a regression, not a warning.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "tune/tuner.h"

using namespace ciflow;
using namespace ciflow::tune;

namespace
{

struct Row
{
    std::string benchmark;
    std::size_t spacePoints = 0;
    double exhaustiveBestMs = 0.0;
    double cdBestMs = 0.0;
    std::size_t cdEvals = 0;
    double cdFrac = 0.0;
    double hcBestMs = 0.0;
    std::size_t hcEvals = 0;
    std::size_t hcHits = 0;
    /** Lifetime EvalCache traffic of the cd+hc tuner. */
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;
    std::size_t paretoPoints = 0;

    /** Fraction of cd+hc lookups served from the shared cache. */
    double
    cacheHitRate() const
    {
        const std::size_t total = cacheHits + cacheMisses;
        return total > 0
                   ? static_cast<double>(cacheHits) /
                         static_cast<double>(total)
                   : 0.0;
    }
    double ocbaseGbps = 0.0;
    double ocbaseRefGbps = 0.0;
    std::string bestConfig;
    bool pass = false;

    /** Evaluations the cd+hc tuner served through the patch path. */
    std::size_t patchedEvals = 0;
    /** Layout points in the layout-axis sweep. */
    std::size_t layoutPoints = 0;
    /** Layout-axis evals/sec, one fresh compile per point. */
    double layoutFreshPerSec = 0.0;
    /** Layout-axis evals/sec, one batch from the layout cache. */
    double layoutPatchedPerSec = 0.0;
    /** Host time of the first batch, which fills the layout cache. */
    double layoutFillMs = 0.0;

    double
    layoutAxisSpeedup() const
    {
        return layoutFreshPerSec > 0.0
                   ? layoutPatchedPerSec / layoutFreshPerSec
                   : 0.0;
    }
};

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The channel-layout grid of the layout-axis study: every channel
 * count x policy combination, all other knobs fixed — pure layout
 * moves, the worst case for a compile-per-layout tuner.
 */
std::vector<RpuConfig>
layoutAxisConfigs(const MemoryConfig &mem)
{
    std::vector<RpuConfig> cfgs;
    for (std::size_t ch : {1, 2, 4, 8})
        for (ChannelPolicy pol :
             {ChannelPolicy::Interleave, ChannelPolicy::EvkDedicated,
              ChannelPolicy::LeastLoaded}) {
            RpuConfig cfg;
            cfg.dataMemBytes = mem.dataCapacityBytes;
            cfg.evkOnChip = mem.evkOnChip;
            cfg.memChannels = ch;
            cfg.channelPolicy = pol;
            cfgs.push_back(cfg);
        }
    return cfgs;
}

/** Timed passes per side of the layout-axis study. */
constexpr int kLayoutTrials = 61;

/** Host seconds of one call of `pass`. */
double
timed(const std::function<void()> &pass)
{
    const Clock::time_point t0 = Clock::now();
    pass();
    return secondsSince(t0);
}

/** Median of `t` (reorders it). */
double
median(std::vector<double> &t)
{
    std::nth_element(t.begin(), t.begin() + t.size() / 2, t.end());
    return t[t.size() / 2];
}

/** Measure the layout-axis fresh vs cached rates for one row. */
void
measureLayoutAxis(const HksParams &par, Row &r)
{
    const MemoryConfig mem{32ull << 20, false};
    const HksExperiment exp(par, Dataflow::OC, mem);
    const std::vector<RpuConfig> cfgs = layoutAxisConfigs(mem);
    r.layoutPoints = cfgs.size();
    std::vector<double> out(cfgs.size());
    std::vector<double> fresh(cfgs.size());

    // Fresh path: every layout move pays a full compile, as a tuner
    // without the layout cache would on each visit of a layout.
    auto freshPass = [&] {
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const RpuEngine eng(cfgs[i]);
            fresh[i] = eng.replayRuntime(eng.compile(exp.graph()));
        }
    };
    // The tuner's route: one batch across every layout.
    auto batchPass = [&] {
        exp.simulateRuntimeMany(cfgs.data(), cfgs.size(), out.data());
    };

    // The first batch fills the layout cache; time it on its own.
    r.layoutFillMs = timed(batchPass) * 1e3;

    // Correctness first: the cached batch (rebound layouts included)
    // must reproduce a fresh compile bit-identically at every layout.
    freshPass();
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        if (out[i] != fresh[i]) {
            std::fprintf(stderr,
                         "FAIL: %s: cached layout batch differs from "
                         "a fresh compile at point %zu\n",
                         par.name.c_str(), i);
            r.pass = false;
        }
    }

    // Trials alternate the two sides, so a slow phase of the host
    // lands on both medians rather than on one side only. Each timed
    // batch follows an untimed one: the fresh pass's compiles evict
    // the cached schedules, and both sides are timed in steady state.
    std::vector<double> tFresh(kLayoutTrials), tBatch(kLayoutTrials);
    for (int k = 0; k < kLayoutTrials; ++k) {
        tFresh[k] = timed(freshPass);
        batchPass();
        tBatch[k] = timed(batchPass);
    }
    const double n = static_cast<double>(cfgs.size());
    r.layoutFreshPerSec = n / median(tFresh);
    r.layoutPatchedPerSec = n / median(tBatch);
}

} // namespace

int
main()
{
    benchutil::header("Auto-tuner: strategies over (dataflow, "
                      "capacity, bandwidth, channels, MODOPS)");

    ExperimentRunner runner;
    const std::vector<HksParams> &benches = paperBenchmarks();
    std::vector<Row> rows(benches.size());

    // The cd+hc tuners outlive the jobs: their counters feed the
    // artifact's metrics block after the pool drains (per-benchmark
    // prefixes, exported serially so the block is deterministic).
    std::vector<std::unique_ptr<Tuner>> searches(benches.size());
    for (std::size_t i = 0; i < benches.size(); ++i)
        searches[i] = std::make_unique<Tuner>(
            runner, benches[i], paperJointSpace(benches[i]));

    // One tuner pipeline per benchmark, fanned out on the pool; each
    // strategy inside fans out its own sweeps (nested runAll).
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < benches.size(); ++i)
        jobs.push_back([&runner, &benches, &rows, &searches, i] {
            const HksParams &par = benches[i];
            Row &r = rows[i];
            r.benchmark = par.name;

            Tuner exhaustive(runner, par, paperJointSpace(par));
            const TuneResult ex = exhaustive.tune(
                {.strategy = Strategy::ExhaustiveGrid});
            r.spacePoints = ex.spaceSize;
            r.exhaustiveBestMs = ex.best.m.runtime * 1e3;
            r.paretoPoints = ex.frontier.size();
            r.bestConfig = ex.best.point.describe();

            // Fresh cache: the descent pays its own evaluations.
            Tuner &search = *searches[i];
            const TuneResult cd = search.tune(
                {.strategy = Strategy::CoordinateDescent});
            r.cdBestMs = cd.best.m.runtime * 1e3;
            r.cdEvals = cd.evaluations;
            r.cdFrac = cd.evalFraction();

            // Hill climb on the same tuner reuses the descent's cache.
            const TuneResult hc = search.tune(
                {.strategy = Strategy::RandomRestartHillClimb});
            r.hcBestMs = hc.best.m.runtime * 1e3;
            r.hcEvals = hc.evaluations;
            r.hcHits = hc.cacheHits;
            // Lifetime hit/miss traffic of the shared cd+hc cache:
            // the reuse a future batched tuner must beat.
            r.cacheHits = search.cacheHits();
            r.cacheMisses = search.evaluations();

            // Table IV's OCbase through the tune engine.
            Tuner ocb(runner, par, ocBaseSpace());
            r.ocbaseGbps = tune::ocBaseBandwidth(
                ocb, baselineRuntime(runner, par));
            r.ocbaseRefGbps = ciflow::ocBaseBandwidth(runner, par);

            r.pass = r.cdBestMs == r.exhaustiveBestMs &&
                     2 * r.cdEvals < r.spacePoints &&
                     r.hcBestMs == r.exhaustiveBestMs &&
                     r.ocbaseGbps == r.ocbaseRefGbps;
            r.patchedEvals = search.patchedEvals();
        });
    runner.runAll(jobs);

    // Timed layout-axis study, serial so the pool is quiet.
    for (std::size_t i = 0; i < benches.size(); ++i)
        measureLayoutAxis(benches[i], rows[i]);

    std::printf("%-9s | %5s | %9s %9s %6s %5s | %9s | %6s %6s | %6s\n",
                "Benchmark", "grid", "best(ms)", "cd(ms)", "evals",
                "frac", "hc(ms)", "pareto", "OCbase", "status");
    benchutil::rule();
    bool all_pass = true;
    for (const Row &r : rows) {
        std::printf("%-9s | %5zu | %9.3f %9.3f %6zu %4.0f%% | %9.3f | "
                    "%6zu %5.1fG | %6s\n",
                    r.benchmark.c_str(), r.spacePoints,
                    r.exhaustiveBestMs, r.cdBestMs, r.cdEvals,
                    r.cdFrac * 100.0, r.hcBestMs, r.paretoPoints,
                    r.ocbaseGbps, r.pass ? "ok" : "FAIL");
        all_pass = all_pass && r.pass;
    }
    benchutil::rule();
    for (const Row &r : rows)
        std::printf("%-9s best: %s\n", r.benchmark.c_str(),
                    r.bestConfig.c_str());
    for (const Row &r : rows)
        std::printf("%-9s eval cache (cd+hc): %zu hits / %zu misses "
                    "(%.0f%% hit rate), %zu patched evals\n",
                    r.benchmark.c_str(), r.cacheHits, r.cacheMisses,
                    r.cacheHitRate() * 100.0, r.patchedEvals);
    std::printf("\ncd/hc must match the exhaustive optimum "
                "bit-identically; cd must evaluate < 50%% of the "
                "grid; OCbase must equal the rpu-layer grid scan.\n");

    std::printf("\n");
    benchutil::header("Layout-axis exploration: fresh compile per "
                      "layout vs the layout cache");
    std::printf("%-9s | %6s | %11s %13s | %8s | %8s\n", "Benchmark",
                "points", "fresh ev/s", "cached ev/s", "speedup",
                "fill ms");
    benchutil::rule();
    bool meets_layout_target = true;
    for (const Row &r : rows) {
        std::printf("%-9s | %6zu | %11.0f %13.0f | %7.1fx | %8.3f\n",
                    r.benchmark.c_str(), r.layoutPoints,
                    r.layoutFreshPerSec, r.layoutPatchedPerSec,
                    r.layoutAxisSpeedup(), r.layoutFillMs);
        meets_layout_target =
            meets_layout_target && r.layoutAxisSpeedup() >= 10.0;
    }
    benchutil::rule();
    std::printf("fresh   = RpuEngine::compile + replayRuntime per "
                "layout point (uncached tuner cost)\n");
    std::printf("cached  = one simulateRuntimeMany batch over the grid "
                "from the layout cache\n");
    std::printf("both sides: median of %d passes; fill = first batch, "
                "which fills the cache\n",
                kLayoutTrials);
    if (!meets_layout_target)
        std::fprintf(stderr,
                     "warning: layout-axis speedup below the 10x CI "
                     "gate on this machine\n");

    // Metrics block: the runner's graph cache plus each benchmark's
    // cd+hc tuner (evaluations, cache hits, patched evals, batch-lane
    // occupancy), exported serially for a deterministic artifact.
    obs::MetricsRegistry metrics;
    runner.exportMetrics(metrics);
    for (std::size_t i = 0; i < benches.size(); ++i)
        searches[i]->exportMetrics(
            metrics, "tuner." + rows[i].benchmark + ".");

    std::ofstream jf("BENCH_tune.json");
    if (jf) {
        benchutil::JsonWriter w(jf);
        w.field("bench", "tuner");
        w.beginArray("rows");
        for (const Row &r : rows) {
            w.beginObject();
            w.field("benchmark", r.benchmark);
            w.field("space_points", r.spacePoints);
            w.field("exhaustive_best_ms", r.exhaustiveBestMs);
            w.field("cd_best_ms", r.cdBestMs);
            w.field("cd_evals", r.cdEvals);
            w.field("cd_eval_frac", r.cdFrac);
            w.field("hc_best_ms", r.hcBestMs);
            w.field("hc_evals", r.hcEvals);
            w.field("hc_cache_hits", r.hcHits);
            w.field("eval_cache_hits", r.cacheHits);
            w.field("eval_cache_misses", r.cacheMisses);
            w.field("eval_cache_hit_rate", r.cacheHitRate());
            w.field("pareto_points", r.paretoPoints);
            w.field("patched_evals", r.patchedEvals);
            w.field("layout_points", r.layoutPoints);
            w.field("layout_fresh_evals_per_sec", r.layoutFreshPerSec);
            w.field("layout_patched_evals_per_sec",
                    r.layoutPatchedPerSec);
            w.field("layout_axis_speedup", r.layoutAxisSpeedup());
            w.field("layout_fill_ms", r.layoutFillMs);
            w.field("ocbase_gbps", r.ocbaseGbps);
            w.field("ocbase_ref_gbps", r.ocbaseRefGbps);
            w.field("best_config", r.bestConfig);
            w.field("pass", r.pass);
            w.endObject();
        }
        w.endArray();
        w.metrics("metrics", metrics);
        w.finish();
        jf.close();
        std::printf("wrote BENCH_tune.json\n");
    }

    if (!all_pass) {
        std::fprintf(stderr, "FAIL: a tuner gate was missed (see "
                             "status column)\n");
        return 1;
    }
    return 0;
}
