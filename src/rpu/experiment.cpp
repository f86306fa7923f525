#include "rpu/experiment.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace ciflow
{

HksExperiment::HksExperiment(const HksParams &par_, Dataflow d,
                             const MemoryConfig &mem_)
    : par(par_), df(d), mem(mem_), g(buildHksGraph(par_, d, mem_)),
      defLayout(RpuLayout::of(RpuConfig{})),
      def(RpuEngine(RpuConfig{}).compile(g))
{
}

RpuConfig
HksExperiment::normalized(const RpuConfig &cfg_in) const
{
    RpuConfig cfg = cfg_in;
    cfg.dataMemBytes = mem.dataCapacityBytes;
    cfg.evkOnChip = mem.evkOnChip;
    return cfg;
}

const sim::CompiledSchedule &
HksExperiment::scheduleFor(const RpuConfig *cfgs, std::size_t n) const
{
    const RpuLayout want = RpuLayout::of(cfgs[0]);
    if (want == defLayout)
        return def;
    // Called with layouts_mu held.
    auto cached =
        [this](const RpuLayout &l) -> const sim::CompiledSchedule * {
        if (l == defLayout)
            return &def;
        for (const auto &[k, cs] : layouts)
            if (k == l)
                return cs.get();
        return nullptr;
    };
    std::lock_guard<std::mutex> lk(layouts_mu);
    if (const sim::CompiledSchedule *cs = cached(want))
        return *cs;
    // Fill every miss among the points in one step. A patched binding
    // is bit-identical to a fresh compile of its layout
    // (tests/test_patch.cpp), so each further channel-axis layout is
    // one rebind pass; the transient patchable schedule is dropped on
    // return and only the finished schedules stay cached.
    PatchableSchedule ps;
    bool have = false;
    for (std::size_t i = 0; i < n; ++i) {
        const RpuLayout l = RpuLayout::of(cfgs[i]);
        if (cached(l))
            continue;
        const RpuEngine eng(normalized(cfgs[i]));
        if (have && l.splitComputePipes == ps.layout.splitComputePipes &&
            l.vectorLen == ps.layout.vectorLen) {
            eng.recompileChannels(ps);
        } else {
            ps = eng.compilePatchable(g);
            have = true;
        }
        layouts.emplace_back(
            l, std::make_unique<const sim::CompiledSchedule>(
                   ps.schedule));
    }
    return *cached(want);
}

SimStats
HksExperiment::simulate(double bandwidth_gbps, double modops_mult) const
{
    RpuConfig cfg;
    cfg.bandwidthGBps = bandwidth_gbps;
    cfg.modopsMult = modops_mult;
    return simulate(cfg);
}

double
HksExperiment::simulateRuntime(double bandwidth_gbps,
                               double modops_mult) const
{
    RpuConfig cfg;
    cfg.bandwidthGBps = bandwidth_gbps;
    cfg.modopsMult = modops_mult;
    return simulateRuntime(cfg);
}

double
HksExperiment::simulateRuntime(const RpuConfig &cfg_in) const
{
    const RpuConfig cfg = normalized(cfg_in);
    return RpuEngine(cfg).replayRuntime(scheduleFor(&cfg, 1));
}

namespace
{

/**
 * Per-thread batched-replay buffers: the per-point ReplayRates (each
 * reusing its bytesPerSec vector) and the block scratch are shared by
 * every batched simulate on this thread, so repeated batches allocate
 * nothing once warm.
 */
struct BatchTls
{
    std::vector<sim::ReplayRates> rates;
    sim::BatchScratch scratch;
    std::vector<RpuConfig> cfgs;
};

BatchTls &
batchTls()
{
    thread_local BatchTls tls;
    return tls;
}

} // namespace

std::size_t
HksExperiment::simulateRuntimeMany(const RpuConfig *cfgs, std::size_t n,
                                   double *out) const
{
    BatchTls &tls = batchTls();
    std::size_t patched = 0;
    std::size_t i = 0;
    while (i < n) {
        // Layout depends only on channel/pipe knobs, which
        // normalized() never touches, so the raw configs group runs.
        const RpuLayout layout = RpuLayout::of(cfgs[i]);
        std::size_t j = i + 1;
        while (j < n && RpuLayout::of(cfgs[j]) == layout)
            ++j;
        const std::size_t run = j - i;
        // A miss fills every uncached layout of the rest of the batch,
        // so later runs hit the cache.
        const sim::CompiledSchedule &cs = scheduleFor(cfgs + i, n - i);
        if (batchLaneSlots(run) == 0) {
            // Bit-identical either way: replayMany lanes equal scalar
            // replays.
            for (std::size_t k = 0; k < run; ++k)
                out[i + k] = RpuEngine(normalized(cfgs[i + k]))
                                 .replayRuntime(cs);
        } else {
            if (tls.rates.size() < run)
                tls.rates.resize(run);
            for (std::size_t k = 0; k < run; ++k)
                RpuEngine(normalized(cfgs[i + k]))
                    .rates(cs, tls.rates[k]);
            cs.replayMany(tls.rates.data(), run, tls.scratch);
            for (std::size_t k = 0; k < run; ++k)
                out[i + k] = tls.scratch.makespan[k];
        }
        if (cs.patchRevision() > 0)
            patched += run;
        i = j;
    }
    return patched;
}

std::size_t
HksExperiment::batchLaneSlots(std::size_t run)
{
    if (run < sim::kBatchLanes / 2)
        return 0;
    return (run + sim::kBatchLanes - 1) / sim::kBatchLanes *
           sim::kBatchLanes;
}

void
HksExperiment::simulateRuntimeMany(const double *bandwidth_gbps,
                                   const double *modops_mult,
                                   std::size_t n, double *out) const
{
    BatchTls &tls = batchTls();
    if (tls.cfgs.size() < n)
        tls.cfgs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Reset the reused slot: a previous batch on this thread may
        // have left non-default layout knobs behind.
        tls.cfgs[i] = RpuConfig{};
        tls.cfgs[i].bandwidthGBps = bandwidth_gbps[i];
        tls.cfgs[i].modopsMult = modops_mult[i];
    }
    simulateRuntimeMany(tls.cfgs.data(), n, out);
}

std::vector<double>
HksExperiment::simulateRuntimeMany(
    const std::vector<double> &bandwidth_gbps, double modops_mult) const
{
    const std::size_t n = bandwidth_gbps.size();
    const std::vector<double> mults(n, modops_mult);
    std::vector<double> out(n);
    simulateRuntimeMany(bandwidth_gbps.data(), mults.data(), n,
                        out.data());
    return out;
}

SimStats
HksExperiment::simulate(const RpuConfig &cfg_in) const
{
    const RpuConfig cfg = normalized(cfg_in);
    const RpuEngine engine(cfg);
    return engine.replay(scheduleFor(&cfg, 1), g);
}

const std::vector<double> &
paperBandwidthSweep()
{
    // DDR4 (8..25.6), DDR5 (32..64) -- the paper's core sweep.
    static const std::vector<double> kSweep = {8,    12.8, 16,  25.6,
                                               32,   48,   64};
    return kSweep;
}

const std::vector<double> &
paperBandwidthSweepExtended()
{
    // Extended through HBM2 (..410) to HBM3 (1000).
    static const std::vector<double> kSweep = {
        8,   12.8, 16,  25.6, 32,  48,  64,
        128, 256,  410, 512,  768, 1000};
    return kSweep;
}

double
baselineRuntime(const HksParams &par)
{
    MemoryConfig mem;
    mem.dataCapacityBytes = 32ull << 20;
    mem.evkOnChip = true;
    HksExperiment exp(par, Dataflow::MP, mem);
    return exp.simulateRuntime(64.0);
}

double
bandwidthToMatch(const HksExperiment &exp, double target_runtime,
                 double lo_gbps, double hi_gbps, double modops_mult,
                 double tol)
{
    if (exp.simulateRuntime(hi_gbps, modops_mult) >
        target_runtime * (1 + tol)) {
        return std::numeric_limits<double>::infinity();
    }
    double lo = lo_gbps, hi = hi_gbps;
    for (int iter = 0; iter < 60 && (hi - lo) > 1e-6 * hi; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (exp.simulateRuntime(mid, modops_mult) <=
            target_runtime * (1 + tol)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return hi;
}

double
ocBaseBandwidth(const HksParams &par)
{
    const double target = baselineRuntime(par);
    MemoryConfig mem;
    mem.dataCapacityBytes = 32ull << 20;
    mem.evkOnChip = true;
    HksExperiment oc(par, Dataflow::OC, mem);
    // One batched replay of the whole paper grid; bit-identical to the
    // per-point simulateRuntime loop this replaced.
    const std::vector<double> &grid = paperBandwidthSweep();
    return ocBaseFromGrid(grid, oc.simulateRuntimeMany(grid), target);
}

double
ocBaseFromGrid(const std::vector<double> &grid,
               const std::vector<double> &runtimes,
               double target_runtime)
{
    panicIf(runtimes.size() != grid.size(),
            "one runtime per grid point required");
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (runtimes[i] <= target_runtime * 1.001)
            return grid[i];
    return 64.0;
}

} // namespace ciflow
