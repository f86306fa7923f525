/**
 * @file
 * Experiment helpers shared by the benchmark harnesses.
 *
 * A task graph depends only on (benchmark, dataflow, memory config) —
 * not on bandwidth or MODOPS — so each experiment builds its graph once
 * and sweeps the timing knobs cheaply. This mirrors the paper's
 * methodology: instruction streams are generated per configuration and
 * dataflow, then evaluated across bandwidths (§V-C, §VI).
 *
 * Compile-once / simulate-many: construction also compiles the graph
 * into a sim::CompiledSchedule for the default RpuLayout (all CodeGen
 * lowering hoisted out of simulate()), and simulate() replays it —
 * a single O(V+E) pass over flat arrays into per-thread scratch, with
 * no allocation on the hot path. Non-default layouts (multi-channel,
 * split pipes, other vector lengths) are kept in a per-experiment
 * layout cache, the one owner of every compiled schedule: scalar and
 * batched simulates alike replay from it, so config sweeps pay one
 * compile per layout for the life of the experiment. A batch's
 * uncached channel-axis layouts fill in one step — one patchable
 * compile, then an in-place channel rebind per further layout.
 */

#ifndef CIFLOW_RPU_EXPERIMENT_H
#define CIFLOW_RPU_EXPERIMENT_H

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "hksflow/dataflow.h"
#include "hksflow/hks_params.h"
#include "rpu/engine.h"

namespace ciflow
{

/** One (benchmark, dataflow, memory) combination, simulated at will. */
class HksExperiment
{
  public:
    HksExperiment(const HksParams &par, Dataflow d,
                  const MemoryConfig &mem);

    /** Simulate at a given bandwidth and MODOPS multiplier. */
    SimStats simulate(double bandwidth_gbps,
                      double modops_mult = 1.0) const;

    /**
     * Runtime-only variant of simulate(): replays the compiled
     * schedule and returns the makespan without packaging SimStats.
     * Allocation-free; the bisection helpers' hot path.
     */
    double simulateRuntime(double bandwidth_gbps,
                           double modops_mult = 1.0) const;

    /** Runtime-only simulate under a full RPU configuration. */
    double simulateRuntime(const RpuConfig &cfg) const;

    /**
     * Batched simulateRuntime: evaluate `n` (bandwidth, MODOPS) points
     * with one walk of the compiled arrays per sim::kBatchLanes-point
     * block (sim::CompiledSchedule::replayMany) instead of n
     * independent replays. out[i] is bit-identical to
     * simulateRuntime(bandwidth_gbps[i], modops_mult[i]). Allocation
     * free after per-thread warm-up; the sweep harnesses' hot path.
     */
    void simulateRuntimeMany(const double *bandwidth_gbps,
                             const double *modops_mult, std::size_t n,
                             double *out) const;

    /** Convenience overload: one MODOPS multiplier for every point. */
    std::vector<double>
    simulateRuntimeMany(const std::vector<double> &bandwidth_gbps,
                        double modops_mult = 1.0) const;

    /**
     * Batched simulateRuntime over full RPU configurations. The points
     * may differ in any knob — rate knobs (bandwidth, MODOPS, clocks,
     * per-channel skew) and layout knobs alike. Consecutive points of
     * one RpuLayout form a run replayed from that layout's cached
     * schedule — in kBatchLanes-wide blocks, or point by point when
     * the run is short (see batchLaneSlots); uncached layouts among the
     * points are filled in one step first (see scheduleFor). out[i] is
     * bit-identical to simulateRuntime(cfgs[i]). Order points by
     * layout for the fewest, fullest runs. Returns how many points
     * replayed on a schedule that a channel rebind produced
     * (patchRevision() > 0) rather than a compile from the graph.
     */
    std::size_t simulateRuntimeMany(const RpuConfig *cfgs, std::size_t n,
                                    double *out) const;

    /**
     * Lane slots simulateRuntimeMany walks for a run of `run`
     * consecutive same-layout points: ceil(run / kBatchLanes) blocks
     * of kBatchLanes slots, or 0 for a run shorter than
     * kBatchLanes / 2, which replays point by point — a lane block
     * costs about a full-width walk whatever its occupancy, so the
     * one-point-per-layout case runs faster scalar.
     */
    static std::size_t batchLaneSlots(std::size_t run);

    /**
     * Simulate under a full RPU configuration (channel count and
     * policy, split pipes, ...). The configuration's memory-system
     * fields are overridden by this experiment's MemoryConfig, which
     * the task graph was built against.
     */
    SimStats simulate(const RpuConfig &cfg) const;

    /** The schedule compiled for the default RpuLayout. */
    const sim::CompiledSchedule &compiled() const { return def; }

    const TaskGraph &graph() const { return g; }
    const HksParams &params() const { return par; }
    Dataflow dataflow() const { return df; }
    const MemoryConfig &memory() const { return mem; }

  private:
    /** Fill in this experiment's memory-system fields. */
    RpuConfig normalized(const RpuConfig &cfg_in) const;

    /**
     * The compiled schedule for cfgs[0]'s layout. On a cache miss,
     * every uncached layout among cfgs[0..n) is filled in one step
     * under layouts_mu: the first miss compiles a transient
     * PatchableSchedule from the graph, each further channel-axis
     * layout (memChannels, channelPolicy) is rebound from it with
     * recompileChannels, and only the finished CompiledSchedules are
     * kept. A miss that changes the pipe split or vector length —
     * the skeleton — compiles from the graph afresh.
     */
    const sim::CompiledSchedule &scheduleFor(const RpuConfig *cfgs,
                                             std::size_t n) const;

    HksParams par;
    Dataflow df;
    MemoryConfig mem;
    TaskGraph g;

    /** Schedule for the default layout, compiled at construction. */
    RpuLayout defLayout;
    sim::CompiledSchedule def;

    /** Lazily filled schedules for other layouts (config sweeps). */
    mutable std::mutex layouts_mu;
    mutable std::vector<
        std::pair<RpuLayout, std::unique_ptr<const sim::CompiledSchedule>>>
        layouts;
};

/** The paper's DDR4..HBM3 sweep points (GB/s). */
const std::vector<double> &paperBandwidthSweep();

/** Extended sweep up to 1 TB/s used for ARK and BTS3 (§VI-C). */
const std::vector<double> &paperBandwidthSweepExtended();

/**
 * Baseline runtime of Table IV: MP at 64 GB/s with evks on-chip and a
 * 32 MiB data memory.
 */
double baselineRuntime(const HksParams &par);

/**
 * Smallest bandwidth (by bisection, within `tol` relative runtime) at
 * which `exp` matches the target runtime; returns +inf when even
 * `hi_gbps` is too slow.
 */
double bandwidthToMatch(const HksExperiment &exp, double target_runtime,
                        double lo_gbps = 1.0, double hi_gbps = 2000.0,
                        double modops_mult = 1.0, double tol = 1e-3);

/**
 * OCbase of Table IV: the paper-grid bandwidth at which OC (evks
 * on-chip) first matches the MP/64GB/s baseline.
 */
double ocBaseBandwidth(const HksParams &par);

/**
 * The Table IV grid rule shared by every OCbase implementation (the
 * serial and runner-aware rpu helpers and the tune-engine scan):
 * the first `grid` bandwidth whose runtime meets `target_runtime`
 * within the paper's 0.1% tolerance, or 64.0 — the baseline
 * bandwidth — when none does. `runtimes` holds one entry per grid
 * point.
 */
double ocBaseFromGrid(const std::vector<double> &grid,
                      const std::vector<double> &runtimes,
                      double target_runtime);

} // namespace ciflow

#endif // CIFLOW_RPU_EXPERIMENT_H
