/**
 * @file
 * ShardedEngine: K identical RPUs plus an interconnect, compiled into
 * one sim::CompiledSchedule.
 *
 * compile() lays out K copies of the single-chip resource block
 * (DRAM channels first, then compute pipe(s) — the exact layout
 * RpuEngine::compile uses), followed by the interconnect's link
 * channels. It records every task's ops once, through the same
 * RpuEngine::lowerTask lowering, and then binds them to the
 * Partition in one pass: each op moves to its chip's block, each
 * chip's memory ops are placed by that chip's own ChannelPlacer in
 * task order, and every cut edge becomes one *transfer task* between
 * its producer and the first consumer on the destination chip: a
 * bytes payload queued on the link (transfers contend like DRAM
 * traffic) plus a pipelined propagation delay
 * (CompiledOp::postSeconds). recompilePartition() runs the same bind
 * for a new partition of the recorded lowering.
 *
 * Because the per-chip lowering is shared with the single-RPU path, a
 * K=1 partition compiles to the identical op stream with no transfer
 * tasks, and its replay is bit-identical to the single-RPU compiled
 * replay (tests/test_shard.cpp pins this).
 *
 * replay()/replayRuntime() evaluate a compiled shard schedule at the
 * chip + link rates through per-thread scratch, so a K-shard simulate
 * allocates nothing after warm-up — placement searches sweep thousands
 * of candidate cuts at full compiled-replay speed.
 */

#ifndef CIFLOW_SHARD_SHARDED_ENGINE_H
#define CIFLOW_SHARD_SHARDED_ENGINE_H

#include "rpu/engine.h"
#include "shard/interconnect.h"
#include "shard/partition.h"
#include "sim/compiled_schedule.h"

namespace ciflow::shard
{

/** A partitioned graph compiled against K chips + interconnect. */
struct ShardedCompiled
{
    sim::CompiledSchedule schedule;
    std::size_t shards = 1;
    /** Resources per chip (channels + pipes). */
    std::size_t perChip = 0;
    /** Link resources after the chip blocks. */
    std::size_t links = 0;
    /** Transfer tasks materialized from the cut. */
    std::size_t transferTasks = 0;
    /** Total payload shipped over the interconnect. */
    std::uint64_t transferBytes = 0;
};

/**
 * A sharded compile plus the partition-independent lowering it was
 * bound from: every graph task's dependency list and compiled op
 * templates (cost numerators, roles, exact memory payloads), recorded
 * once by compilePatchable(). compile() and recompilePartition() both
 * build the schedule from this record with one bind pass — cut
 * transfers, dependency remap, and a fresh ChannelPlacer per shard —
 * so a partition move never consults the graph or CodeGen again. The
 * schedule member replays exactly like a compile() result.
 */
struct ShardedPatchable
{
    ShardedCompiled compiled;
    /** Partition the schedule is currently bound to. */
    Partition part;

    // Partition-independent lowering (recorded once): graph task t's
    // deps are depIds[depOff[t]..depOff[t+1]) and its op templates
    // are index range [opOff[t], opOff[t+1]) below.
    std::vector<std::uint32_t> depOff;
    std::vector<std::uint32_t> depIds;
    std::vector<std::uint32_t> opOff;
    /** Op cost numerators (resource derived at each bind). */
    std::vector<sim::CompiledOp> ops;
    /** Role per recorded op (selects channel vs pipe binding). */
    std::vector<OpRole> roles;
    /** Memory-op payload in bytes (0 for pipe ops). */
    std::vector<std::uint64_t> memBytes;

    // Reusable bind scratch (allocation-free once warm). newId and
    // transferId double as the *current* graph -> schedule id
    // mapping: after compilePatchable or recompilePartition, graph
    // task t is schedule task newId[t] and cut edge j's transfer is
    // schedule task transferId[j] (or ~0 if the edge never
    // materialized) — the fault layer's done masks rely on this.
    std::vector<sim::TaskId> newId, transferId, depScratch;
    std::vector<sim::CompiledOp> opScratch;
};

/** Aggregate results of one sharded simulation. */
struct ShardedStats
{
    /** End-to-end runtime in seconds. */
    double runtime = 0.0;
    std::size_t shards = 1;
    /** DRAM-channel busy seconds, summed over all chips. */
    double memBusy = 0.0;
    /** Compute busy seconds, summed over all chips. */
    double compBusy = 0.0;
    /** Link busy (occupancy) seconds, summed over links. */
    double linkBusy = 0.0;
    std::size_t transferTasks = 0;
    std::uint64_t transferBytes = 0;
    /** Per-resource utilization (chip blocks, then links). */
    std::vector<sim::ResourceUse> resources;
    double runtimeMs() const { return runtime * 1e3; }
};

/** Simulates a partitioned TaskGraph on K chips + interconnect. */
class ShardedEngine
{
  public:
    ShardedEngine(const RpuConfig &chip, const InterconnectConfig &ic)
        : cfg(chip), net(ic)
    {
    }

    /**
     * Lower `g` under partition `p` once. The result can be replayed
     * at any rates of a config sharing the chip layout and topology.
     * Runs compilePatchable() and keeps only its schedule.
     */
    ShardedCompiled compile(const TaskGraph &g,
                            const Partition &p) const;

    /**
     * Record the partition-independent lowering of `g`, then bind it
     * to `p`. The bind appends through the validated addTask, so the
     * compile-time watchdog sees every recorded op template.
     */
    ShardedPatchable compilePatchable(const TaskGraph &g,
                                      const Partition &p) const;

    /**
     * Rebind `ps` to partition `newP` in place with the same bind
     * pass compile() runs: the task CSR is rebuilt from the recorded
     * op templates (no graph, no CodeGen, no re-lowering), every shard
     * re-runs channel placement, and the new cut's transfer tasks are
     * materialized. Commits a patch revision (distinct layoutTag).
     * The shard count cannot change — that resizes the resource
     * table's chip blocks, so compile from scratch. The result is
     * bit-identical to compile(g, newP) (tests/test_patch.cpp pins
     * move sequences against from-scratch compiles of the final
     * partition).
     */
    void recompilePartition(ShardedPatchable &ps,
                            const Partition &newP) const;

    /** Replay rates: per-chip channel rates, link rates, work rates. */
    void rates(const ShardedCompiled &sc, sim::ReplayRates &r) const;

    /** Makespan-only replay (allocation-free; the search hot path). */
    double replayRuntime(const ShardedCompiled &sc) const;

    /**
     * Batched makespan-only replay at `n` per-chip DRAM bandwidths
     * (GB/s, aggregate per chip; link rates and every other knob stay
     * at this engine's configuration). Chip bandwidth is a pure replay
     * rate, so all points share the compiled layout and evaluate with
     * one walk of the compiled arrays per sim::kBatchLanes-point block
     * (sim::CompiledSchedule::replayMany). out[i] is bit-identical to
     * replayRuntime on an engine whose chip carries bandwidth i.
     * Panics when `n > 1` and the chip sets per-channel bandwidths
     * (channelGBps): those override the aggregate, which would make a
     * varying sweep silently vacuous. A single point replays the
     * chip's configured (possibly asymmetric) rates exactly.
     */
    void replayRuntimeMany(const ShardedCompiled &sc,
                           const double *chip_bandwidths_gbps,
                           std::size_t n, double *out) const;

    /** Replay plus ShardedStats packaging. */
    ShardedStats replay(const ShardedCompiled &sc) const;

    /** compile() + replay(). */
    ShardedStats run(const TaskGraph &g, const Partition &p) const;

    const RpuConfig &chip() const { return cfg; }
    const InterconnectConfig &interconnect() const { return net; }

  private:
    /**
     * The one bind pass: rebuilds ps.compiled's tasks for partition
     * `p` from the recorded lowering. A `fresh` bind appends through
     * the validated addTask and stamps the layout tag; a rebind
     * appends trusted and commits a patch revision. Either way it
     * panics on a non-finite or negative link latency, the one
     * transfer numerator no other check covers.
     */
    void bind(ShardedPatchable &ps, const Partition &p,
              bool fresh) const;

    RpuConfig cfg;
    InterconnectConfig net;
};

} // namespace ciflow::shard

#endif // CIFLOW_SHARD_SHARDED_ENGINE_H
