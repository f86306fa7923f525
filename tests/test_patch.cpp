/**
 * @file
 * Tests for incremental compile: patchable CompiledSchedules rebound
 * in place instead of recompiled from the graph.
 *
 * The contract under test is bit-identity: a patched binding must be
 * indistinguishable from a fresh compile of the same target — same
 * runtime, same per-resource busy seconds and job counts, same
 * resource names — across randomized DAGs, every channel layout
 * (count x policy x per-channel skew), batched replay lanes, and
 * multi-shard partition-move sequences. On top of that, layoutTag()
 * must make patched bindings *distinguishable* from the compiler's
 * stamps (revision-mixed tags), so stale cached ReplayRates keep
 * panicking instead of silently replaying a superseded binding.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "rpu/experiment.h"
#include "shard/placement_search.h"
#include "shard/sharded_engine.h"
#include "tune/tuner.h"

using namespace ciflow;

namespace
{

/**
 * Random HKS-shaped DAG: loads (some evk streams), stores, and
 * compute tasks (some shuffle-free, so split-pipe op counts vary),
 * with backward-only dependencies.
 */
TaskGraph
randomGraph(std::mt19937 &rng, std::size_t n)
{
    TaskGraph g;
    std::uniform_int_distribution<int> kind(0, 3);
    std::uniform_int_distribution<std::uint64_t> bytes(1 << 10,
                                                       1 << 20);
    std::uniform_int_distribution<std::uint64_t> ops(100, 10000);
    for (std::size_t i = 0; i < n; ++i) {
        Task t;
        if (i > 0) {
            std::uniform_int_distribution<std::size_t> ndep(0, 3);
            std::uniform_int_distribution<std::uint32_t> dep(
                0, static_cast<std::uint32_t>(i - 1));
            const std::size_t d = ndep(rng);
            for (std::size_t k = 0; k < d; ++k)
                t.deps.push_back(dep(rng));
        }
        switch (kind(rng)) {
        case 0:
            t.kind = TaskKind::MemLoad;
            t.bytes = bytes(rng);
            break;
        case 1:
            t.kind = TaskKind::MemLoad;
            t.bytes = bytes(rng);
            t.isEvk = true;
            break;
        case 2:
            t.kind = TaskKind::MemStore;
            t.bytes = bytes(rng);
            break;
        default:
            t.kind = TaskKind::Compute;
            t.stage = StageId::ModUpKeyMul; // pointwise cost model
            t.modOps = ops(rng);
            t.shuffleOps = (i % 3 == 0) ? 0 : ops(rng);
            break;
        }
        g.push(t);
    }
    return g;
}

void
expectStatsEqual(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.memBusy, b.memBusy);
    EXPECT_EQ(a.compBusy, b.compBusy);
    ASSERT_EQ(a.resources.size(), b.resources.size());
    for (std::size_t r = 0; r < a.resources.size(); ++r) {
        EXPECT_EQ(a.resources[r].name, b.resources[r].name);
        EXPECT_EQ(a.resources[r].busySeconds,
                  b.resources[r].busySeconds);
        EXPECT_EQ(a.resources[r].jobs, b.resources[r].jobs);
    }
}

void
expectShardStatsEqual(const shard::ShardedStats &a,
                      const shard::ShardedStats &b)
{
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.memBusy, b.memBusy);
    EXPECT_EQ(a.compBusy, b.compBusy);
    EXPECT_EQ(a.linkBusy, b.linkBusy);
    EXPECT_EQ(a.transferTasks, b.transferTasks);
    EXPECT_EQ(a.transferBytes, b.transferBytes);
    ASSERT_EQ(a.resources.size(), b.resources.size());
    for (std::size_t r = 0; r < a.resources.size(); ++r) {
        EXPECT_EQ(a.resources[r].busySeconds,
                  b.resources[r].busySeconds);
        EXPECT_EQ(a.resources[r].jobs, b.resources[r].jobs);
    }
}

const std::vector<ChannelPolicy> &
allPolicies()
{
    static const std::vector<ChannelPolicy> pols = {
        ChannelPolicy::Interleave, ChannelPolicy::EvkDedicated,
        ChannelPolicy::LeastLoaded};
    return pols;
}

} // namespace

// A repatched binding replays bit-identically to a fresh compile of
// the same layout — across random DAGs, channel counts, policies,
// per-channel skew, and both pipe splits, with one schedule carried
// through the whole layout walk.
TEST(Patch, ChannelRepatchMatchesFreshCompileOnRandomDags)
{
    std::mt19937 rng(20260808);
    for (int iter = 0; iter < 3; ++iter) {
        const TaskGraph g = randomGraph(rng, 120);
        for (bool split : {false, true}) {
            RpuConfig base;
            base.splitComputePipes = split;
            PatchableSchedule ps =
                RpuEngine(base).compilePatchable(g);
            for (std::size_t ch : {1, 2, 3, 4, 8})
                for (ChannelPolicy pol : allPolicies()) {
                    RpuConfig cfg = base;
                    cfg.memChannels = ch;
                    cfg.channelPolicy = pol;
                    // Skewed per-channel rates on the multi-channel
                    // points: skew is a replay knob, so it must not
                    // disturb binding equivalence.
                    if (ch > 1) {
                        cfg.channelGBps.clear();
                        for (std::size_t c = 0; c < ch; ++c)
                            cfg.channelGBps.push_back(
                                32.0 + 16.0 * static_cast<double>(c));
                    }
                    const RpuEngine eng(cfg);
                    eng.recompileChannels(ps);
                    expectStatsEqual(eng.replay(ps.schedule, g),
                                     eng.replay(eng.compile(g), g));
                }
        }
    }
}

// The layout-crossing sweep: a layout-sorted batch over 6 channel
// layouts x 5 bandwidths replays from the experiment's layout cache,
// long same-layout runs riding the replayMany lanes, bit-identical to
// scalar evaluation, and reports the points that ran on a rebound
// schedule.
TEST(Patch, LayoutSweepMatchesScalarAcrossLanes)
{
    const HksParams &par = benchmarkByName("BTS1");
    const MemoryConfig mem{32ull << 20, false};
    const HksExperiment exp(par, Dataflow::OC, mem);
    const HksExperiment ref(par, Dataflow::OC, mem);

    std::vector<RpuConfig> cfgs;
    for (std::size_t ch : {1, 2, 4})
        for (ChannelPolicy pol :
             {ChannelPolicy::Interleave, ChannelPolicy::LeastLoaded})
            for (double bw : {32.0, 64.0, 128.0, 256.0, 512.0}) {
                RpuConfig cfg;
                cfg.dataMemBytes = mem.dataCapacityBytes;
                cfg.evkOnChip = mem.evkOnChip;
                cfg.memChannels = ch;
                cfg.channelPolicy = pol;
                cfg.bandwidthGBps = bw;
                cfgs.push_back(cfg);
            }

    // The default layout (1 channel, interleave) is compiled at
    // construction; the fill compiles the next layout and rebinds the
    // other four from it, 5 points each.
    std::vector<double> out(cfgs.size());
    EXPECT_EQ(exp.simulateRuntimeMany(cfgs.data(), cfgs.size(),
                                      out.data()),
              20u);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        EXPECT_EQ(out[i], ref.simulateRuntime(cfgs[i])) << i;

    // Short runs (below the lane threshold) replay scalar; exercise
    // that path too by interleaving cached, rebound layouts point by
    // point.
    std::vector<RpuConfig> alt;
    for (double bw : {32.0, 64.0, 128.0})
        for (std::size_t ch : {2, 4}) {
            RpuConfig cfg;
            cfg.dataMemBytes = mem.dataCapacityBytes;
            cfg.evkOnChip = mem.evkOnChip;
            cfg.memChannels = ch;
            cfg.bandwidthGBps = bw;
            alt.push_back(cfg);
        }
    std::vector<double> alt_out(alt.size());
    EXPECT_EQ(exp.simulateRuntimeMany(alt.data(), alt.size(),
                                      alt_out.data()),
              6u);
    for (std::size_t i = 0; i < alt.size(); ++i)
        EXPECT_EQ(alt_out[i], ref.simulateRuntime(alt[i])) << i;
}

// A sequence of single-task partition moves, each applied with
// recompilePartition, must equal a from-scratch compile of the final
// partition — runtime, per-resource busy/jobs, and transfer counts —
// on the default one-channel chip and on every multi-channel layout
// (2-4 channels x every policy x both pipe splits), where each
// shard's channel placement must follow its new task sequence.
TEST(Patch, ShardMoveSequenceMatchesFromScratchCompile)
{
    const HksParams &par = benchmarkByName("BTS1");
    const MemoryConfig mem{32ull << 20, false};
    const TaskGraph g = buildHksGraph(par, Dataflow::OC, mem);

    RpuConfig base;
    base.dataMemBytes = mem.dataCapacityBytes;
    base.evkOnChip = mem.evkOnChip;
    std::vector<RpuConfig> chips = {base};
    for (std::size_t ch : {2, 3, 4})
        for (ChannelPolicy pol : allPolicies())
            for (bool split : {false, true}) {
                RpuConfig c = base;
                c.memChannels = ch;
                c.channelPolicy = pol;
                c.splitComputePipes = split;
                chips.push_back(c);
            }

    const shard::InterconnectConfig net;
    const std::size_t k = 4;
    const shard::ShardSpec spec = shard::placementShardSpec(
        par, k, shard::PartitionStrategy::MinCutGreedy, 0.10);
    for (const RpuConfig &chip : chips) {
        SCOPED_TRACE(::testing::Message()
                     << chip.memChannels << " channels, policy "
                     << static_cast<int>(chip.channelPolicy)
                     << (chip.splitComputePipes ? ", split" : ", fused"));
        const std::vector<double> w = shard::taskWeights(g, chip);
        const shard::ShardedEngine seng(chip, net);
        shard::Partition cur = shard::partitionGraph(g, spec, w);
        shard::ShardedPatchable ps = seng.compilePatchable(g, cur);
        expectShardStatsEqual(seng.replay(ps.compiled),
                              seng.replay(seng.compile(g, cur)));

        std::mt19937 rng(7);
        std::uniform_int_distribution<std::size_t> pick(0,
                                                        g.size() - 1);
        std::uniform_int_distribution<std::uint32_t> to(
            0, static_cast<std::uint32_t>(k - 1));
        for (int move = 0; move < 6; ++move) {
            std::vector<std::uint32_t> assign = cur.shardOf;
            assign[pick(rng)] = to(rng);
            cur = shard::assignmentPartition(g, spec, std::move(assign),
                                             w);
            seng.recompilePartition(ps, cur);
            expectShardStatsEqual(seng.replay(ps.compiled),
                                  seng.replay(seng.compile(g, cur)));
        }
        EXPECT_GT(ps.compiled.schedule.patchRevision(), 0u);
    }
}

// Patched bindings carry a revision-mixed layoutTag: distinct from
// every compiler stamp (including the same layout's), while
// baseLayoutTag() still names the bound layout for the engines.
TEST(Patch, PatchedLayoutTagIsDistinctPerRevision)
{
    std::mt19937 rng(3);
    const TaskGraph g = randomGraph(rng, 60);
    RpuConfig a; // 1 channel
    RpuConfig b;
    b.memChannels = 4;

    const std::uint64_t tag_a = RpuLayout::of(a).tag();
    const std::uint64_t tag_b = RpuLayout::of(b).tag();
    PatchableSchedule ps = RpuEngine(a).compilePatchable(g);
    EXPECT_EQ(ps.schedule.layoutTag(), tag_a);
    EXPECT_EQ(ps.schedule.patchRevision(), 0u);

    RpuEngine(b).recompileChannels(ps);
    EXPECT_EQ(ps.schedule.patchRevision(), 1u);
    EXPECT_EQ(ps.schedule.baseLayoutTag(), tag_b);
    EXPECT_NE(ps.schedule.layoutTag(), tag_b); // revision mixed in
    const std::uint64_t rev1 = ps.schedule.layoutTag();

    // Patch back: same layout as the original compile, but a caller
    // caching by layoutTag() must still see a new identity.
    RpuEngine(a).recompileChannels(ps);
    EXPECT_EQ(ps.schedule.patchRevision(), 2u);
    EXPECT_EQ(ps.schedule.baseLayoutTag(), tag_a);
    EXPECT_NE(ps.schedule.layoutTag(), tag_a);
    EXPECT_NE(ps.schedule.layoutTag(), rev1);
}

// Stale-rate safety across patches: ReplayRates built before a
// channel-count patch cover the wrong resource count and must panic,
// and an engine whose config no longer matches the binding must
// refuse to build rates at all.
TEST(PatchDeathTest, StaleRatesPanicAfterChannelPatch)
{
    std::mt19937 rng(11);
    const TaskGraph g = randomGraph(rng, 40);
    RpuConfig a; // 1 channel -> 2 resources
    RpuConfig b;
    b.memChannels = 4; // 5 resources

    PatchableSchedule ps = RpuEngine(a).compilePatchable(g);
    sim::ReplayRates stale;
    RpuEngine(a).rates(ps.schedule, stale);

    RpuEngine(b).recompileChannels(ps);
    sim::ReplayScratch scratch;
    EXPECT_DEATH(ps.schedule.replay(stale, scratch),
                 "different resource count");
    // The engine the schedule was compiled for is stale too.
    EXPECT_DEATH(RpuEngine(a).rates(ps.schedule, stale),
                 "layout does not match config");
}

// Pipe-split and vector-length moves reshape the skeleton and must be
// rejected by the patch path, as must shard-count moves.
TEST(PatchDeathTest, SkeletonChangesAreRejected)
{
    std::mt19937 rng(13);
    const TaskGraph g = randomGraph(rng, 40);
    RpuConfig base;
    PatchableSchedule ps = RpuEngine(base).compilePatchable(g);
    RpuConfig split = base;
    split.splitComputePipes = true;
    EXPECT_DEATH(RpuEngine(split).recompileChannels(ps),
                 "cannot change the pipe split");

    const shard::InterconnectConfig net;
    const shard::ShardSpec spec2{
        2, shard::PartitionStrategy::ContiguousByLevel, 0.10,
        1ull << 19, 2};
    const shard::ShardSpec spec3{
        3, shard::PartitionStrategy::ContiguousByLevel, 0.10,
        1ull << 19, 2};
    const std::vector<double> w = shard::taskWeights(g, base);
    const shard::ShardedEngine seng(base, net);
    shard::ShardedPatchable sps = seng.compilePatchable(
        g, shard::partitionGraph(g, spec2, w));
    EXPECT_DEATH(seng.recompilePartition(
                     sps, shard::partitionGraph(g, spec3, w)),
                 "cannot change the shard count");
}

// The tuner's layout-adjacent grouping must be invisible in results:
// batch-evaluated points equal one-point-at-a-time evaluation on a
// fresh tuner over fresh experiments (whose layouts each compile from
// the graph), and the patch path actually carried evaluations.
TEST(Patch, TunerPatchPathIsBitIdenticalAndCounted)
{
    const HksParams &par = benchmarkByName("BTS1");
    ExperimentRunner runner;
    tune::Tuner batched(runner, par, tune::paperJointSpace(par));
    const tune::TuneResult ex =
        batched.tune({.strategy = tune::Strategy::ExhaustiveGrid});
    EXPECT_GT(batched.patchedEvals(), 0u);

    // Spot-check a sample of evaluated points against a fresh tuner
    // evaluating them one at a time (scalar evaluations are not batch
    // points, so they never count as patched).
    ExperimentRunner fresh;
    tune::Tuner scalar(fresh, par, tune::paperJointSpace(par));
    for (std::size_t i = 0; i < ex.evaluated.size(); i += 37) {
        const tune::Measurement m = scalar.evaluate(ex.evaluated[i].idx);
        EXPECT_EQ(m.runtime, ex.evaluated[i].m.runtime) << i;
        EXPECT_EQ(m.cutBytes, ex.evaluated[i].m.cutBytes) << i;
    }
    EXPECT_EQ(scalar.patchedEvals(), 0u);
}
