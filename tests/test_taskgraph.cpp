/**
 * @file
 * Tests for the TaskGraph container and the capacity-aware GraphBuilder.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "hksflow/builder.h"
#include "hksflow/task.h"

using namespace ciflow;

namespace
{

HksParams
tinyParams()
{
    // Small synthetic benchmark: N=2^10 towers of 8 KiB.
    return {"TINY", 10, 6, 2, 3, 2};
}

MemoryConfig
memOf(std::uint64_t towers, bool evk_on_chip = false)
{
    HksParams p = tinyParams();
    return {towers * p.towerBytes(), evk_on_chip};
}

OpCounts
someOps()
{
    return {1000, 0};
}

/** Producer task of each spilled object, in writeback order. */
std::vector<std::uint32_t>
storedProviders(const TaskGraph &g)
{
    std::vector<std::uint32_t> out;
    for (const Task &t : g.tasks())
        if (t.kind == TaskKind::MemStore && !t.deps.empty())
            out.push_back(t.deps.front());
    return out;
}

} // namespace

TEST(TaskGraph, PushAccountsBytesAndOps)
{
    TaskGraph g;
    Task load;
    load.kind = TaskKind::MemLoad;
    load.bytes = 100;
    g.push(load);
    Task evk;
    evk.kind = TaskKind::MemLoad;
    evk.bytes = 50;
    evk.isEvk = true;
    g.push(evk);
    Task store;
    store.kind = TaskKind::MemStore;
    store.bytes = 30;
    g.push(store);
    Task comp;
    comp.kind = TaskKind::Compute;
    comp.modOps = 77;
    comp.shuffleOps = 11;
    g.push(comp);

    EXPECT_EQ(g.loadBytes(), 150u);
    EXPECT_EQ(g.storeBytes(), 30u);
    EXPECT_EQ(g.trafficBytes(), 180u);
    EXPECT_EQ(g.evkBytes(), 50u);
    EXPECT_EQ(g.totalModOps(), 77u);
    EXPECT_EQ(g.totalShuffleOps(), 11u);
    EXPECT_EQ(g.countKind(TaskKind::MemLoad), 2u);
    g.validate();
}

TEST(TaskGraph, ValidateRejectsForwardDeps)
{
    TaskGraph g;
    Task t;
    t.kind = TaskKind::Compute;
    t.modOps = 1;
    t.deps = {5}; // forward reference
    g.push(t);
    EXPECT_DEATH(g.validate(), "");
}

TEST(GraphBuilder, LoadOnFirstUseOnly)
{
    GraphBuilder b(tinyParams(), memOf(8));
    ObjId in = b.newDramObject(tinyParams().towerBytes());
    ObjId out1 = b.newObject(tinyParams().towerBytes());
    ObjId out2 = b.newObject(tinyParams().towerBytes());
    b.emitCompute(StageId::ModUpIntt, someOps(), {in}, {out1});
    b.emitCompute(StageId::ModUpIntt, someOps(), {in}, {out2});
    TaskGraph g = b.take();
    // One load of `in`, two computes, no stores (capacity sufficient).
    EXPECT_EQ(g.countKind(TaskKind::MemLoad), 1u);
    EXPECT_EQ(g.countKind(TaskKind::Compute), 2u);
    EXPECT_EQ(g.countKind(TaskKind::MemStore), 0u);
}

TEST(GraphBuilder, SpillsDirtyDataWhenOverCapacity)
{
    HksParams p = tinyParams();
    // Capacity of 2 towers (+4 staging): producing many towers forces
    // dirty evictions.
    GraphBuilder b(p, memOf(2));
    ObjId in = b.newDramObject(p.towerBytes());
    std::vector<ObjId> outs;
    for (int i = 0; i < 12; ++i) {
        outs.push_back(b.newObject(p.towerBytes()));
        b.emitCompute(StageId::ModUpBconv, someOps(), {in}, {outs.back()});
    }
    // Touch the first outputs again: they must be reloaded.
    ObjId sink = b.newObject(p.towerBytes());
    b.emitCompute(StageId::ModUpReduce, someOps(), {outs[0], outs[1]},
                  {sink});
    TaskGraph g = b.take();
    EXPECT_GT(g.countKind(TaskKind::MemStore), 0u);
    EXPECT_GT(g.countKind(TaskKind::MemLoad), 1u);
    g.validate();
}

TEST(GraphBuilder, DiscardAvoidsWriteback)
{
    HksParams p = tinyParams();
    GraphBuilder b(p, memOf(2));
    ObjId in = b.newDramObject(p.towerBytes());
    std::vector<ObjId> outs;
    for (int i = 0; i < 12; ++i) {
        outs.push_back(b.newObject(p.towerBytes()));
        b.emitCompute(StageId::ModUpBconv, someOps(), {in}, {outs.back()});
        b.discard(outs.back()); // dead immediately
    }
    TaskGraph g = b.take();
    EXPECT_EQ(g.countKind(TaskKind::MemStore), 0u);
}

TEST(GraphBuilder, PinnedObjectsSurviveCapacityPressure)
{
    HksParams p = tinyParams();
    GraphBuilder b(p, memOf(4));
    ObjId keep = b.newObject(p.towerBytes());
    ObjId in = b.newDramObject(p.towerBytes());
    b.emitCompute(StageId::ModUpIntt, someOps(), {in}, {keep});
    b.pin(keep);
    for (int i = 0; i < 16; ++i) {
        ObjId o = b.newObject(p.towerBytes());
        b.emitCompute(StageId::ModUpBconv, someOps(), {in}, {o});
        b.discard(o);
    }
    // Using `keep` now must NOT emit a load: it was never evicted.
    ObjId out = b.newObject(p.towerBytes());
    b.emitCompute(StageId::ModUpNtt, someOps(), {keep}, {out});
    TaskGraph g = b.take();
    EXPECT_EQ(g.countKind(TaskKind::MemLoad), 1u); // only `in`
}

TEST(GraphBuilder, TransientsUseNoCapacity)
{
    HksParams p = tinyParams();
    GraphBuilder b(p, memOf(2));
    ObjId in = b.newDramObject(p.towerBytes());
    for (int i = 0; i < 32; ++i) {
        ObjId t = b.newTransient();
        b.emitCompute(StageId::ModUpBconv, someOps(), {in}, {t});
        b.emitCompute(StageId::ModUpNtt, someOps(), {t}, {t});
        b.discard(t);
    }
    TaskGraph g = b.take();
    EXPECT_EQ(g.countKind(TaskKind::MemStore), 0u);
    EXPECT_EQ(g.countKind(TaskKind::MemLoad), 1u);
}

TEST(GraphBuilder, EvkStreamingVsOnChip)
{
    HksParams p = tinyParams();
    for (bool on_chip : {false, true}) {
        GraphBuilder b(p, memOf(8, on_chip));
        ObjId in = b.newDramObject(p.towerBytes());
        ObjId evk = b.newEvkObject(p.towerBytes());
        ObjId out = b.newObject(p.towerBytes());
        b.emitCompute(StageId::ModUpKeyMul, someOps(), {in, evk}, {out});
        TaskGraph g = b.take();
        if (on_chip) {
            EXPECT_EQ(g.evkBytes(), 0u);
            EXPECT_EQ(g.countKind(TaskKind::MemLoad), 1u);
        } else {
            EXPECT_EQ(g.evkBytes(), p.towerBytes());
            EXPECT_EQ(g.countKind(TaskKind::MemLoad), 2u);
        }
    }
}

TEST(GraphBuilder, DependenciesChainThroughSpills)
{
    HksParams p = tinyParams();
    GraphBuilder b(p, memOf(2));
    ObjId in = b.newDramObject(p.towerBytes());
    ObjId a = b.newObject(p.towerBytes());
    b.emitCompute(StageId::ModUpIntt, someOps(), {in}, {a});
    // Force `a` out with live (undiscarded) producer outputs.
    for (int i = 0; i < 8; ++i) {
        ObjId o = b.newObject(p.towerBytes());
        b.emitCompute(StageId::ModUpBconv, someOps(), {in}, {o});
    }
    ObjId out = b.newObject(p.towerBytes());
    b.emitCompute(StageId::ModUpNtt, someOps(), {a}, {out});
    TaskGraph g = b.take();
    g.validate();

    // Find the reload of `a`: it must depend on the store of `a`.
    bool found_chain = false;
    for (const auto &t : g.tasks()) {
        if (t.kind == TaskKind::MemLoad && !t.deps.empty()) {
            for (std::uint32_t d : t.deps)
                if (g[d].kind == TaskKind::MemStore)
                    found_chain = true;
        }
    }
    EXPECT_TRUE(found_chain);
}

TEST(GraphBuilder, PeakResidencyTracked)
{
    HksParams p = tinyParams();
    GraphBuilder b(p, memOf(8));
    ObjId in = b.newDramObject(p.towerBytes());
    ObjId o1 = b.newObject(p.towerBytes());
    ObjId o2 = b.newObject(p.towerBytes());
    b.emitCompute(StageId::ModUpIntt, someOps(), {in}, {o1});
    b.emitCompute(StageId::ModUpIntt, someOps(), {in}, {o2});
    EXPECT_EQ(b.peakResidentBytes(), 3 * p.towerBytes());
}

TEST(GraphBuilder, OverPinnedCapacityIsFatal)
{
    HksParams p = tinyParams();
    GraphBuilder b(p, memOf(1));
    ObjId in = b.newDramObject(p.towerBytes());
    std::vector<ObjId> keep;
    auto overfill = [&]() {
        for (int i = 0; i < 16; ++i) {
            ObjId o = b.newObject(p.towerBytes());
            b.emitCompute(StageId::ModUpIntt, someOps(), {in}, {o});
            b.pin(o);
        }
    };
    EXPECT_DEATH(overfill(), "");
}

// Eviction order. Capacity memOf(2) holds 6 towers (2 + 4 staging);
// `in` is an operand of every producer, so it stays the most recently
// used tower and the victims are the produced objects. A writeback's
// dependency names the task that produced the spilled object, which
// identifies the victim.

TEST(GraphBuilderEviction, UnpinnedOldestIsNextVictim)
{
    HksParams p = tinyParams();
    GraphBuilder b(p, memOf(2));
    ObjId in = b.newDramObject(p.towerBytes());
    ObjId a = b.newObject(p.towerBytes());
    std::uint32_t made_a = b.emitCompute(StageId::ModUpIntt, someOps(),
                                         {in}, {a});
    b.pin(a);
    std::vector<std::uint32_t> made;
    for (int i = 0; i < 5; ++i) {
        // The fifth spills: `a` is oldest but pinned, so b[0] goes.
        ObjId o = b.newObject(p.towerBytes());
        made.push_back(
            b.emitCompute(StageId::ModUpBconv, someOps(), {in}, {o}));
    }
    b.unpin(a);
    ObjId o = b.newObject(p.towerBytes());
    b.emitCompute(StageId::ModUpBconv, someOps(), {in}, {o});
    TaskGraph g = b.take();
    EXPECT_EQ(storedProviders(g),
              (std::vector<std::uint32_t>{made[0], made_a}));
}

TEST(GraphBuilderEviction, DiscardedObjectsAreNeverSpilled)
{
    HksParams p = tinyParams();
    GraphBuilder b(p, memOf(2));
    ObjId in = b.newDramObject(p.towerBytes());
    std::vector<std::uint32_t> live, dead;
    for (int i = 0; i < 16; ++i) {
        ObjId o = b.newObject(p.towerBytes());
        std::uint32_t t =
            b.emitCompute(StageId::ModUpBconv, someOps(), {in}, {o});
        if (i % 2 == 0) {
            std::uint64_t before = b.residentBytes();
            b.discard(o); // oldest-to-be, freed without a writeback
            EXPECT_EQ(b.residentBytes(), before - p.towerBytes());
            dead.push_back(t);
        } else {
            live.push_back(t);
        }
    }
    TaskGraph g = b.take();
    // 1 + 8 live towers against 6 slots: the three oldest live spill.
    EXPECT_EQ(storedProviders(g),
              (std::vector<std::uint32_t>{live[0], live[1], live[2]}));
    for (std::uint32_t s : storedProviders(g))
        EXPECT_EQ(std::count(dead.begin(), dead.end(), s), 0);
}

TEST(GraphBuilderEviction, ReloadedObjectRejoinsAtItsNewLastUse)
{
    HksParams p = tinyParams();
    GraphBuilder b(p, memOf(2));
    ObjId in = b.newDramObject(p.towerBytes());
    ObjId a = b.newObject(p.towerBytes());
    std::uint32_t made_a = b.emitCompute(StageId::ModUpIntt, someOps(),
                                         {in}, {a});
    std::vector<std::uint32_t> made;
    for (int i = 0; i < 5; ++i) { // the fifth spills `a`
        ObjId o = b.newObject(p.towerBytes());
        made.push_back(
            b.emitCompute(StageId::ModUpBconv, someOps(), {in}, {o}));
    }
    // In-place update reloads `a` (spilling made[0]) and dirties it.
    std::uint32_t update_a =
        b.emitCompute(StageId::ModUpNtt, someOps(), {a}, {a});
    // Four older towers go before `a`; the fifth producer spills it.
    for (int i = 0; i < 5; ++i) {
        ObjId o = b.newObject(p.towerBytes());
        b.emitCompute(StageId::ModUpBconv, someOps(), {in}, {o});
    }
    EXPECT_EQ(b.peakResidentBytes(), 6 * p.towerBytes());
    TaskGraph g = b.take();
    EXPECT_EQ(storedProviders(g),
              (std::vector<std::uint32_t>{made_a, made[0], made[1], made[2],
                                          made[3], made[4], update_a}));
    EXPECT_EQ(g.countKind(TaskKind::MemLoad), 2u); // `in`, reload of `a`
}

TEST(GraphBuilderEviction, EvkAndTransientsAreNeverVictims)
{
    HksParams p = tinyParams();
    GraphBuilder b(p, memOf(2));
    ObjId in = b.newDramObject(p.towerBytes());
    ObjId evk = b.newEvkObject(p.towerBytes());
    ObjId tr = b.newTransient();
    // Oldest touches of the build: the evk load and the transient.
    b.emitCompute(StageId::ModUpKeyMul, someOps(), {in, evk}, {tr});
    std::vector<std::uint32_t> made;
    for (int i = 0; i < 8; ++i) {
        ObjId o = b.newObject(p.towerBytes());
        made.push_back(
            b.emitCompute(StageId::ModUpBconv, someOps(), {in}, {o}));
    }
    ObjId out = b.newObject(p.towerBytes());
    b.emitCompute(StageId::ModUpReduce, someOps(), {tr, evk}, {out});
    EXPECT_EQ(b.peakResidentBytes(), 6 * p.towerBytes());
    TaskGraph g = b.take();
    // No reload of the key and no writeback of the transient.
    EXPECT_EQ(g.countKind(TaskKind::MemLoad), 2u);
    EXPECT_EQ(g.evkBytes(), p.towerBytes());
    EXPECT_EQ(storedProviders(g),
              (std::vector<std::uint32_t>{made[0], made[1], made[2],
                                          made[3]}));
}
