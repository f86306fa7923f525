#include "shard/sharded_engine.h"

#include <cmath>
#include <string>
#include <unordered_map>

#include "common/logging.h"
#include "common/units.h"

namespace ciflow::shard
{

namespace
{

/**
 * Per-thread replay buffers, mirroring RpuEngine's: sweeps over many
 * candidate partitions replay allocation-free once warm.
 */
struct ReplayTls
{
    sim::ReplayRates rates;
    sim::ReplayScratch scratch;
    /** Batched-replay buffers (replayRuntimeMany). */
    std::vector<sim::ReplayRates> batchRates;
    sim::BatchScratch batchScratch;
};

ReplayTls &
replayTls()
{
    thread_local ReplayTls tls;
    return tls;
}

/** Layout tag for a sharded schedule (chip layout + K + topology). */
std::uint64_t
shardedTag(const RpuLayout &chip, std::size_t shards, Topology topo)
{
    // The constant low bit keeps the tag nonzero (tagged vs hand-built)
    // without masking the topology bit next to it.
    return chip.tag() * 1000003ull +
           ((static_cast<std::uint64_t>(shards) << 2) |
            (topo == Topology::PointToPoint ? 2u : 0u) | 1u);
}

} // namespace

ShardedCompiled
ShardedEngine::compile(const TaskGraph &g, const Partition &p) const
{
    return compilePatchable(g, p).compiled;
}

ShardedPatchable
ShardedEngine::compilePatchable(const TaskGraph &g,
                                const Partition &p) const
{
    g.validate();
    panicIf(p.shardOf.size() != g.size(),
            "partition does not cover the graph");
    const std::size_t k = p.shards;
    const std::size_t nchan = cfg.channelCount();

    ShardedPatchable ps;
    ShardedCompiled &sc = ps.compiled;
    sc.shards = k;
    sc.perChip = nchan + cfg.computePipeCount();
    sc.links = net.linkCount(k);

    // Chip resource blocks first — channels then pipe(s) within each
    // block, exactly the single-RPU layout — then the links.
    for (std::size_t s = 0; s < k; ++s) {
        const std::string prefix = "rpu" + std::to_string(s) + ".";
        for (std::size_t c = 0; c < nchan; ++c)
            sc.schedule.addResource(prefix + "dram" +
                                    std::to_string(c));
        if (cfg.splitComputePipes) {
            sc.schedule.addResource(prefix + "arith");
            sc.schedule.addResource(prefix + "shuffle");
        } else {
            sc.schedule.addResource(prefix + "compute");
        }
    }
    if (net.topology == Topology::SharedBus) {
        if (sc.links > 0)
            sc.schedule.addResource("bus");
    } else {
        for (std::size_t a = 0; a < k; ++a)
            for (std::size_t b = 0; b < k; ++b)
                if (a != b)
                    sc.schedule.addResource(
                        "link" + std::to_string(a) + ">" +
                        std::to_string(b));
    }

    // Record the partition-independent lowering: dep lists, op cost
    // templates, roles and payloads. The templates' resource ids are
    // placeholders; bind() derives every id from the partition.
    std::size_t ndeps = 0, nops = 0;
    for (const Task &t : g.tasks()) {
        ndeps += t.deps.size();
        nops += 1;
        if (cfg.splitComputePipes && t.kind == TaskKind::Compute &&
            t.shuffleOps > 0)
            nops += 1;
    }
    ps.depOff.reserve(g.size() + 1);
    ps.depOff.push_back(0);
    ps.depIds.reserve(ndeps);
    ps.opOff.reserve(g.size() + 1);
    ps.opOff.push_back(0);
    ps.ops.reserve(nops);
    ps.roles.reserve(nops);
    ps.memBytes.reserve(nops);

    const RpuEngine eng(cfg);
    const CodeGen cg(cfg.vectorLen);
    ChannelPlacer placer(cfg.channelPolicy, nchan);
    for (const Task &t : g.tasks()) {
        ps.depIds.insert(ps.depIds.end(), t.deps.begin(), t.deps.end());
        ps.depOff.push_back(static_cast<std::uint32_t>(ps.depIds.size()));
        const std::size_t op0 = ps.ops.size();
        eng.lowerTask(t, cg, placer, 0, ps.ops);
        ps.opOff.push_back(static_cast<std::uint32_t>(ps.ops.size()));
        if (t.kind == TaskKind::Compute) {
            ps.roles.push_back(OpRole::Pipe0);
            ps.memBytes.push_back(0);
            if (ps.ops.size() - op0 > 1) {
                ps.roles.push_back(OpRole::Pipe1);
                ps.memBytes.push_back(0);
            }
        } else {
            ps.roles.push_back(t.isEvk ? OpRole::MemEvk : OpRole::Mem);
            ps.memBytes.push_back(t.bytes);
        }
    }

    bind(ps, p, true);
    return ps;
}

void
ShardedEngine::recompilePartition(ShardedPatchable &ps,
                                  const Partition &newP) const
{
    panicIf(newP.shards != ps.compiled.shards,
            "partition repatch cannot change the shard count: the "
            "chip resource blocks would resize, compile from scratch");
    panicIf(ps.compiled.schedule.baseLayoutTag() !=
                shardedTag(RpuLayout::of(cfg), newP.shards,
                           net.topology),
            "patchable sharded schedule was compiled under a "
            "different engine configuration");
    bind(ps, newP, false);
}

void
ShardedEngine::bind(ShardedPatchable &ps, const Partition &p,
                    bool fresh) const
{
    const std::size_t k = ps.compiled.shards;
    const std::size_t n = ps.depOff.size() - 1;
    panicIf(p.shardOf.size() != n,
            "partition does not cover the compiled graph");
    // Transfer ops carry the cut's byte counts (integers, always
    // sane) and this engine's link latency, which no earlier check
    // has seen on a rebind: the layout tag does not cover it.
    panicIf(!p.cutEdges.empty() &&
                !(std::isfinite(net.latencySec) && net.latencySec >= 0.0),
            "transfer op with a negative or non-finite cost numerator "
            "(interconnect latency)");

    const std::size_t nchan = cfg.channelCount();
    const std::size_t per_chip = ps.compiled.perChip;
    const sim::ResourceId link_base =
        static_cast<sim::ResourceId>(k * per_chip);

    sim::CompiledSchedule &cs = ps.compiled.schedule;
    cs.clearTasks();
    // Exact totals (every cut edge becomes one single-op, single-dep
    // transfer task), so the CSR build never reallocates.
    cs.reserve(n + p.cutEdges.size(), ps.depIds.size() + p.cutEdges.size(),
               ps.ops.size() + p.cutEdges.size());
    ps.compiled.transferTasks = 0;
    ps.compiled.transferBytes = 0;

    // A fresh bind appends through the validated addTask (the
    // compile-time watchdog sees every recorded template once). A
    // rebind re-appends those same templates and transfer ops checked
    // above, with dep ids from earlier iterations, so it skips the
    // per-op checks, which dominated its cost; patchCommit still
    // bounds-checks every resource id.
    const auto append = [&](const sim::TaskId *deps, std::size_t nd,
                            const sim::CompiledOp *ops, std::size_t no) {
        return fresh ? cs.addTask(deps, nd, ops, no)
                     : cs.addTaskTrusted(deps, nd, ops, no);
    };

    // Every shard places its memory ops from scratch, in its task
    // order: the same placer sequence a single-chip compile runs.
    std::vector<ChannelPlacer> placers;
    placers.reserve(k);
    for (std::size_t s = 0; s < k; ++s)
        placers.emplace_back(cfg.channelPolicy, nchan);

    // Cut-edge lookup: (producer, destination shard) -> edge index;
    // the transfer task itself is created lazily at first consumer.
    std::unordered_map<std::uint64_t, std::size_t> cut_index;
    cut_index.reserve(p.cutEdges.size());
    for (std::size_t i = 0; i < p.cutEdges.size(); ++i)
        cut_index.emplace(
            static_cast<std::uint64_t>(p.cutEdges[i].src) * k +
                p.cutEdges[i].toShard,
            i);
    constexpr sim::TaskId kUnset = ~sim::TaskId{0};
    ps.transferId.assign(p.cutEdges.size(), kUnset);
    ps.newId.resize(n);

    for (std::size_t t = 0; t < n; ++t) {
        const std::uint32_t shard = p.shardOf[t];
        ps.depScratch.clear();
        for (std::uint32_t i = ps.depOff[t]; i < ps.depOff[t + 1];
             ++i) {
            const std::uint32_t d = ps.depIds[i];
            if (p.shardOf[d] == shard) {
                ps.depScratch.push_back(ps.newId[d]);
                continue;
            }
            const auto it = cut_index.find(
                static_cast<std::uint64_t>(d) * k + shard);
            panicIf(it == cut_index.end(),
                    "partition cut does not cover a cross-shard "
                    "dependency");
            const std::size_t idx = it->second;
            if (ps.transferId[idx] == kUnset) {
                const CutEdge &e = p.cutEdges[idx];
                sim::CompiledOp xfer;
                xfer.resource =
                    link_base +
                    static_cast<sim::ResourceId>(net.linkIndex(
                        e.fromShard, e.toShard, k));
                xfer.bytes = static_cast<double>(e.bytes);
                xfer.postSeconds = net.latencySec;
                const sim::TaskId dep = ps.newId[d];
                ps.transferId[idx] = append(&dep, 1, &xfer, 1);
                ++ps.compiled.transferTasks;
                ps.compiled.transferBytes += e.bytes;
            }
            ps.depScratch.push_back(ps.transferId[idx]);
        }

        ps.opScratch.clear();
        const sim::ResourceId base =
            static_cast<sim::ResourceId>(shard * per_chip);
        const sim::ResourceId pipe0 =
            base + static_cast<sim::ResourceId>(nchan);
        for (std::uint32_t i = ps.opOff[t]; i < ps.opOff[t + 1]; ++i) {
            sim::CompiledOp o = ps.ops[i];
            switch (ps.roles[i]) {
            case OpRole::Mem:
            case OpRole::MemEvk:
                o.resource = base + static_cast<sim::ResourceId>(
                                        placers[shard].place(
                                            ps.memBytes[i],
                                            ps.roles[i] ==
                                                OpRole::MemEvk));
                break;
            case OpRole::Pipe0:
                o.resource = pipe0;
                break;
            case OpRole::Pipe1:
                o.resource = pipe0 + 1;
                break;
            }
            ps.opScratch.push_back(o);
        }
        ps.newId[t] = append(ps.depScratch.data(), ps.depScratch.size(),
                             ps.opScratch.data(), ps.opScratch.size());
    }

    const std::uint64_t tag =
        shardedTag(RpuLayout::of(cfg), k, net.topology);
    if (fresh)
        cs.setLayoutTag(tag);
    else
        cs.patchCommit(tag);
    ps.part = p;
}

namespace
{

/**
 * Fill `r` with the replay rates of `chip_cfg`-configured chips joined
 * by `net`, for a schedule of `sc`'s shape. Shared by the scalar and
 * batched replay paths so every point of a batch derives its rates
 * exactly as a scalar replay would.
 */
void
fillRates(const RpuConfig &chip_cfg, const InterconnectConfig &net,
          const ShardedCompiled &sc, sim::ReplayRates &r)
{
    const std::size_t nchan = chip_cfg.channelCount();
    const std::size_t nres = sc.schedule.resourceCount();
    panicIf(nres != sc.shards * sc.perChip + sc.links,
            "sharded schedule resource count does not match config");
    // Pipes never carry bytes; 1.0 keeps their byte component defined.
    r.bytesPerSec.assign(nres, 1.0);
    for (std::size_t s = 0; s < sc.shards; ++s)
        for (std::size_t c = 0; c < nchan; ++c)
            r.bytesPerSec[s * sc.perChip + c] =
                chip_cfg.channelBytesPerSec(c);
    const double link_bps = gbps(net.linkGBps);
    for (std::size_t l = 0; l < sc.links; ++l)
        r.bytesPerSec[sc.shards * sc.perChip + l] = link_bps;
    r.workPerSec[kWorkArith] = chip_cfg.modopsPerSec();
    r.workPerSec[kWorkShuffle] = chip_cfg.shuffleElemsPerSec();
}

} // namespace

void
ShardedEngine::rates(const ShardedCompiled &sc,
                     sim::ReplayRates &r) const
{
    // The base tag identifies the layout of the *current* binding
    // (partition repatches re-stamp it), so these rates match exactly
    // this revision of the schedule.
    panicIf(sc.schedule.baseLayoutTag() !=
                shardedTag(RpuLayout::of(cfg), sc.shards,
                           net.topology),
            "sharded schedule layout does not match config");
    fillRates(cfg, net, sc, r);
}

double
ShardedEngine::replayRuntime(const ShardedCompiled &sc) const
{
    ReplayTls &tls = replayTls();
    rates(sc, tls.rates);
    return sc.schedule.replay(tls.rates, tls.scratch);
}

void
ShardedEngine::replayRuntimeMany(const ShardedCompiled &sc,
                                 const double *chip_bandwidths_gbps,
                                 std::size_t n, double *out) const
{
    if (n == 0)
        return;
    panicIf(sc.schedule.baseLayoutTag() !=
                shardedTag(RpuLayout::of(cfg), sc.shards,
                           net.topology),
            "sharded schedule layout does not match config");
    // Per-channel bandwidths override the aggregate knob, so a
    // *varying* bandwidth axis would be silently vacuous; a single
    // point simply replays the chip's configured (asymmetric) rates.
    panicIf(n > 1 && !cfg.channelGBps.empty(),
            "chip-bandwidth batch is vacuous under per-channel "
            "bandwidths (channelGBps overrides the aggregate)");
    ReplayTls &tls = replayTls();
    if (tls.batchRates.size() < n)
        tls.batchRates.resize(n);
    RpuConfig chip = cfg;
    for (std::size_t i = 0; i < n; ++i) {
        chip.bandwidthGBps = chip_bandwidths_gbps[i];
        fillRates(chip, net, sc, tls.batchRates[i]);
    }
    sc.schedule.replayMany(tls.batchRates.data(), n, tls.batchScratch);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = tls.batchScratch.makespan[i];
}

ShardedStats
ShardedEngine::replay(const ShardedCompiled &sc) const
{
    ReplayTls &tls = replayTls();
    rates(sc, tls.rates);
    const double makespan = sc.schedule.replay(tls.rates, tls.scratch);

    const std::size_t nchan = cfg.channelCount();
    const std::size_t nres = sc.schedule.resourceCount();
    ShardedStats s;
    s.runtime = makespan;
    s.shards = sc.shards;
    s.transferTasks = sc.transferTasks;
    s.transferBytes = sc.transferBytes;
    for (std::size_t chip = 0; chip < sc.shards; ++chip) {
        for (std::size_t r = 0; r < sc.perChip; ++r) {
            const double busy = tls.scratch.busy[chip * sc.perChip + r];
            if (r < nchan)
                s.memBusy += busy;
            else
                s.compBusy += busy;
        }
    }
    for (std::size_t l = 0; l < sc.links; ++l)
        s.linkBusy += tls.scratch.busy[sc.shards * sc.perChip + l];
    s.resources.reserve(nres);
    for (std::size_t r = 0; r < nres; ++r)
        s.resources.push_back({sc.schedule.resourceName(
                                   static_cast<sim::ResourceId>(r)),
                               tls.scratch.busy[r],
                               tls.scratch.jobs[r]});
    return s;
}

ShardedStats
ShardedEngine::run(const TaskGraph &g, const Partition &p) const
{
    return replay(compile(g, p));
}

} // namespace ciflow::shard
