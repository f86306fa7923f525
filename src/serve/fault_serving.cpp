#include "serve/fault_serving.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <optional>

#include "common/logging.h"
#include "common/stats.h"
#include "fault/failover.h"
#include "fault/fault_replay.h"
#include "obs/traced_replay.h"
#include "rpu/experiment.h"
#include "shard/placement_search.h"
#include "shard/sharded_engine.h"

namespace ciflow::serve
{

namespace
{

constexpr std::uint32_t kNoRec = ~std::uint32_t{0};
const double kInf = std::numeric_limits<double>::infinity();

/**
 * Earliest epoch boundary in the table (+inf when empty). An op whose
 * clean duration ends at or before every boundary replays
 * bit-identically to the clean scalar (epochs past the makespan change
 * nothing), so the serving loop prices it clean and leaves it
 * unflagged — which is what makes rate events beyond the run's last
 * departure *cleanly* ignored rather than merely harmless.
 */
double
firstBoundary(const sim::RateEpochs &ep)
{
    double first = kInf;
    for (double a : ep.at)
        first = std::min(first, a);
    return first;
}

} // namespace

sim::Error
checkRetryPolicy(const RetryPolicy &policy)
{
    const auto bad = [](const std::string &ctx) {
        return sim::Error{sim::ErrorCode::BadServeSpec, ctx};
    };
    if (!(std::isfinite(policy.backoffSec) && policy.backoffSec >= 0.0))
        return bad("retry backoff must be finite and >= 0");
    if (std::isnan(policy.deadlineSec) || policy.deadlineSec <= 0.0)
        return bad("retry deadline must be positive (+inf = none)");
    return {};
}

/** Per-class replay assets of one FaultServingSim (see header). */
struct FaultServingSim::Assets
{
    /** Single-chip degraded pricing: the class's HKS compiled once,
     * replayable piecewise at every fleet bandwidth. */
    struct OpSched
    {
        std::shared_ptr<const HksExperiment> exp;
        sim::CompiledSchedule cs;
        /** Replay rates per distinct chip bandwidth. */
        std::vector<sim::ReplayRates> rates;
    };

    /** Gang-class failover state: patchable sharded compiles (one per
     * key-cache variant) that chip failures re-place in place. */
    struct Gang
    {
        shard::ShardSpec spec;
        std::shared_ptr<const HksExperiment> expMiss, expHit;
        std::vector<double> wMiss, wHit;
        shard::Partition baseMiss, baseHit;
        shard::ShardedPatchable psMiss, psHit;
        sim::ReplayRates rMiss, rHit;
        /** Live slots; failovers retire the highest slots first, so
         * slots [0, activeSlots) are exactly the live ones. */
        std::vector<char> slotAlive;
        std::size_t activeSlots = 0;
        /** Per-op service under the current binding (the healthy model
         * scalars until the first failover). */
        double liveMiss = 0.0, liveHit = 0.0;
        bool failedOver = false;
    };

    std::unique_ptr<shard::ShardedEngine> eng;
    /** ops[k * 2 + variant]; variant 0 = miss, 1 = hit. Unused (empty)
     * for gang classes. */
    std::vector<OpSched> ops;
    /** gang[k]; null for single-chip classes. */
    std::vector<std::unique_ptr<Gang>> gang;
    /** Resources of one chip block: every single-chip schedule's count
     * and every gang compile's per-chip stride (the timeline's width). */
    std::size_t chipRes = 0;
    sim::ReplayScratch scratch;
    /** Constant-state epoch table a memo miss replays. */
    sim::RateEpochs constEp;
    /** Faulted ops priced from the memo / by an epoch-table rebuild,
     * since construction (exportMetrics). */
    std::size_t memoOps = 0, rescanOps = 0;

    /** Record one schedule's chip-block width; all must agree. */
    void noteChipRes(std::size_t r)
    {
        panicIf(chipRes != 0 && chipRes != r,
                "serving schedules disagree on the chip block width");
        chipRes = r;
    }
};

FaultServingSim::FaultServingSim(ServingSim &s)
    : sim(s), assets(std::make_unique<Assets>())
{
    const ServeSpec &sp = sim.sp;
    const MemoryConfig missMem{sp.fleet.chip.dataMemBytes, false};
    MemoryConfig hitMem = missMem;
    hitMem.evkOnChip = true;

    assets->eng = std::make_unique<shard::ShardedEngine>(
        sp.fleet.chip, sp.fleet.interconnect);
    assets->ops.resize(sp.classes.size() * 2);
    assets->gang.resize(sp.classes.size());
    for (std::size_t k = 0; k < sp.classes.size(); ++k) {
        const JobClass &jc = sp.classes[k];
        if (jc.shards <= 1) {
            for (int variant = 0; variant < 2; ++variant) {
                Assets::OpSched &os =
                    assets->ops[k * 2 + static_cast<std::size_t>(variant)];
                os.exp = sim.runnerRef.experiment(
                    jc.params, jc.dataflow, variant ? hitMem : missMem);
                os.cs = RpuEngine(sim.chipAt(0))
                            .compile(os.exp->graph());
                os.rates.resize(sim.uniqBw.size());
                for (std::size_t b = 0; b < sim.uniqBw.size(); ++b)
                    RpuEngine(sim.chipAt(b))
                        .rates(os.cs, os.rates[b]);
                assets->noteChipRes(os.cs.resourceCount());
            }
            continue;
        }
        auto g = std::make_unique<Assets::Gang>();
        g->spec = shard::placementShardSpec(jc.params, jc.shards,
                                            sp.fleet.strategy,
                                            sp.fleet.imbalanceTol);
        g->expMiss =
            sim.runnerRef.experiment(jc.params, jc.dataflow, missMem);
        g->expHit =
            sim.runnerRef.experiment(jc.params, jc.dataflow, hitMem);
        g->wMiss = shard::taskWeights(g->expMiss->graph(), sp.fleet.chip);
        g->wHit = shard::taskWeights(g->expHit->graph(), sp.fleet.chip);
        g->baseMiss =
            shard::partitionGraph(g->expMiss->graph(), g->spec, g->wMiss);
        g->baseHit =
            shard::partitionGraph(g->expHit->graph(), g->spec, g->wHit);
        g->psMiss =
            assets->eng->compilePatchable(g->expMiss->graph(), g->baseMiss);
        g->psHit =
            assets->eng->compilePatchable(g->expHit->graph(), g->baseHit);
        assets->eng->rates(g->psMiss.compiled, g->rMiss);
        assets->eng->rates(g->psHit.compiled, g->rHit);
        assets->noteChipRes(g->psMiss.compiled.perChip);
        g->slotAlive.assign(jc.shards, 1);
        g->activeSlots = jc.shards;
        g->liveMiss = sim.models[k].missRt[0];
        g->liveHit = sim.models[k].hitRt[0];
        assets->gang[k] = std::move(g);
    }
}

FaultServingSim::~FaultServingSim() = default;

fault::MachineShape
FaultServingSim::shape() const
{
    return {sim.sp.fleet.chips, sim.sp.fleet.chip.channelCount(), 0};
}

sim::Error
FaultServingSim::run(const std::vector<JobArrival> &arrivals,
                     const fault::FaultTrace &trace,
                     const RetryPolicy &policy, std::vector<JobResult> &out,
                     FaultServeStats &stats, obs::ScenarioTrace *viz)
{
    const ServeSpec &sp = sim.sp;
    if (sim::Error err = checkStreams(arrivals, sp.classes.size()))
        return err;
    if (sim::Error err = checkRetryPolicy(policy))
        return err;
    fault::FaultTrace tr = trace;
    if (sim::Error err = fault::checkTrace(tr, shape()))
        return err;
    tr.normalize();

    // Reset gang bindings a previous run's failovers moved.
    for (std::size_t k = 0; k < sp.classes.size(); ++k) {
        Assets::Gang *g = assets->gang[k].get();
        if (!g || !g->failedOver)
            continue;
        assets->eng->recompilePartition(g->psMiss, g->baseMiss);
        assets->eng->recompilePartition(g->psHit, g->baseHit);
        assets->eng->rates(g->psMiss.compiled, g->rMiss);
        assets->eng->rates(g->psHit.compiled, g->rHit);
        g->slotAlive.assign(sim.models[k].shards, 1);
        g->activeSlots = sim.models[k].shards;
        g->liveMiss = sim.models[k].missRt[0];
        g->liveHit = sim.models[k].hitRt[0];
        g->failedOver = false;
    }

    serve(sim, assets.get(), arrivals, tr, policy, true, out, stats, viz);

    nCompleted += stats.completedJobs;
    nRejected += stats.rejectedJobs;
    nTimedOut += stats.timedOutJobs;
    nLost += stats.lostJobs;
    nRetries += stats.retries;
    nSalvaged += stats.salvagedJobs;
    nChipFailures += stats.chipFailures;
    nFailovers += stats.failovers;
    nMigratedBytes += stats.migratedBytes;
    lastStats = stats;
    return {};
}

void
FaultServingSim::serve(ServingSim &sim, Assets *assets,
                       const std::vector<JobArrival> &arrivals,
                       const fault::FaultTrace &tr, const RetryPolicy &policy,
                       bool deadlines, std::vector<JobResult> &out,
                       FaultServeStats &stats, obs::ScenarioTrace *viz)
{
    const ServeSpec &sp = sim.sp;
    const std::size_t K = sp.fleet.chips;
    panicIf(!assets && !tr.events.empty(),
            "serving a fault trace needs replay assets");

    if (viz) {
        sim.buildViz(sim.runnerRef);
        *viz = obs::ScenarioTrace{};
        if (sim.viz_ && !sim.viz_->names.empty())
            for (std::size_t c = 0; c < K; ++c)
                for (const std::string &nm : sim.viz_->names)
                    viz->resourceNames.push_back(
                        "chip" + std::to_string(c) + "/" + nm);
    }

    const std::size_t n = arrivals.size();
    out.assign(n, JobResult{});
    stats = FaultServeStats{};

    // The scripted chip failures, in time order; rate events stay in
    // `tr` for the epoch builders (which ignore ChipFail).
    struct Fail
    {
        double at;
        std::uint32_t shard;
    };
    std::vector<Fail> fails;
    std::vector<char> chipRate(K, 0);
    std::vector<double> firstDegrade(K, kInf);
    std::vector<std::vector<std::pair<double, double>>> stalls(K);
    for (const fault::FaultEvent &e : tr.events) {
        switch (e.kind) {
        case fault::FaultKind::ChipFail:
            fails.push_back({e.atSec, e.shard});
            break;
        case fault::FaultKind::ChannelDegrade:
            chipRate[e.shard] = 1;
            firstDegrade[e.shard] =
                std::min(firstDegrade[e.shard], e.atSec);
            break;
        case fault::FaultKind::TransientStall:
            chipRate[e.shard] = 1;
            stalls[e.shard].push_back({e.atSec, e.atSec + e.durSec});
            break;
        case fault::FaultKind::LinkDegrade:
            break; // unreachable: shape() has no links
        }
    }
    const bool anyRate = std::any_of(chipRate.begin(), chipRate.end(),
                                     [](char r) { return r != 0; });
    // Is chip c serving at degraded rate at time t? (Admission
    // deprioritizes such chips.)
    const auto degradedAt = [&](std::size_t c, double t) {
        if (!chipRate[c])
            return false;
        if (firstDegrade[c] <= t)
            return true;
        for (const auto &s : stalls[c])
            if (s.first <= t && t < s.second)
                return true;
        return false;
    };

    // Constant-state pricing (see the header): the trace indexed once
    // per run, and a memo of constant-state op durations keyed on
    // (class, variant, bandwidth index, the chosen chips' states in
    // slot order). Traced runs always rescan; a trace without rate
    // events never prices a faulted op, so neither builds the index.
    const bool memoPricing = viz == nullptr && anyRate;
    std::optional<fault::ChipFaultTimeline> timeline;
    if (memoPricing)
        timeline.emplace(tr, K, assets->chipRes);
    std::map<std::vector<std::uint32_t>, double> memo;
    std::vector<std::uint32_t> memoKey;
    std::vector<std::size_t> chosen;
    constexpr std::size_t kKeyHead = 3; // class, variant, bandwidth

    // How one op on the chosen chips is priced: Clean when no fault is
    // active and none begins before `clean` elapses; Memo (setting
    // `dur`) when the memoized constant-state replay ends strictly
    // before the earliest next fault edge x — exact, since the full
    // table differs only by epochs at >= x; Rescan otherwise.
    enum class Price { Clean, Memo, Rescan };
    const auto timelinePrice = [&](std::uint32_t k, std::size_t v,
                                   std::size_t bwIdx,
                                   const sim::CompiledSchedule &cs,
                                   const sim::ReplayRates &rates,
                                   double clean, double t, double &dur) {
        memoKey.assign({k, static_cast<std::uint32_t>(v),
                        static_cast<std::uint32_t>(bwIdx)});
        double x = kInf;
        bool faulted = false;
        for (std::size_t c : chosen) {
            const fault::ChipFaultTimeline::Point p =
                timeline->at(static_cast<std::uint32_t>(c), t);
            memoKey.push_back(p.state);
            x = std::min(x, p.x);
            faulted = faulted || p.state != 0;
        }
        if (!faulted)
            return x < clean ? Price::Rescan : Price::Clean;
        auto it = memo.find(memoKey);
        if (it == memo.end()) {
            timeline->epochs(memoKey.data() + kKeyHead, chosen.size(),
                             cs.resourceCount(), assets->constEp);
            it = memo.emplace(memoKey,
                              cs.replayPiecewise(rates, assets->constEp,
                                                 nullptr, assets->scratch))
                     .first;
        }
        if (!(it->second < x))
            return Price::Rescan;
        dur = it->second;
        return Price::Memo;
    };

    // Effective deadline per job (absolute seconds).
    const auto deadlineOf = [&](std::uint32_t j) {
        return deadlines ? arrivals[j].atSec +
                               std::min(arrivals[j].deadlineSec,
                                        policy.deadlineSec)
                         : kInf;
    };

    struct ChipState
    {
        double freeAt = 0.0;
        std::int64_t lastClass = -1;
        bool alive = true;
        std::uint32_t rec = kNoRec;
    };
    // One dispatched batch: who ran, where, and each job's simulated
    // finish — what a chip failure consults to split completed from
    // salvageable work. A batch lives in the slot of its lowest chip,
    // which is free by the time it dispatches again, so at most one
    // record per chip is ever in flight.
    struct Rec
    {
        double end = 0.0;
        bool open = true;
        std::vector<std::size_t> chips;
        std::vector<std::uint32_t> jobs;
        std::vector<double> fin;
    };
    struct Item
    {
        double ready = 0.0;
        std::uint32_t job = 0;
    };
    const auto itemLess = [](const Item &a, const Item &b) {
        if (a.ready != b.ready)
            return a.ready < b.ready;
        return a.job < b.job;
    };

    std::vector<ChipState> chips(K);
    std::vector<Rec> recs(K);
    std::deque<Item> pending;
    std::vector<Item> retryQ;
    std::vector<std::uint8_t> jstate(n, 0); // 0 open, 1 done, 2 rejected
    std::vector<std::uint8_t> salvaged(n, 0);
    std::size_t next = 0, failIdx = 0, aliveCount = K;
    std::uint32_t batchSeq = 0;
    bool fleetDead = false;
    bool anySalvage = false;
    double firstFailAt = 0.0;
    std::vector<std::uint32_t> batchIds;
    std::vector<char> taken, degradedNow(K, 0);
    char label[160];

    const auto reject = [&](std::uint32_t j, double at, bool timedOut) {
        JobResult &r = out[j];
        r.arriveSec = arrivals[j].atSec;
        r.startSec = r.finishSec = at;
        r.klass = arrivals[j].klass;
        r.tenant = arrivals[j].tenant;
        r.rejected = true;
        r.degraded = r.degraded || r.retries > 0;
        jstate[j] = 2;
        ++stats.rejectedJobs;
        if (timedOut)
            ++stats.timedOutJobs;
        if (viz) {
            std::snprintf(label, sizeof label, "%s job %u",
                          timedOut ? "timeout" : "reject", j);
            viz->marks.push_back({label, at, 0.0});
        }
    };

    // Salvage one in-flight job off a failing chip: bounded retries,
    // exponential backoff, per-job deadline — rejected, never lost.
    const auto salvage = [&](std::uint32_t j, double failAt) {
        jstate[j] = 0;
        salvaged[j] = 1;
        ++stats.salvagedJobs;
        if (!anySalvage) {
            anySalvage = true;
            firstFailAt = failAt;
        }
        JobResult &r = out[j];
        if (r.retries >= policy.maxRetries) {
            reject(j, failAt, false);
            return;
        }
        const double ready =
            failAt +
            std::ldexp(policy.backoffSec, static_cast<int>(r.retries));
        if (ready > deadlineOf(j)) {
            reject(j, failAt, true);
            return;
        }
        r.retries += 1;
        ++stats.retries;
        const Item it{ready, j};
        retryQ.insert(std::upper_bound(retryQ.begin(), retryQ.end(), it,
                                       itemLess),
                      it);
        if (viz) {
            std::snprintf(label, sizeof label, "retry job %u (#%u)", j,
                          r.retries);
            viz->marks.push_back({label, failAt, 0.0});
        }
    };

    // Would this failure revoke in-flight work on a live chip?
    const auto failRevokes = [&](const Fail &f) {
        const std::uint32_t ri = chips[f.shard].rec;
        return chips[f.shard].alive && ri != kNoRec && recs[ri].open &&
               recs[ri].end > f.at;
    };

    const auto processFail = [&](const Fail &f) {
        if (!chips[f.shard].alive)
            return;
        const bool revokes = failRevokes(f);
        chips[f.shard].alive = false;
        --aliveCount;
        ++stats.chipFailures;
        if (viz) {
            std::snprintf(label, sizeof label, "chip %u failed", f.shard);
            viz->marks.push_back({label, f.at, 0.0});
        }
        // Revoke the dead chip's in-flight batch: jobs simulated to
        // finish after the failure restart; earlier ones completed.
        if (revokes) {
            Rec &r = recs[chips[f.shard].rec];
            r.open = false;
            for (std::size_t i = 0; i < r.jobs.size(); ++i)
                if (r.fin[i] > f.at)
                    salvage(r.jobs[i], f.at);
            // Surviving gang members drop the cut batch and free up.
            for (std::size_t c : r.chips)
                if (c != f.shard && chips[c].alive) {
                    chips[c].freeAt = f.at;
                    chips[c].rec = kNoRec;
                }
        }
        chips[f.shard].rec = kNoRec;
        if (aliveCount == 0) {
            // Fleet death: every open job is rejected, never lost.
            fleetDead = true;
            for (const Item &it : pending)
                if (jstate[it.job] == 0)
                    reject(it.job, std::max(f.at, arrivals[it.job].atSec),
                           false);
            for (const Item &it : retryQ)
                if (jstate[it.job] == 0)
                    reject(it.job, std::max(f.at, arrivals[it.job].atSec),
                           false);
            for (std::size_t j = next; j < n; ++j)
                reject(static_cast<std::uint32_t>(j),
                       std::max(f.at, arrivals[j].atSec), false);
            pending.clear();
            retryQ.clear();
            next = n;
            return;
        }
        // Gang classes wider than the surviving fleet fail over
        // through the partition patch path, paying migration as a
        // wall-clock pause on every survivor.
        for (std::size_t k = 0; k < sp.classes.size(); ++k) {
            Assets::Gang *g = assets->gang[k].get();
            if (!g || g->activeSlots <= aliveCount)
                continue;
            std::uint64_t bytes = 0;
            while (g->activeSlots > aliveCount) {
                const std::uint32_t dead =
                    static_cast<std::uint32_t>(g->activeSlots - 1);
                g->slotAlive[dead] = 0;
                --g->activeSlots;
                fault::FailoverPlan plan;
                sim::Error err = fault::planFailover(
                    g->expMiss->graph(), g->spec, g->psMiss.part, dead,
                    g->slotAlive, nullptr, g->wMiss, plan);
                panicIf(bool(err), "gang failover planning failed");
                assets->eng->recompilePartition(g->psMiss, plan.part);
                bytes += plan.migrationBytes;
                fault::FailoverPlan planHit;
                err = fault::planFailover(
                    g->expHit->graph(), g->spec, g->psHit.part, dead,
                    g->slotAlive, nullptr, g->wHit, planHit);
                panicIf(bool(err), "gang failover planning failed");
                assets->eng->recompilePartition(g->psHit, planHit.part);
            }
            ++stats.failovers;
            g->failedOver = true;
            // Durations memoized under the old binding are stale.
            memo.erase(
                memo.lower_bound({static_cast<std::uint32_t>(k)}),
                memo.lower_bound({static_cast<std::uint32_t>(k + 1)}));
            g->liveMiss = assets->eng->replayRuntime(g->psMiss.compiled);
            g->liveHit = assets->eng->replayRuntime(g->psHit.compiled);
            assets->eng->rates(g->psMiss.compiled, g->rMiss);
            assets->eng->rates(g->psHit.compiled, g->rHit);
            const double mig = fault::migrationSeconds(
                bytes, sp.fleet.interconnect, aliveCount);
            stats.migratedBytes += bytes;
            stats.migrationSec += mig;
            if (mig > 0.0) {
                for (std::size_t c = 0; c < K; ++c)
                    if (chips[c].alive)
                        chips[c].freeAt =
                            std::max(chips[c].freeAt, f.at) + mig;
                if (viz) {
                    std::snprintf(label, sizeof label,
                                  "migrate %llu B (%s)",
                                  static_cast<unsigned long long>(bytes),
                                  sp.classes[k].name.c_str());
                    viz->marks.push_back({label, f.at, mig});
                }
            }
        }
    };

    fault::FaultTrace remapped; // gang-slot view of the fleet trace
    sim::RateEpochs ep;

    while (!fleetDead) {
        if (next >= n && pending.empty() && retryQ.empty()) {
            // Only failures remain: process up to the next one that
            // revokes in-flight work; ignore the rest (events beyond
            // the last departure leave the run untouched).
            std::size_t scan = failIdx;
            while (scan < fails.size() && !failRevokes(fails[scan]))
                ++scan;
            if (scan >= fails.size())
                break;
            for (; failIdx <= scan; ++failIdx)
                processFail(fails[failIdx]);
            continue;
        }
        if (pending.empty()) {
            const bool takeArrival =
                next < n && (retryQ.empty() ||
                             arrivals[next].atSec <= retryQ.front().ready);
            if (takeArrival) {
                pending.push_back({arrivals[next].atSec,
                                   static_cast<std::uint32_t>(next)});
                ++next;
            } else {
                pending.push_back(retryQ.front());
                retryQ.erase(retryQ.begin());
            }
        }
        const Item head = pending.front();
        const std::uint32_t k = arrivals[head.job].klass;
        const ServingSim::ClassModel &m = sim.models[k];
        Assets::Gang *g = assets ? assets->gang[k].get() : nullptr;
        const std::size_t width = g ? g->activeSlots : m.shards;

        // The `width` least-loaded *alive* chips, degraded chips
        // deprioritized, ties to the lowest id.
        chosen.clear();
        for (std::size_t c = 0; c < K; ++c) {
            if (!chips[c].alive)
                continue;
            chosen.push_back(c);
            if (anyRate)
                degradedNow[c] =
                    degradedAt(c, std::max(head.ready, chips[c].freeAt));
        }
        std::sort(chosen.begin(), chosen.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (degradedNow[a] != degradedNow[b])
                          return !degradedNow[a];
                      if (chips[a].freeAt != chips[b].freeAt)
                          return chips[a].freeAt < chips[b].freeAt;
                      return a < b;
                  });
        chosen.resize(width);
        double start = head.ready;
        for (std::size_t c : chosen)
            start = std::max(start, chips[c].freeAt);

        // Failures due by the dispatch time land first; the fleet
        // they leave behind re-selects from scratch.
        if (failIdx < fails.size() && fails[failIdx].at <= start) {
            processFail(fails[failIdx]);
            ++failIdx;
            continue;
        }
        if (start > deadlineOf(head.job)) {
            reject(head.job, start, true);
            pending.pop_front();
            continue;
        }

        // Jobs arriving while the chips drain are admission
        // candidates: they may join this batch.
        while (next < n && arrivals[next].atSec <= start) {
            pending.push_back(
                {arrivals[next].atSec, static_cast<std::uint32_t>(next)});
            ++next;
        }
        while (!retryQ.empty() && retryQ.front().ready <= start) {
            pending.push_back(retryQ.front());
            retryQ.erase(retryQ.begin());
        }
        stats.done.maxQueueDepth =
            std::max(stats.done.maxQueueDepth, pending.size());

        const std::uint32_t firstChip = static_cast<std::uint32_t>(
            *std::min_element(chosen.begin(), chosen.end()));
        const std::size_t bwIdx = m.shards > 1 ? 0 : sim.chipBw[firstChip];
        bool warmCtx = true;
        for (std::size_t c : chosen)
            warmCtx = warmCtx &&
                      chips[c].lastClass == static_cast<std::int64_t>(k);

        // p4db-style target batch: coalesce queued same-class jobs
        // behind the head until the size target or the estimated
        // batch duration is reached. Candidates past their deadline
        // stay queued (they reject when they reach the head).
        batchIds.assign(1, head.job);
        double estSec = warmCtx ? m.warmSvc[bwIdx] : m.coldSvc[bwIdx];
        taken.assign(pending.size(), 0);
        taken[0] = 1;
        for (std::size_t i = 1; i < pending.size(); ++i) {
            if (batchIds.size() >= sp.batch.targetBatch)
                break;
            if (sp.batch.targetBatchSec > 0.0 &&
                estSec >= sp.batch.targetBatchSec)
                break;
            if (arrivals[pending[i].job].klass != k)
                continue;
            if (start > deadlineOf(pending[i].job))
                continue;
            taken[i] = 1;
            batchIds.push_back(pending[i].job);
            estSec += m.warmSvc[bwIdx];
        }
        {
            std::size_t kept = 0;
            for (std::size_t i = 0; i < pending.size(); ++i)
                if (!taken[i])
                    pending[kept++] = pending[i];
            pending.resize(kept);
        }

        // Any rate events on the chosen chips? A gang's rescan prices
        // against the trace remapped into slot coordinates (chosen[i]
        // -> slot i), built on first use per dispatch.
        bool affected = false;
        for (std::size_t c : chosen)
            affected = affected || chipRate[c] != 0;
        bool remappedReady = false;
        const auto remappedTrace = [&]() -> const fault::FaultTrace & {
            if (remappedReady)
                return remapped;
            remapped.events.clear();
            for (const fault::FaultEvent &e : tr.events) {
                if (e.kind != fault::FaultKind::ChannelDegrade &&
                    e.kind != fault::FaultKind::TransientStall)
                    continue;
                for (std::size_t i = 0; i < width; ++i)
                    if (chosen[i] == e.shard) {
                        fault::FaultEvent ev = e;
                        ev.shard = static_cast<std::uint32_t>(i);
                        remapped.events.push_back(ev);
                        break;
                    }
            }
            remapped.normalize();
            remappedReady = true;
            return remapped;
        };
        const bool gangFo = g && g->activeSlots < m.shards;
        const double cleanMiss = g ? g->liveMiss : m.missRt[bwIdx];
        const double cleanHit = g ? g->liveHit : m.hitRt[bwIdx];

        // Price one op of variant v starting at t on the affected
        // chosen chips through the constant-state memo, or a piecewise
        // replay of the op's epoch table rebuilt from the trace when a
        // fault edge cuts the op; returns whether the op degraded.
        const auto priceFaulted = [&](std::size_t v, double t,
                                      double &dur) {
            const double clean = dur;
            const Assets::OpSched *os =
                g ? nullptr : &assets->ops[k * 2 + v];
            const sim::CompiledSchedule &cs =
                g ? (v ? g->psHit : g->psMiss).compiled.schedule : os->cs;
            const sim::ReplayRates &rates =
                g ? (v ? g->rHit : g->rMiss) : os->rates[bwIdx];
            const Price how =
                memoPricing
                    ? timelinePrice(k, v, bwIdx, cs, rates, clean, t, dur)
                    : Price::Rescan;
            if (how == Price::Memo) {
                ++assets->memoOps;
                return true;
            }
            if (how == Price::Clean)
                return false;
            ++assets->rescanOps;
            ep = g ? fault::buildEpochs(remappedTrace(),
                                        g->psMiss.compiled, t)
                   : fault::buildChipEpochs(tr, firstChip,
                                            cs.resourceCount(), t);
            if (!(firstBoundary(ep) < clean))
                return false;
            if (viz && !g) {
                obs::TraceSegment seg;
                seg.baseSec = t;
                seg.resourceBase = static_cast<std::uint32_t>(
                    firstChip * (sim.viz_ ? sim.viz_->perChip
                                          : cs.resourceCount()));
                seg.epochs = ep;
                dur = obs::replayPiecewiseTraced(cs, rates, ep, nullptr,
                                                 assets->scratch, seg.buf);
                viz->segments.push_back(std::move(seg));
            } else {
                dur = cs.replayPiecewise(rates, ep, nullptr,
                                         assets->scratch);
            }
            return true;
        };

        // Execute the batch: the leader runs cold unless the chips are
        // already warm on this class; followers inherit a warmed key
        // cache. Ops price at the clean scalars unless a chosen chip
        // carries rate events.
        Rec &rec = recs[firstChip];
        for (std::size_t c : rec.chips)
            if (chips[c].rec == firstChip)
                chips[c].rec = kNoRec; // a former partner keeps no view
        rec.open = true;
        rec.chips.assign(chosen.begin(), chosen.end());
        rec.jobs.clear();
        rec.fin.clear();
        double t = start;
        for (std::size_t b = 0; b < batchIds.size(); ++b) {
            const std::uint32_t j = batchIds[b];
            const bool warm = b > 0 || warmCtx;
            const std::vector<std::uint8_t> &mask =
                warm ? m.warmMask : m.coldMask;
            const double jobStart = t;
            bool jobDegraded = false;
            for (std::size_t i = 0; i < mask.size(); ++i) {
                const std::size_t v = mask[i] ? 1 : 0;
                double dur = v ? cleanHit : cleanMiss;
                const bool opDegraded =
                    affected && priceFaulted(v, t, dur);
                if (!opDegraded && viz && sim.viz_ && m.shards == 1) {
                    obs::TraceSegment seg;
                    seg.baseSec = t;
                    seg.resourceBase = static_cast<std::uint32_t>(
                        firstChip * sim.viz_->perChip);
                    seg.buf = sim.viz_->bufs[k][v][bwIdx];
                    viz->segments.push_back(std::move(seg));
                }
                t += dur;
                jobDegraded = jobDegraded || opDegraded;
            }
            JobResult &res = out[j];
            res.arriveSec = arrivals[j].atSec;
            res.startSec = jobStart;
            res.finishSec = t;
            res.klass = k;
            res.tenant = arrivals[j].tenant;
            res.chip = firstChip;
            res.batch = batchSeq;
            res.warmStart = warm;
            res.rejected = false;
            res.degraded = jobDegraded || res.retries > 0 || gangFo;
            jstate[j] = 1;
            rec.jobs.push_back(j);
            rec.fin.push_back(t);
        }
        rec.end = t;
        for (std::size_t c : chosen) {
            chips[c].freeAt = t;
            chips[c].lastClass = static_cast<std::int64_t>(k);
            chips[c].rec = firstChip;
        }
        if (viz) {
            std::snprintf(label, sizeof label,
                          "batch %u: %zux %s @chip%u%s", batchSeq,
                          batchIds.size(), sp.classes[k].name.c_str(),
                          firstChip, m.shards > 1 ? " (gang)" : "");
            viz->marks.push_back({label, start, t - start});
        }
        ++batchSeq;
        ++stats.done.batches;
        if (batchIds.size() > 1)
            stats.done.batchedJobs += batchIds.size();
    }

    // Aggregate completed jobs: nearest-rank latency percentiles plus
    // sustained QPS, the fault ledger and the healthy/degraded split.
    // With no degraded job the healthy window is every completed job,
    // so it reads its percentiles off the overall sort.
    std::vector<double> lat, degradedLat;
    lat.reserve(n);
    double sum = 0.0;
    double maxSalvagedSettle = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const JobResult &r = out[j];
        if (jstate[j] == 2) {
            if (salvaged[j])
                maxSalvagedSettle =
                    std::max(maxSalvagedSettle, r.finishSec);
            continue;
        }
        if (jstate[j] == 0) {
            ++stats.lostJobs; // must stay 0 (CI-gated)
            continue;
        }
        ++stats.completedJobs;
        if (salvaged[j])
            maxSalvagedSettle = std::max(maxSalvagedSettle, r.finishSec);
        const ServingSim::ClassModel &m = sim.models[r.klass];
        stats.done.warmJobs += r.warmStart ? 1 : 0;
        stats.done.keyCacheHitOps +=
            r.warmStart ? m.warmHits : m.coldHits;
        stats.done.totalOps += m.coldMask.size();
        lat.push_back(r.latencySec());
        sum += r.latencySec();
        stats.done.makespanSec =
            std::max(stats.done.makespanSec, r.finishSec);
        if (r.degraded)
            degradedLat.push_back(r.latencySec());
    }
    stats.done.jobs = stats.completedJobs;
    stats.degradedJobs = degradedLat.size();
    stats.healthyJobs = stats.completedJobs - stats.degradedJobs;
    if (!lat.empty()) {
        std::sort(lat.begin(), lat.end());
        stats.done.meanLatencySec =
            sum / static_cast<double>(lat.size());
        stats.done.p50LatencySec = stats::percentileSorted(lat, 0.50);
        stats.done.p99LatencySec = stats::percentileSorted(lat, 0.99);
        stats.done.p999LatencySec = stats::percentileSorted(lat, 0.999);
        stats.done.maxLatencySec = lat.back();
        if (stats.done.makespanSec > 0.0)
            stats.done.qps = static_cast<double>(stats.done.jobs) /
                             stats.done.makespanSec;
    }
    if (!degradedLat.empty()) {
        std::sort(degradedLat.begin(), degradedLat.end());
        stats.degradedP50Sec =
            stats::percentileSorted(degradedLat, 0.50);
        stats.degradedP99Sec =
            stats::percentileSorted(degradedLat, 0.99);
    }
    if (stats.healthyJobs > 0) {
        std::vector<double> healthyLat;
        if (stats.degradedJobs > 0) {
            healthyLat.reserve(stats.healthyJobs);
            for (std::size_t j = 0; j < n; ++j)
                if (jstate[j] == 1 && !out[j].degraded)
                    healthyLat.push_back(out[j].latencySec());
            std::sort(healthyLat.begin(), healthyLat.end());
        }
        const std::vector<double> &h =
            stats.degradedJobs > 0 ? healthyLat : lat;
        stats.healthyP50Sec = stats::percentileSorted(h, 0.50);
        stats.healthyP99Sec = stats::percentileSorted(h, 0.99);
    }
    if (stats.healthyP99Sec > 0.0 && stats.degradedP99Sec > 0.0)
        stats.degradedOverHealthyP99 =
            stats.degradedP99Sec / stats.healthyP99Sec;
    if (anySalvage)
        stats.recoverySec =
            std::max(0.0, maxSalvagedSettle - firstFailAt);

    if (viz)
        for (const JobResult &r : out)
            viz->marks.push_back(
                {"arrive " + sp.classes[r.klass].name + " t" +
                     std::to_string(r.tenant),
                 r.arriveSec, 0.0});
}

void
FaultServingSim::exportMetrics(obs::MetricsRegistry &m,
                               const std::string &prefix) const
{
    m.count(prefix + "completed_jobs", nCompleted);
    m.count(prefix + "rejected_jobs", nRejected);
    m.count(prefix + "timed_out_jobs", nTimedOut);
    m.count(prefix + "lost_jobs", nLost);
    m.count(prefix + "retries", nRetries);
    m.count(prefix + "salvaged_jobs", nSalvaged);
    m.count(prefix + "chip_failures", nChipFailures);
    m.count(prefix + "failovers", nFailovers);
    m.count(prefix + "migrated_bytes", nMigratedBytes);
    m.count(prefix + "memo_priced_ops", assets->memoOps);
    m.count(prefix + "rescan_priced_ops", assets->rescanOps);
    m.gauge(prefix + "healthy_p99_sec", lastStats.healthyP99Sec);
    m.gauge(prefix + "degraded_p99_sec", lastStats.degradedP99Sec);
    m.gauge(prefix + "degraded_over_healthy_p99",
            lastStats.degradedOverHealthyP99);
    m.gauge(prefix + "recovery_sec", lastStats.recoverySec);
    m.gauge(prefix + "migration_sec", lastStats.migrationSec);
}

sim::Error
trySimulateFaultServing(const ServeSpec &spec,
                        const std::vector<JobArrival> &arrivals,
                        const fault::FaultTrace &trace,
                        const RetryPolicy &policy, ExperimentRunner &runner,
                        std::vector<JobResult> &out, FaultServeStats &stats,
                        tune::EvalCache *cache)
{
    if (sim::Error err = checkSpec(spec))
        return err;
    if (sim::Error err = checkStreams(arrivals, spec.classes.size()))
        return err;
    if (sim::Error err = checkRetryPolicy(policy))
        return err;
    ServingSim base(spec, runner, cache);
    FaultServingSim faulty(base);
    return faulty.run(arrivals, trace, policy, out, stats);
}

} // namespace ciflow::serve
