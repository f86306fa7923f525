/**
 * @file
 * Tests for fault-aware serving: zero-fault bit-identity against the
 * healthy serving loop (single-chip, gang and heterogeneous fleets),
 * exact retry/backoff/deadline accounting on a hand-built two-job
 * chip-failure scenario, degraded-op pricing against a from-scratch
 * piecewise-replay reference, fault-aware admission, gang failover
 * against the planFailover/recompilePartition reference, fleet-death
 * rejection (nothing silently lost), bit-identical seeded runs across
 * repeats and estimator thread counts, open-horizon events being
 * cleanly ignored, stream/policy/trace validation through the
 * non-panicking entry points, tenant/fault seed-stream disjointness,
 * the timeline/memo pricing against the per-op rescan reference
 * (seeded traces, hand-placed edges, traced runs), a former gang
 * partner's failure sparing the batch that reused its record,
 * chip-local epoch tables, and the Chrome-trace cut clamp.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "fault/failover.h"
#include "fault/fault_replay.h"
#include "fault/fault_trace.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "rpu/experiment.h"
#include "rpu/workload.h"
#include "serve/arrivals.h"
#include "serve/fault_serving.h"
#include "serve/serving.h"
#include "shard/placement_search.h"
#include "shard/sharded_engine.h"

using namespace ciflow;
using namespace ciflow::serve;

namespace
{

const double kInf = std::numeric_limits<double>::infinity();

/**
 * One-class serving spec whose jobs are a single rotation op
 * (reduction over 2 slots), so a job's service time IS the one per-op
 * scalar and `start + classServiceSec` is exact to the bit — the
 * property the hand-built accounting tests lean on.
 */
ServeSpec
oneOpSpec(std::size_t chips)
{
    const HksParams &par = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back(
        {"rot1", HeWorkload::reduction(2), par, Dataflow::OC, 1});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = chips;
    sp.fleet.keyCacheBytes = par.evkBytes() * 8;
    sp.batch.targetBatch = 1;
    return sp;
}

/** n same-class arrivals at t = 0, one tenant each. */
std::vector<JobArrival>
atZero(std::size_t n, std::uint32_t klass = 0)
{
    std::vector<JobArrival> arr;
    for (std::size_t i = 0; i < n; ++i)
        arr.push_back({0.0, klass, static_cast<std::uint32_t>(i)});
    normalizeArrivals(arr);
    return arr;
}

/** Field-by-field JobResult equality including the fault fields. */
bool
sameFaultResults(const std::vector<JobResult> &a,
                 const std::vector<JobResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const JobResult &x = a[i], &y = b[i];
        if (x.arriveSec != y.arriveSec || x.startSec != y.startSec ||
            x.finishSec != y.finishSec || x.klass != y.klass ||
            x.tenant != y.tenant || x.chip != y.chip ||
            x.batch != y.batch || x.warmStart != y.warmStart ||
            x.retries != y.retries || x.rejected != y.rejected ||
            x.degraded != y.degraded)
            return false;
    }
    return true;
}

bool
sameServeStats(const ServeStats &a, const ServeStats &b)
{
    return a.jobs == b.jobs && a.batches == b.batches &&
           a.batchedJobs == b.batchedJobs && a.warmJobs == b.warmJobs &&
           a.keyCacheHitOps == b.keyCacheHitOps &&
           a.totalOps == b.totalOps &&
           a.maxQueueDepth == b.maxQueueDepth &&
           a.makespanSec == b.makespanSec && a.qps == b.qps &&
           a.meanLatencySec == b.meanLatencySec &&
           a.p50LatencySec == b.p50LatencySec &&
           a.p99LatencySec == b.p99LatencySec &&
           a.p999LatencySec == b.p999LatencySec &&
           a.maxLatencySec == b.maxLatencySec;
}

/** Hex-float one-line-per-job form: equal runs give equal bytes. */
std::string
serializeFault(const std::vector<JobResult> &v)
{
    std::string s;
    char line[256];
    for (const JobResult &r : v) {
        std::snprintf(line, sizeof line, "%a %a %a %u %u %u %u %d %u %d %d\n",
                      r.arriveSec, r.startSec, r.finishSec, r.klass,
                      r.tenant, r.chip, r.batch,
                      static_cast<int>(r.warmStart), r.retries,
                      static_cast<int>(r.rejected),
                      static_cast<int>(r.degraded));
        s += line;
    }
    return s;
}

/** Every FaultServeStats field, bit for bit. */
bool
sameFaultStats(const FaultServeStats &a, const FaultServeStats &b)
{
    return sameServeStats(a.done, b.done) &&
           a.completedJobs == b.completedJobs &&
           a.rejectedJobs == b.rejectedJobs &&
           a.timedOutJobs == b.timedOutJobs && a.lostJobs == b.lostJobs &&
           a.retries == b.retries && a.salvagedJobs == b.salvagedJobs &&
           a.chipFailures == b.chipFailures && a.failovers == b.failovers &&
           a.migratedBytes == b.migratedBytes &&
           a.migrationSec == b.migrationSec &&
           a.healthyJobs == b.healthyJobs &&
           a.degradedJobs == b.degradedJobs &&
           a.healthyP50Sec == b.healthyP50Sec &&
           a.healthyP99Sec == b.healthyP99Sec &&
           a.degradedP50Sec == b.degradedP50Sec &&
           a.degradedP99Sec == b.degradedP99Sec &&
           a.degradedOverHealthyP99 == b.degradedOverHealthyP99 &&
           a.recoverySec == b.recoverySec;
}

/** Lifetime (memo-priced, rescan-priced) op counters of `fs`. */
std::pair<std::uint64_t, std::uint64_t>
pricingSplit(const FaultServingSim &fs)
{
    obs::MetricsRegistry m;
    fs.exportMetrics(m, "");
    std::pair<std::uint64_t, std::uint64_t> split{0, 0};
    for (const obs::Metric &x : m.snapshot()) {
        if (x.name == "memo_priced_ops")
            split.first = x.count;
        if (x.name == "rescan_priced_ops")
            split.second = x.count;
    }
    return split;
}

/**
 * Serve `arr` under `tr` twice on `fs` — timeline/memo pricing, then
 * the rescan reference (a traced run, which prices every faulted op by
 * rebuilding its epoch table) — and expect every JobResult and every
 * FaultServeStats field to agree to the bit. Returns the memo run's
 * (memo-priced, rescan-priced) op counts.
 */
std::pair<std::uint64_t, std::uint64_t>
expectMemoMatchesRescan(FaultServingSim &fs,
                        const std::vector<JobArrival> &arr,
                        const fault::FaultTrace &tr,
                        const RetryPolicy &pol,
                        std::vector<JobResult> *memoOut = nullptr)
{
    std::vector<JobResult> out, ref;
    FaultServeStats st, rst;
    const auto before = pricingSplit(fs);
    EXPECT_TRUE(fs.run(arr, tr, pol, out, st).ok());
    const auto after = pricingSplit(fs);
    obs::ScenarioTrace viz;
    EXPECT_TRUE(fs.run(arr, tr, pol, ref, rst, &viz).ok());
    EXPECT_EQ(serializeFault(out), serializeFault(ref));
    EXPECT_TRUE(sameFaultStats(st, rst));
    EXPECT_EQ(pricingSplit(fs).first, after.first)
        << "the reference run used the memo";
    if (memoOut)
        *memoOut = out;
    return {after.first - before.first, after.second - before.second};
}

/** A stall event (factor `f`, `dur` seconds) on `chip` at `at`. */
fault::FaultEvent
stallAt(double at, std::uint32_t chip, double f, double dur)
{
    return {at, fault::FaultKind::TransientStall, chip, 0, f, dur};
}

TEST(FaultServe, PolicyAndStreamValidation)
{
    EXPECT_TRUE(checkRetryPolicy(RetryPolicy{}).ok());
    RetryPolicy p;
    p.maxRetries = 0; // no retries is a valid (reject-on-fail) policy
    EXPECT_TRUE(checkRetryPolicy(p).ok());

    p = RetryPolicy{};
    p.backoffSec = -1.0;
    EXPECT_EQ(checkRetryPolicy(p).code, sim::ErrorCode::BadServeSpec);
    p.backoffSec = kInf;
    EXPECT_EQ(checkRetryPolicy(p).code, sim::ErrorCode::BadServeSpec);
    p.backoffSec = std::nan("");
    EXPECT_EQ(checkRetryPolicy(p).code, sim::ErrorCode::BadServeSpec);

    p = RetryPolicy{};
    p.deadlineSec = 0.0;
    EXPECT_EQ(checkRetryPolicy(p).code, sim::ErrorCode::BadServeSpec);
    p.deadlineSec = std::nan("");
    EXPECT_EQ(checkRetryPolicy(p).code, sim::ErrorCode::BadServeSpec);

    // checkStreams = checkArrivals plus deadline validation.
    std::vector<JobArrival> ok{{0.1, 0, 0}, {0.2, 1, 0, 5.0}};
    EXPECT_TRUE(checkStreams(ok, 2).ok());
    std::vector<JobArrival> unsorted{{0.2, 0, 0}, {0.1, 0, 0}};
    EXPECT_EQ(checkStreams(unsorted, 2).code,
              sim::ErrorCode::BadServeSpec);
    std::vector<JobArrival> badClass{{0.1, 7, 0}};
    EXPECT_EQ(checkStreams(badClass, 2).code,
              sim::ErrorCode::BadServeSpec);
    std::vector<JobArrival> zeroDeadline{{0.1, 0, 0, 0.0}};
    EXPECT_EQ(checkStreams(zeroDeadline, 2).code,
              sim::ErrorCode::BadServeSpec);
    std::vector<JobArrival> nanDeadline{{0.1, 0, 0, std::nan("")}};
    EXPECT_EQ(checkStreams(nanDeadline, 2).code,
              sim::ErrorCode::BadServeSpec);
    // checkArrivals stays deadline-blind (the healthy path ignores
    // them), so old streams keep validating unchanged.
    EXPECT_TRUE(checkArrivals(zeroDeadline, 2).ok());
}

TEST(FaultServe, MalformedTraceIsSurfacedNotSimulated)
{
    ServeSpec sp = oneOpSpec(1);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    FaultServingSim fs(sim);
    EXPECT_EQ(fs.shape().shards, 1u);
    EXPECT_EQ(fs.shape().links, 0u);

    const std::vector<JobArrival> arr = atZero(1);
    std::vector<JobResult> out;
    FaultServeStats st;
    const RetryPolicy pol;

    fault::FaultTrace link;
    link.events.push_back(
        {0.1, fault::FaultKind::LinkDegrade, 0, 0, 0.5, 0.0});
    EXPECT_EQ(fs.run(arr, link, pol, out, st).code,
              sim::ErrorCode::BadFaultTrace);

    fault::FaultTrace badShard;
    badShard.events.push_back(
        {0.1, fault::FaultKind::ChipFail, 5, 0, 1.0, 0.0});
    EXPECT_EQ(fs.run(arr, badShard, pol, out, st).code,
              sim::ErrorCode::BadFaultTrace);

    fault::FaultTrace badChannel;
    badChannel.events.push_back(
        {0.1, fault::FaultKind::ChannelDegrade, 0, 1000, 0.5, 0.0});
    EXPECT_EQ(fs.run(arr, badChannel, pol, out, st).code,
              sim::ErrorCode::BadFaultTrace);

    // A stall whose end time overflows is malformed...
    fault::FaultTrace overflow;
    overflow.events.push_back(
        {1e308, fault::FaultKind::TransientStall, 0, 0, 0.5, 1e308});
    EXPECT_EQ(fs.run(arr, overflow, pol, out, st).code,
              sim::ErrorCode::BadFaultTrace);
    EXPECT_EQ(fault::checkTrace(overflow, {1, 1, 0}).code,
              sim::ErrorCode::BadFaultTrace);

    // ...but finite events far beyond any departure are valid:
    // validation is horizon-independent by design.
    fault::FaultTrace far;
    far.events.push_back(
        {1e9, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});
    EXPECT_TRUE(fault::checkTrace(far, {1, 1, 0}).ok());
}

TEST(FaultServe, ZeroFaultRunIsBitIdenticalToHealthyServing)
{
    // Two single-chip classes plus a gang class on a 3-chip fleet:
    // the empty-trace run must reproduce ServingSim::run to the bit,
    // batching and all.
    const HksParams &ark = benchmarkByName("ARK");
    const HksParams &bts = benchmarkByName("BTS1");
    ServeSpec sp;
    sp.classes.push_back(
        {"reduce8", HeWorkload::reduction(8), ark, Dataflow::OC, 1});
    sp.classes.push_back(
        {"matvec4", HeWorkload::matVec(4), ark, Dataflow::OC, 1});
    sp.classes.push_back(
        {"gang2", HeWorkload::reduction(2), bts, Dataflow::MP, 2});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = 3;
    sp.fleet.keyCacheBytes = ark.evkBytes() * 8;
    sp.batch.targetBatch = 4;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);

    std::vector<JobArrival> arr;
    for (std::size_t i = 0; i < 12; ++i)
        arr.push_back({0.0, static_cast<std::uint32_t>(i % 3),
                       static_cast<std::uint32_t>(i)});
    normalizeArrivals(arr);

    std::vector<JobResult> healthy, faulty;
    ServeStats hst;
    FaultServeStats fst;
    ASSERT_TRUE(sim.run(arr, healthy, hst).ok());
    FaultServingSim fs(sim);
    ASSERT_TRUE(
        fs.run(arr, fault::FaultTrace{}, RetryPolicy{}, faulty, fst)
            .ok());

    EXPECT_TRUE(sameFaultResults(healthy, faulty));
    EXPECT_TRUE(sameServeStats(hst, fst.done));
    EXPECT_EQ(fst.completedJobs, arr.size());
    EXPECT_EQ(fst.rejectedJobs, 0u);
    EXPECT_EQ(fst.lostJobs, 0u);
    EXPECT_EQ(fst.retries, 0u);
    EXPECT_EQ(fst.chipFailures, 0u);
    EXPECT_EQ(fst.failovers, 0u);
    EXPECT_EQ(fst.degradedJobs, 0u);
    EXPECT_EQ(fst.healthyJobs, arr.size());
    EXPECT_EQ(fst.healthyP50Sec, hst.p50LatencySec);
    EXPECT_EQ(fst.healthyP99Sec, hst.p99LatencySec);
    EXPECT_EQ(fst.degradedOverHealthyP99, 0.0);
    for (const JobResult &r : faulty) {
        EXPECT_EQ(r.retries, 0u);
        EXPECT_FALSE(r.rejected);
        EXPECT_FALSE(r.degraded);
    }
}

TEST(FaultServe, ZeroFaultIdentityOnHeterogeneousFleet)
{
    const HksParams &par = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back(
        {"rot1", HeWorkload::reduction(2), par, Dataflow::OC, 1});
    sp.classes.push_back(
        {"matvec2", HeWorkload::matVec(2), par, Dataflow::OC, 1});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = 2;
    sp.fleet.chipBandwidthGBps = {4.0, 8.0};
    sp.fleet.keyCacheBytes = par.evkBytes() * 8;
    sp.batch.targetBatch = 2;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);

    std::vector<JobArrival> arr;
    for (std::size_t i = 0; i < 8; ++i)
        arr.push_back({0.0, static_cast<std::uint32_t>(i % 2),
                       static_cast<std::uint32_t>(i)});
    normalizeArrivals(arr);

    std::vector<JobResult> healthy, faulty;
    ServeStats hst;
    FaultServeStats fst;
    ASSERT_TRUE(sim.run(arr, healthy, hst).ok());
    FaultServingSim fs(sim);
    ASSERT_TRUE(
        fs.run(arr, fault::FaultTrace{}, RetryPolicy{}, faulty, fst)
            .ok());
    EXPECT_TRUE(sameFaultResults(healthy, faulty));
    EXPECT_TRUE(sameServeStats(hst, fst.done));
}

TEST(FaultServe, TwoJobChipFailRetryAccountingExact)
{
    // Two jobs at t = 0 on a 2-chip fleet; chip 0 dies mid-flight.
    // Every time in the outcome is a closed-form function of the two
    // class service scalars, asserted to the bit.
    ServeSpec sp = oneOpSpec(2);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    const double warm = sim.classServiceSec(0, true);
    const double f = 0.5 * cold;

    fault::FaultTrace tr;
    tr.events.push_back({f, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});
    RetryPolicy pol;
    pol.backoffSec = cold; // attempt 0 re-queues at f + cold

    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;
    obs::ScenarioTrace viz;
    ASSERT_TRUE(fs.run(atZero(2), tr, pol, out, st, &viz).ok());
    ASSERT_EQ(out.size(), 2u);

    // Job 1 ran cleanly on chip 1 over [0, cold].
    EXPECT_EQ(out[1].startSec, 0.0);
    EXPECT_EQ(out[1].finishSec, cold);
    EXPECT_EQ(out[1].chip, 1u);
    EXPECT_EQ(out[1].retries, 0u);
    EXPECT_FALSE(out[1].rejected);
    EXPECT_FALSE(out[1].degraded);

    // Job 0's first run [0, cold] on chip 0 was revoked at f; it
    // re-queued at f + backoff * 2^0 and re-ran warm on chip 1 (the
    // dead chip is never admitted to).
    EXPECT_EQ(out[0].startSec, f + cold); // max(f + backoff, freeAt)
    EXPECT_EQ(out[0].finishSec, f + cold + warm);
    EXPECT_EQ(out[0].chip, 1u);
    EXPECT_EQ(out[0].retries, 1u);
    EXPECT_EQ(out[0].batch, 2u); // dispatched as the third batch
    EXPECT_TRUE(out[0].warmStart);
    EXPECT_FALSE(out[0].rejected);
    EXPECT_TRUE(out[0].degraded);

    EXPECT_EQ(st.completedJobs, 2u);
    EXPECT_EQ(st.done.jobs, 2u);
    EXPECT_EQ(st.rejectedJobs, 0u);
    EXPECT_EQ(st.timedOutJobs, 0u);
    EXPECT_EQ(st.lostJobs, 0u);
    EXPECT_EQ(st.retries, 1u);
    EXPECT_EQ(st.salvagedJobs, 1u);
    EXPECT_EQ(st.chipFailures, 1u);
    EXPECT_EQ(st.failovers, 0u);
    EXPECT_EQ(st.migratedBytes, 0u);
    EXPECT_EQ(st.migrationSec, 0.0);
    EXPECT_EQ(st.done.batches, 3u);
    EXPECT_EQ(st.done.warmJobs, 1u);
    EXPECT_EQ(st.done.makespanSec, f + cold + warm);
    EXPECT_EQ(st.healthyJobs, 1u);
    EXPECT_EQ(st.degradedJobs, 1u);
    EXPECT_EQ(st.healthyP99Sec, cold);
    EXPECT_EQ(st.degradedP99Sec, f + cold + warm);
    EXPECT_EQ(st.degradedOverHealthyP99, (f + cold + warm) / cold);
    EXPECT_EQ(st.recoverySec, (f + cold + warm) - f);

    // The failure and the retry made it into the scenario marks.
    bool sawFail = false, sawRetry = false;
    for (const obs::TraceMark &m : viz.marks) {
        sawFail = sawFail || m.label.rfind("chip 0 failed", 0) == 0;
        sawRetry = sawRetry || m.label.rfind("retry job 0", 0) == 0;
    }
    EXPECT_TRUE(sawFail);
    EXPECT_TRUE(sawRetry);

    // The viz attachment cannot change outcomes.
    std::vector<JobResult> plain;
    FaultServeStats pst;
    ASSERT_TRUE(fs.run(atZero(2), tr, pol, plain, pst).ok());
    EXPECT_TRUE(sameFaultResults(out, plain));
}

TEST(FaultServe, TimeoutAndRetryBudgetRejectExactly)
{
    ServeSpec sp = oneOpSpec(2);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    const double f = 0.5 * cold;
    fault::FaultTrace tr;
    tr.events.push_back({f, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});
    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;

    // (a) Backoff pushes the re-queue past the fleet deadline: the
    // salvaged job is rejected as timed out at the failure time.
    RetryPolicy pol;
    pol.backoffSec = cold;
    pol.deadlineSec = f + 0.5 * cold; // < f + backoff
    ASSERT_TRUE(fs.run(atZero(2), tr, pol, out, st).ok());
    EXPECT_TRUE(out[0].rejected);
    EXPECT_EQ(out[0].startSec, f);
    EXPECT_EQ(out[0].finishSec, f);
    EXPECT_EQ(out[0].retries, 0u);
    EXPECT_EQ(st.rejectedJobs, 1u);
    EXPECT_EQ(st.timedOutJobs, 1u);
    EXPECT_EQ(st.salvagedJobs, 1u);
    EXPECT_EQ(st.retries, 0u);
    EXPECT_EQ(st.completedJobs, 1u);
    EXPECT_EQ(st.lostJobs, 0u);
    EXPECT_EQ(st.recoverySec, 0.0); // settled at the failure itself

    // (b) Retry budget exhausted: rejected, but not as a timeout.
    RetryPolicy none;
    none.maxRetries = 0;
    ASSERT_TRUE(fs.run(atZero(2), tr, none, out, st).ok());
    EXPECT_TRUE(out[0].rejected);
    EXPECT_EQ(out[0].startSec, f);
    EXPECT_EQ(st.rejectedJobs, 1u);
    EXPECT_EQ(st.timedOutJobs, 0u);
    EXPECT_EQ(st.lostJobs, 0u);

    // (c) Per-job deadlines reject queued work even with no fault at
    // all: job 1's budget expires while job 0 holds the only chip.
    ServeSpec one = oneOpSpec(1);
    ServingSim sim1(one, runner);
    FaultServingSim fs1(sim1);
    std::vector<JobArrival> arr{{0.0, 0, 0}, {0.0, 0, 1, 0.5 * cold}};
    normalizeArrivals(arr);
    ASSERT_TRUE(
        fs1.run(arr, fault::FaultTrace{}, RetryPolicy{}, out, st).ok());
    EXPECT_FALSE(out[0].rejected);
    EXPECT_TRUE(out[1].rejected);
    EXPECT_EQ(out[1].startSec, sim1.classServiceSec(0, false));
    EXPECT_EQ(out[1].finishSec, out[1].startSec);
    EXPECT_EQ(st.timedOutJobs, 1u);
    EXPECT_EQ(st.lostJobs, 0u);
}

TEST(FaultServe, DegradedWindowSplitAndExactPiecewisePricing)
{
    // A transient stall covers only the first job's service window:
    // job 0 prices through the piecewise replay (asserted against a
    // from-scratch reference to the bit), later jobs price clean once
    // the stall has fully expired.
    ServeSpec sp = oneOpSpec(1);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    const double warm = sim.classServiceSec(0, true);

    fault::FaultTrace tr;
    tr.events.push_back({0.25 * cold, fault::FaultKind::TransientStall,
                         0, 0, 0.25, 0.25 * cold});
    tr.normalize();

    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;
    ASSERT_TRUE(fs.run(atZero(3), tr, RetryPolicy{}, out, st).ok());

    // Reference: the class's miss-variant compile replayed piecewise
    // under the chip-local epoch table, exactly as the loop prices it.
    const MemoryConfig missMem{sp.fleet.chip.dataMemBytes, false};
    const auto exp = runner.experiment(sp.classes[0].params,
                                       sp.classes[0].dataflow, missMem);
    const sim::CompiledSchedule cs =
        RpuEngine(sp.fleet.chip).compile(exp->graph());
    sim::ReplayRates rates;
    RpuEngine(sp.fleet.chip).rates(cs, rates);
    sim::ReplayScratch scratch;
    const sim::RateEpochs ep =
        fault::buildChipEpochs(tr, 0, cs.resourceCount(), 0.0);
    ASSERT_FALSE(ep.empty());
    const double dur0 = cs.replayPiecewise(rates, ep, nullptr, scratch);
    ASSERT_GT(dur0, 0.5 * cold); // the stall had not expired yet

    EXPECT_EQ(out[0].finishSec, dur0);
    EXPECT_GT(out[0].finishSec, cold); // the stall stretched the op
    EXPECT_TRUE(out[0].degraded);
    // Jobs 1 and 2 start after the stall ended: the folded epoch
    // table is empty there, so they run on the clean warm scalar.
    EXPECT_EQ(out[1].startSec, dur0);
    EXPECT_EQ(out[1].finishSec, dur0 + warm);
    EXPECT_FALSE(out[1].degraded);
    EXPECT_FALSE(out[2].degraded);

    EXPECT_EQ(st.degradedJobs, 1u);
    EXPECT_EQ(st.healthyJobs, 2u);
    EXPECT_EQ(st.degradedP99Sec, out[0].latencySec());
    EXPECT_EQ(st.healthyP99Sec,
              std::max(out[1].latencySec(), out[2].latencySec()));
    EXPECT_EQ(st.degradedOverHealthyP99,
              st.degradedP99Sec / st.healthyP99Sec);

    // With viz: identical outcomes, and the degraded op's segment
    // carries its epoch table while the clean ops' segments are flat.
    std::vector<JobResult> vout;
    FaultServeStats vst;
    obs::ScenarioTrace viz;
    ASSERT_TRUE(fs.run(atZero(3), tr, RetryPolicy{}, vout, vst, &viz).ok());
    EXPECT_TRUE(sameFaultResults(out, vout));
    ASSERT_EQ(viz.segments.size(), 3u);
    EXPECT_FALSE(viz.segments[0].epochs.empty());
    EXPECT_TRUE(viz.segments[1].epochs.empty());
    EXPECT_EQ(viz.segments[0].baseSec, out[0].startSec);
    EXPECT_EQ(out[0].finishSec,
              out[0].startSec + viz.segments[0].buf.makespan);
}

TEST(FaultServe, AdmissionAvoidsDegradedChips)
{
    ServeSpec sp = oneOpSpec(2);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    FaultServingSim fs(sim);

    std::vector<JobArrival> arr{{1e-3, 0, 0}};
    std::vector<JobResult> out;
    FaultServeStats st;

    // Clean fleet: the least-loaded tie breaks to chip 0.
    ASSERT_TRUE(
        fs.run(arr, fault::FaultTrace{}, RetryPolicy{}, out, st).ok());
    EXPECT_EQ(out[0].chip, 0u);

    // Chip 0 degraded before the arrival: admission deprioritizes it
    // and the job runs clean on chip 1 for the exact healthy price.
    fault::FaultTrace tr;
    tr.events.push_back(
        {1e-6, fault::FaultKind::ChannelDegrade, 0, 0, 0.5, 0.0});
    ASSERT_TRUE(fs.run(arr, tr, RetryPolicy{}, out, st).ok());
    EXPECT_EQ(out[0].chip, 1u);
    EXPECT_FALSE(out[0].degraded);
    EXPECT_EQ(out[0].startSec, 1e-3);
    EXPECT_EQ(out[0].finishSec, 1e-3 + cold);
    EXPECT_EQ(st.degradedJobs, 0u);
}

TEST(FaultServe, EventsBeyondLastDepartureAreCleanlyIgnored)
{
    // Failures, degrades and stalls far past the run's last departure
    // validate fine and change nothing — results, flags and stats are
    // bit-identical to the empty-trace run.
    ServeSpec sp = oneOpSpec(2);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    FaultServingSim fs(sim);

    std::vector<JobResult> base, out;
    FaultServeStats bst, st;
    ASSERT_TRUE(
        fs.run(atZero(2), fault::FaultTrace{}, RetryPolicy{}, base, bst)
            .ok());

    fault::FaultTrace far;
    far.events.push_back(
        {100.0 * cold, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});
    far.events.push_back({100.0 * cold,
                          fault::FaultKind::ChannelDegrade, 1, 0, 0.5,
                          0.0});
    far.events.push_back({100.0 * cold,
                          fault::FaultKind::TransientStall, 0, 0, 0.1,
                          cold});
    far.normalize();
    ASSERT_TRUE(fs.run(atZero(2), far, RetryPolicy{}, out, st).ok());

    EXPECT_EQ(serializeFault(base), serializeFault(out));
    EXPECT_TRUE(sameServeStats(bst.done, st.done));
    EXPECT_EQ(st.chipFailures, 0u);
    EXPECT_EQ(st.salvagedJobs, 0u);
    EXPECT_EQ(st.degradedJobs, 0u);
    EXPECT_EQ(st.healthyJobs, 2u);
}

TEST(FaultServe, GangFailoverMatchesPatchPathReference)
{
    // A 2-wide gang class loses a chip mid-job: the class re-places
    // through planFailover/recompilePartition, pays the migration as a
    // wall-clock pause, and the retried job prices at the patched
    // binding's replay runtime — all asserted against a from-scratch
    // reference.
    const HksParams &par = benchmarkByName("BTS1");
    const HeWorkload wl = HeWorkload::reduction(4);
    ServeSpec sp;
    sp.classes.push_back({"gang", wl, par, Dataflow::MP, 2});
    sp.fleet.chip.bandwidthGBps = 8.0;
    sp.fleet.chips = 2;
    sp.batch.targetBatch = 1;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    const double f = 0.5 * cold;

    fault::FaultTrace tr;
    tr.events.push_back({f, fault::FaultKind::ChipFail, 1, 0, 1.0, 0.0});
    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;
    ASSERT_TRUE(fs.run(atZero(1), tr, RetryPolicy{}, out, st).ok());

    // Reference: replicate the miss-variant patch path by hand.
    const MemoryConfig mem{sp.fleet.chip.dataMemBytes, false};
    const auto exp = runner.experiment(par, Dataflow::MP, mem);
    const shard::ShardSpec spec2 = shard::placementShardSpec(
        par, 2, sp.fleet.strategy, sp.fleet.imbalanceTol);
    const std::vector<double> w =
        shard::taskWeights(exp->graph(), sp.fleet.chip);
    const shard::Partition basePart =
        shard::partitionGraph(exp->graph(), spec2, w);
    shard::ShardedEngine eng(sp.fleet.chip, sp.fleet.interconnect);
    shard::ShardedPatchable ps =
        eng.compilePatchable(exp->graph(), basePart);
    fault::FailoverPlan plan;
    const std::vector<char> alive{1, 0};
    ASSERT_TRUE(fault::planFailover(exp->graph(), spec2, ps.part, 1,
                                    alive, nullptr, w, plan)
                    .ok());
    eng.recompilePartition(ps, plan.part);
    const double patchedOpRt = eng.replayRuntime(ps.compiled);
    const double mig = fault::migrationSeconds(
        plan.migrationBytes, sp.fleet.interconnect, 1);

    EXPECT_EQ(st.chipFailures, 1u);
    EXPECT_EQ(st.failovers, 1u);
    EXPECT_EQ(st.salvagedJobs, 1u);
    EXPECT_EQ(st.retries, 1u);
    EXPECT_EQ(st.migratedBytes, plan.migrationBytes);
    EXPECT_EQ(st.migrationSec, mig);
    EXPECT_EQ(st.lostJobs, 0u);

    // The retry re-queued at f (no backoff), waited out the migration
    // pause, and ran solo on the survivor at the patched price.
    double t = f + mig;
    const double expectStart = t;
    for (std::size_t i = 0; i < wl.ops.size(); ++i)
        t += patchedOpRt;
    EXPECT_EQ(out[0].startSec, expectStart);
    EXPECT_EQ(out[0].finishSec, t);
    EXPECT_EQ(out[0].chip, 0u);
    EXPECT_EQ(out[0].retries, 1u);
    EXPECT_TRUE(out[0].degraded); // ran on a failed-over gang
    EXPECT_FALSE(out[0].rejected);
    EXPECT_EQ(st.recoverySec, t - f);

    // A later empty-trace run on the same simulator re-binds the gang
    // to its base placement: bit-identical to the healthy loop again.
    std::vector<JobResult> healthy, faulty;
    ServeStats hst;
    FaultServeStats fst;
    ASSERT_TRUE(sim.run(atZero(1), healthy, hst).ok());
    ASSERT_TRUE(
        fs.run(atZero(1), fault::FaultTrace{}, RetryPolicy{}, faulty, fst)
            .ok());
    EXPECT_TRUE(sameFaultResults(healthy, faulty));
    EXPECT_TRUE(sameServeStats(hst, fst.done));
}

TEST(FaultServe, FormerGangPartnerFailureSparesReusedBatchRecord)
{
    // 2 chips: a gang job runs on both over [0, G], then a single-chip
    // job on chip 0 over [G, G + S]. Chip 1, the gang's former
    // partner, dies while that job is in flight: it ran nothing then,
    // so nothing is salvaged and the job finishes as without the
    // failure. A third job, arriving later, makes the loop process the
    // failure (and the gang class's failover to one chip).
    const HksParams &ark = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back({"gang2", HeWorkload::reduction(2),
                          benchmarkByName("BTS1"), Dataflow::MP, 2});
    sp.classes.push_back(
        {"rot1", HeWorkload::reduction(2), ark, Dataflow::OC, 1});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = 2;
    sp.fleet.keyCacheBytes = ark.evkBytes() * 8;
    sp.batch.targetBatch = 1;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double G = sim.classServiceSec(0, false);
    const double S = sim.classServiceSec(1, false);
    const double Sw = sim.classServiceSec(1, true);
    const double T3 = 4.0 * (G + S);

    std::vector<JobArrival> arr{{0.0, 0, 0}, {0.0, 1, 1}, {T3, 1, 2}};
    normalizeArrivals(arr);
    fault::FaultTrace tr;
    tr.events.push_back(
        {G + 0.5 * S, fault::FaultKind::ChipFail, 1, 0, 1.0, 0.0});

    FaultServingSim fs(sim);
    std::vector<JobResult> out, clean;
    FaultServeStats st, cst;
    ASSERT_TRUE(fs.run(arr, tr, RetryPolicy{}, out, st).ok());
    ASSERT_TRUE(
        fs.run(arr, fault::FaultTrace{}, RetryPolicy{}, clean, cst).ok());
    ASSERT_EQ(out.size(), 3u);

    EXPECT_EQ(st.chipFailures, 1u);
    EXPECT_EQ(st.salvagedJobs, 0u);
    EXPECT_EQ(st.retries, 0u);
    EXPECT_EQ(st.completedJobs, 3u);
    EXPECT_EQ(st.failovers, 1u);

    EXPECT_EQ(out[0].finishSec, G);
    EXPECT_EQ(out[1].chip, 0u);
    EXPECT_EQ(out[1].startSec, G);
    EXPECT_EQ(out[1].finishSec, G + S);
    EXPECT_EQ(out[1].retries, 0u);
    EXPECT_FALSE(out[1].degraded);
    EXPECT_EQ(out[1].finishSec, clean[1].finishSec);

    // Job 2 runs warm on the survivor, after the failover pause.
    const double start2 = std::max(T3, (G + S) + st.migrationSec);
    EXPECT_EQ(out[2].chip, 0u);
    EXPECT_EQ(out[2].startSec, start2);
    EXPECT_EQ(out[2].finishSec, start2 + Sw);
    EXPECT_TRUE(out[2].warmStart);
}

TEST(FaultServe, FleetDeathRejectsEverythingNothingLost)
{
    ServeSpec sp = oneOpSpec(1);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    const double f = 0.5 * cold;
    fault::FaultTrace tr;
    tr.events.push_back({f, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});

    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;
    ASSERT_TRUE(fs.run(atZero(3), tr, RetryPolicy{}, out, st).ok());

    for (const JobResult &r : out) {
        EXPECT_TRUE(r.rejected);
        EXPECT_EQ(r.startSec, f);
        EXPECT_EQ(r.finishSec, f);
    }
    EXPECT_EQ(st.completedJobs, 0u);
    EXPECT_EQ(st.rejectedJobs, 3u);
    EXPECT_EQ(st.timedOutJobs, 0u);
    EXPECT_EQ(st.lostJobs, 0u);
    EXPECT_EQ(st.salvagedJobs, 1u); // job 0 was in flight at f
    EXPECT_EQ(st.retries, 1u);
    EXPECT_EQ(st.chipFailures, 1u);
    EXPECT_EQ(st.done.jobs, 0u);
    EXPECT_EQ(st.done.p99LatencySec, 0.0); // empty-population guard
    EXPECT_EQ(st.healthyP99Sec, 0.0);
    EXPECT_EQ(st.degradedOverHealthyP99, 0.0);
}

TEST(FaultServe, DeterministicAcrossRepeatsAndThreadCounts)
{
    const HksParams &ark = benchmarkByName("ARK");
    const HksParams &bts = benchmarkByName("BTS1");
    ServeSpec sp;
    sp.classes.push_back(
        {"reduce4", HeWorkload::reduction(4), ark, Dataflow::OC, 1});
    sp.classes.push_back(
        {"gang2", HeWorkload::reduction(2), bts, Dataflow::MP, 2});
    sp.fleet.chip.bandwidthGBps = 8.0;
    sp.fleet.chips = 3;
    sp.fleet.keyCacheBytes = ark.evkBytes() * 4;
    sp.batch.targetBatch = 2;

    ExperimentRunner probe(2);
    ServingSim probeSim(sp, probe);
    const double cold = probeSim.classServiceSec(0, false);

    // Arrivals and faults derive from disjoint streams of one seed.
    ArrivalSpec as;
    as.horizonSec = 8.0 * cold;
    as.tenants.push_back({2.0 / cold, {1.0, 1.0}});
    as.tenants.push_back({2.0 / cold, {3.0, 1.0}});
    const std::vector<JobArrival> arr = poissonArrivals(as, 7);
    ASSERT_FALSE(arr.empty());

    fault::FaultModel model;
    model.chipFailMtbfSec = 40.0 * cold;
    model.channelDegradeMtbfSec = 4.0 * cold;
    model.stallMtbfSec = 6.0 * cold;
    model.degradeFactor = 0.6;
    model.stallFactor = 0.2;
    model.stallDurSec = 0.5 * cold;
    model.horizonSec = 6.0 * cold;
    const fault::MachineShape shape{
        sp.fleet.chips, sp.fleet.chip.channelCount(), 0};
    fault::FaultTrace tr =
        fault::sampleTrace(model, shape, faultStreamSeed(7, 0));
    // Guarantee mid-run activity on top of whatever was sampled.
    tr.events.push_back(
        {1.5 * cold, fault::FaultKind::ChipFail, 2, 0, 1.0, 0.0});
    tr.events.push_back(
        {0.5 * cold, fault::FaultKind::ChannelDegrade, 0, 0, 0.5, 0.0});
    tr.normalize();

    RetryPolicy pol;
    pol.backoffSec = 0.25 * cold;
    pol.deadlineSec = 50.0 * cold;

    std::string firstRun;
    FaultServeStats firstStats;
    for (std::size_t threads : {1u, 2u, 5u}) {
        ExperimentRunner runner(threads);
        ServingSim sim(sp, runner);
        FaultServingSim fs(sim);
        std::vector<JobResult> out;
        FaultServeStats st;
        ASSERT_TRUE(fs.run(arr, tr, pol, out, st).ok());
        // A second run on the same simulator must reproduce the
        // first (state resets between runs).
        std::vector<JobResult> again;
        FaultServeStats ast;
        ASSERT_TRUE(fs.run(arr, tr, pol, again, ast).ok());
        EXPECT_TRUE(sameFaultResults(out, again));

        const std::string s = serializeFault(out);
        if (firstRun.empty()) {
            firstRun = s;
            firstStats = st;
            EXPECT_GE(st.chipFailures, 1u);
            EXPECT_EQ(st.lostJobs, 0u);
            EXPECT_EQ(st.completedJobs + st.rejectedJobs, arr.size());
        } else {
            EXPECT_EQ(firstRun, s) << "threads " << threads;
            EXPECT_EQ(firstStats.completedJobs, st.completedJobs);
            EXPECT_EQ(firstStats.retries, st.retries);
            EXPECT_EQ(firstStats.chipFailures, st.chipFailures);
            EXPECT_EQ(firstStats.healthyP99Sec, st.healthyP99Sec);
            EXPECT_EQ(firstStats.degradedP99Sec, st.degradedP99Sec);
            EXPECT_EQ(firstStats.recoverySec, st.recoverySec);
        }
    }
}

TEST(FaultServe, TrySimulateMatchesManualConstruction)
{
    ServeSpec sp = oneOpSpec(1);
    ExperimentRunner runner(2);
    const std::vector<JobArrival> arr = atZero(2);
    std::vector<JobResult> out;
    FaultServeStats st;

    // Malformed inputs surface as errors, never as aborts.
    EXPECT_EQ(trySimulateFaultServing(ServeSpec{}, arr,
                                      fault::FaultTrace{}, RetryPolicy{},
                                      runner, out, st)
                  .code,
              sim::ErrorCode::BadServeSpec);
    std::vector<JobArrival> unsorted{{0.2, 0, 0}, {0.1, 0, 0}};
    EXPECT_EQ(trySimulateFaultServing(sp, unsorted, fault::FaultTrace{},
                                      RetryPolicy{}, runner, out, st)
                  .code,
              sim::ErrorCode::BadServeSpec);
    RetryPolicy bad;
    bad.backoffSec = -1.0;
    EXPECT_EQ(trySimulateFaultServing(sp, arr, fault::FaultTrace{}, bad,
                                      runner, out, st)
                  .code,
              sim::ErrorCode::BadServeSpec);
    fault::FaultTrace link;
    link.events.push_back(
        {0.1, fault::FaultKind::LinkDegrade, 0, 0, 0.5, 0.0});
    EXPECT_EQ(trySimulateFaultServing(sp, arr, link, RetryPolicy{},
                                      runner, out, st)
                  .code,
              sim::ErrorCode::BadFaultTrace);

    // A valid run is bit-identical to manual construction.
    ASSERT_TRUE(trySimulateFaultServing(sp, arr, fault::FaultTrace{},
                                        RetryPolicy{}, runner, out, st)
                    .ok());
    ServingSim sim(sp, runner);
    FaultServingSim fs(sim);
    std::vector<JobResult> manual;
    FaultServeStats mst;
    ASSERT_TRUE(
        fs.run(arr, fault::FaultTrace{}, RetryPolicy{}, manual, mst)
            .ok());
    EXPECT_TRUE(sameFaultResults(out, manual));

    // The healthy-path mirror carries the same error surface.
    std::vector<JobResult> hout;
    ServeStats hst;
    EXPECT_EQ(
        trySimulateServing(sp, unsorted, runner, hout, hst).code,
        sim::ErrorCode::BadServeSpec);
    ASSERT_TRUE(trySimulateServing(sp, arr, runner, hout, hst).ok());
    std::vector<JobResult> href;
    ServeStats hrst;
    ASSERT_TRUE(sim.run(arr, href, hrst).ok());
    EXPECT_TRUE(sameFaultResults(hout, href));
}

TEST(FaultServe, TenantAndFaultSeedStreamsAreDisjoint)
{
    const std::uint64_t seed = 9;
    EXPECT_EQ(tenantStreamSeed(seed, 3), fault::deriveSeed(seed, 3));
    EXPECT_EQ(faultStreamSeed(seed, 3),
              fault::deriveSeed(seed, (std::uint64_t{1} << 32) + 3));
    // No tenant index collides with any scenario index: the derived
    // streams can never alias between arrivals and faults.
    for (std::uint64_t t = 0; t < 64; ++t)
        for (std::uint64_t s = 0; s < 64; ++s)
            EXPECT_NE(tenantStreamSeed(seed, t), faultStreamSeed(seed, s))
                << "tenant " << t << " scenario " << s;
}

TEST(FaultServe, TimelineMemoMatchesRescanReferenceOnSeededTraces)
{
    // Seeded traces with degrades and overlapping stalls at factors
    // below, at and above 1, edges on a shared grid (stalls that end
    // where another begins) and 0-2 chip failures (two push the gang
    // class through failover): the timeline/memo loop must reproduce
    // the per-op rescan reference to the bit, on a mixed single-chip +
    // gang fleet, a two-bandwidth single-chip fleet and a gang-only
    // fleet.
    const HksParams &ark = benchmarkByName("ARK");
    const HksParams &bts = benchmarkByName("BTS1");
    ServeSpec mixed;
    mixed.classes.push_back(
        {"reduce4", HeWorkload::reduction(4), ark, Dataflow::OC, 1});
    mixed.classes.push_back(
        {"matvec2", HeWorkload::matVec(2), ark, Dataflow::OC, 1});
    mixed.classes.push_back(
        {"gang2", HeWorkload::reduction(2), bts, Dataflow::MP, 2});
    mixed.fleet.chip.bandwidthGBps = 8.0;
    mixed.fleet.chips = 3;
    mixed.fleet.keyCacheBytes = ark.evkBytes() * 4;
    mixed.batch.targetBatch = 2;
    // Gang classes need a homogeneous fleet: the two-bandwidth fleet
    // serves the single-chip classes alone.
    ServeSpec hetero = mixed;
    hetero.classes.pop_back();
    hetero.fleet.chipBandwidthGBps = {8.0, 4.0, 8.0};
    ServeSpec gangOnly = mixed;
    gangOnly.classes.erase(gangOnly.classes.begin(),
                           gangOnly.classes.begin() + 2);

    std::uint64_t memoOps = 0, rescanOps = 0, failovers = 0;
    for (const ServeSpec *sp : {&mixed, &hetero, &gangOnly}) {
        ExperimentRunner runner(2);
        ServingSim sim(*sp, runner);
        FaultServingSim fs(sim);
        const double cold = sim.classServiceSec(0, false);
        const std::uint32_t channels = sp->fleet.chip.channelCount();
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            ArrivalSpec as;
            as.horizonSec = 12.0 * cold;
            as.tenants.push_back({1.5 / cold, {1.0, 1.0, 1.0}});
            as.tenants.push_back({1.0 / cold, {1.0, 2.0, 1.0}});
            for (TenantSpec &ts : as.tenants)
                ts.classWeights.resize(sp->classes.size(), 1.0);
            const std::vector<JobArrival> arr = poissonArrivals(as, seed);

            std::mt19937_64 rng(seed);
            const auto pick = [&](std::uint64_t n) { return rng() % n; };
            const auto when = [&]() {
                return pick(2) == 0
                           ? 0.25 * cold * static_cast<double>(pick(48))
                           : std::uniform_real_distribution<double>(
                                 0.0, 12.0 * cold)(rng);
            };
            const double factors[] = {0.3, 0.7, 1.0, 1.6};
            fault::FaultTrace tr;
            for (int i = 0; i < 12; ++i)
                tr.events.push_back(stallAt(
                    when(), static_cast<std::uint32_t>(pick(3)),
                    factors[pick(4)],
                    0.25 * cold * static_cast<double>(1 + pick(8))));
            for (int i = 0; i < 2; ++i)
                tr.events.push_back(
                    {when(), fault::FaultKind::ChannelDegrade,
                     static_cast<std::uint32_t>(pick(3)),
                     static_cast<std::uint32_t>(pick(channels)),
                     factors[pick(4)], 0.0});
            for (std::uint32_t c = 1; c <= seed % 3; ++c)
                tr.events.push_back(
                    {(2.0 + 4.0 * c) * cold, fault::FaultKind::ChipFail,
                     c, 0, 1.0, 0.0});
            tr.normalize();

            RetryPolicy pol;
            pol.backoffSec = 0.25 * cold;
            pol.deadlineSec = 60.0 * cold;
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         std::to_string(sp->classes.size()) +
                         " classes");
            const auto split = expectMemoMatchesRescan(fs, arr, tr, pol);
            memoOps += split.first;
            rescanOps += split.second;

            FaultServeStats st;
            std::vector<JobResult> again;
            ASSERT_TRUE(fs.run(arr, tr, pol, again, st).ok());
            failovers += st.failovers;
        }
        EXPECT_GT(memoOps, 0u);
    }
    // Both pricing routes and the failover path were exercised.
    EXPECT_GT(rescanOps, 0u);
    EXPECT_GT(failovers, 0u);
}

TEST(FaultServe, TimelineMemoEdgeCasesMatchRescanReference)
{
    // Hand-placed edges around one single-op job on one chip: a stall
    // ending exactly at the op's start, a permanent degrade whose
    // memoized duration d meets the next edge exactly (x == d: the
    // memo must defer to the rescan) or just misses it (x > d: memo),
    // a degrade overlapped by stalls of factor 1 and > 1, and a
    // factor-1 degrade (state 0: clean, yet admission still sees it).
    ServeSpec sp = oneOpSpec(1);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    FaultServingSim fs(sim);
    const std::vector<JobArrival> atCold{{cold, 0, 0}};

    // Stall [cold / 2, cold): over when the job starts at cold.
    fault::FaultTrace endsAtStart;
    endsAtStart.events.push_back(stallAt(0.5 * cold, 0, 0.25, 0.5 * cold));
    std::vector<JobResult> out;
    auto split = expectMemoMatchesRescan(fs, atCold, endsAtStart,
                                         RetryPolicy{}, &out);
    EXPECT_EQ(out[0].finishSec, cold + cold);
    EXPECT_FALSE(out[0].degraded);
    EXPECT_EQ(split.first + split.second, 0u); // state 0, x = +inf

    // The degraded duration d of the job under a channel-0 degrade.
    fault::FaultTrace degrade;
    degrade.events.push_back(
        {0.0, fault::FaultKind::ChannelDegrade, 0, 0, 0.5, 0.0});
    const MemoryConfig missMem{sp.fleet.chip.dataMemBytes, false};
    const auto exp = runner.experiment(sp.classes[0].params,
                                       sp.classes[0].dataflow, missMem);
    const sim::CompiledSchedule cs =
        RpuEngine(sp.fleet.chip).compile(exp->graph());
    sim::ReplayRates rates;
    RpuEngine(sp.fleet.chip).rates(cs, rates);
    sim::ReplayScratch scratch;
    const double d = cs.replayPiecewise(
        rates, fault::buildChipEpochs(degrade, 0, cs.resourceCount()),
        nullptr, scratch);
    ASSERT_GT(d, cold);

    const std::vector<JobArrival> atZero1 = atZero(1);
    for (const double edge : {d, std::nextafter(d, kInf)}) {
        fault::FaultTrace tr = degrade;
        tr.events.push_back(stallAt(edge, 0, 0.25, cold));
        tr.normalize();
        ASSERT_EQ(fault::ChipFaultTimeline(tr, 1, cs.resourceCount())
                      .at(0, 0.0)
                      .x,
                  edge);
        split = expectMemoMatchesRescan(fs, atZero1, tr, RetryPolicy{},
                                        &out);
        EXPECT_EQ(out[0].finishSec, d);
        EXPECT_TRUE(out[0].degraded);
        // x == d falls back to the rescan; x > d takes the memo.
        EXPECT_EQ(split.first, edge == d ? 0u : 1u);
        EXPECT_EQ(split.second, edge == d ? 1u : 0u);
    }

    // Degrade plus overlapping stalls of factor 1 and 1.6 on chip 0.
    fault::FaultTrace both = degrade;
    both.events.push_back(stallAt(0.0, 0, 1.0, 4.0 * cold));
    both.events.push_back(stallAt(0.5 * cold, 0, 1.6, 2.0 * cold));
    both.normalize();
    split = expectMemoMatchesRescan(fs, atZero(3), both, RetryPolicy{});
    EXPECT_GT(split.first + split.second, 0u);

    // A factor-1 degrade folds to state 0: clean pricing, unflagged.
    fault::FaultTrace unit;
    unit.events.push_back(
        {0.0, fault::FaultKind::ChannelDegrade, 0, 0, 1.0, 0.0});
    split = expectMemoMatchesRescan(fs, atZero(2), unit, RetryPolicy{},
                                    &out);
    EXPECT_EQ(split.first + split.second, 0u);
    EXPECT_FALSE(out[0].degraded);
    EXPECT_EQ(out[0].finishSec, cold);
}

TEST(ChipEpochs, ChannelAndStallLandOnChipLocalResources)
{
    // Chip 0 of a 2-chip machine, 3 local resources (2 channels + 1
    // pipe): a channel degrade lands on its channel, a stall on every
    // local resource; other chips' events and ChipFail are ignored.
    fault::FaultTrace tr;
    tr.events.push_back(
        {2.0, fault::FaultKind::ChannelDegrade, 0, 1, 0.5, 0.0});
    tr.events.push_back(
        {5.0, fault::FaultKind::TransientStall, 0, 0, 0.25, 1.0});
    tr.events.push_back(
        {3.0, fault::FaultKind::ChannelDegrade, 1, 0, 0.5, 0.0});
    tr.events.push_back({4.0, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});
    tr.normalize();

    const sim::RateEpochs ep = fault::buildChipEpochs(tr, 0, 3);
    ASSERT_EQ(ep.off.size(), 4u);
    // Resource 0 (channel 0): stall in, stall out.
    ASSERT_EQ(ep.off[1] - ep.off[0], 2u);
    EXPECT_EQ(ep.at[ep.off[0]], 5.0);
    EXPECT_EQ(ep.mult[ep.off[0]], 0.25);
    EXPECT_EQ(ep.at[ep.off[0] + 1], 6.0);
    EXPECT_EQ(ep.mult[ep.off[0] + 1], 1.0);
    // Resource 1 (channel 1): degrade, then the stall compounds on it.
    ASSERT_EQ(ep.off[2] - ep.off[1], 3u);
    EXPECT_EQ(ep.at[ep.off[1]], 2.0);
    EXPECT_EQ(ep.mult[ep.off[1]], 0.5);
    EXPECT_EQ(ep.at[ep.off[1] + 1], 5.0);
    EXPECT_EQ(ep.mult[ep.off[1] + 1], 0.5 * 0.25);
    EXPECT_EQ(ep.at[ep.off[1] + 2], 6.0);
    EXPECT_EQ(ep.mult[ep.off[1] + 2], 0.5);
    // Resource 2 (pipe): the stall only.
    EXPECT_EQ(ep.off[3] - ep.off[2], 2u);

    // Shifting past the stall: it folds away, while the permanent
    // degrade folds into the state at time 0.
    const sim::RateEpochs shifted = fault::buildChipEpochs(tr, 0, 3, 10.0);
    ASSERT_EQ(shifted.off.size(), 4u);
    EXPECT_EQ(shifted.off[1] - shifted.off[0], 0u);
    ASSERT_EQ(shifted.off[2] - shifted.off[1], 1u);
    EXPECT_EQ(shifted.at[shifted.off[1]], 0.0);
    EXPECT_EQ(shifted.mult[shifted.off[1]], 0.5);
    EXPECT_EQ(shifted.off[3] - shifted.off[2], 0u);

    // A stall-only trace fully expires: the table is empty, so
    // callers can use "empty table" as "unaffected from here on".
    fault::FaultTrace stallOnly;
    stallOnly.events.push_back(
        {5.0, fault::FaultKind::TransientStall, 0, 0, 0.25, 1.0});
    EXPECT_TRUE(fault::buildChipEpochs(stallOnly, 0, 3, 10.0).empty());

    // A horizon drops boundaries at or past it.
    const sim::RateEpochs bounded =
        fault::buildChipEpochs(tr, 0, 3, 0.0, 4.0);
    ASSERT_EQ(bounded.off.size(), 4u);
    EXPECT_EQ(bounded.off[1] - bounded.off[0], 0u);
    EXPECT_EQ(bounded.off[2] - bounded.off[1], 1u);
    EXPECT_EQ(bounded.at[bounded.off[1]], 2.0);
    EXPECT_EQ(bounded.off[3] - bounded.off[2], 0u);
}

TEST(ChipEpochs, HorizonBoundedTableReplaysBitIdentically)
{
    // A replay that finishes before the horizon never reaches the
    // dropped boundaries: bounded and unbounded tables give the same
    // makespan to the bit.
    const HksParams &par = benchmarkByName("ARK");
    RpuConfig chip;
    chip.bandwidthGBps = 4.0;
    ExperimentRunner runner(2);
    const auto exp = runner.experiment(par, Dataflow::OC,
                                       MemoryConfig{chip.dataMemBytes,
                                                    false});
    const sim::CompiledSchedule cs = RpuEngine(chip).compile(exp->graph());
    sim::ReplayRates rates;
    RpuEngine(chip).rates(cs, rates);
    sim::ReplayScratch scratch;
    const double healthy = cs.replay(rates, scratch);

    fault::FaultTrace tr;
    tr.events.push_back({0.3 * healthy, fault::FaultKind::ChannelDegrade,
                         0, 0, 0.5, 0.0});
    tr.events.push_back({1000.0 * healthy,
                         fault::FaultKind::ChannelDegrade, 0, 0, 0.5,
                         0.0});
    tr.normalize();

    const sim::RateEpochs full =
        fault::buildChipEpochs(tr, 0, cs.resourceCount());
    const sim::RateEpochs bounded = fault::buildChipEpochs(
        tr, 0, cs.resourceCount(), 0.0, 10.0 * healthy);
    EXPECT_LT(bounded.at.size(), full.at.size());
    const double mFull = cs.replayPiecewise(rates, full, nullptr, scratch);
    const double mBounded =
        cs.replayPiecewise(rates, bounded, nullptr, scratch);
    EXPECT_EQ(mFull, mBounded);
    EXPECT_GT(mFull, healthy);
}

TEST(ChromeTrace, CutSegmentClampsStraddlingOps)
{
    // An op straddling the segment cut renders only up to the cut; an
    // op starting past the cut is dropped.
    obs::ScenarioTrace t;
    t.resourceNames = {"r0"};
    obs::TraceSegment seg;
    seg.cutSec = 0.5;
    obs::TraceOp a;
    a.ready = a.start = 0.25;
    a.finish = a.visible = 1.0;
    obs::TraceOp b;
    b.ready = b.start = 0.75;
    b.finish = b.visible = 0.9;
    seg.buf.ops = {a, b};
    seg.buf.makespan = 1.0;
    t.segments.push_back(std::move(seg));

    std::ostringstream os;
    obs::writeChromeTrace(os, t);
    const std::string s = os.str();
    // 0.25 s to the cut = 250000 us; the unclamped 0.75 s duration
    // (and op b, whose ts would also be 750000 us) must not appear.
    EXPECT_NE(s.find("250000.000000000"), std::string::npos);
    EXPECT_EQ(s.find("750000.000000000"), std::string::npos);
}

} // namespace
