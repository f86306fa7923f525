/**
 * @file
 * The replay kernel: the one copy of the scheduling recurrence every
 * compiled replay runs.
 *
 * For each task in id order, ready = max(dep finish); for each of its
 * ops, start = max(freeAt[res], ready), dur = max(sec, work0 / w0,
 * work1 / w1, bytes / bps[res]), the resource frees at fin = start +
 * dur, and dependents see the op at fin + postSeconds. replayWith
 * writes this once; two compile-time policies pick what differs
 * between the entry points, with no indirect call:
 *
 *  - Rates. FlatRates<Lane> serves at one replay point's rates. Lane is
 *    double for a scalar replay, or a kBatchLanes-wide vector for a
 *    replayMany() block whose buffers index [x * kBatchLanes + lane].
 *    EpochRates (double lanes) serves each resource at its current
 *    RateEpochs multiplier, re-times the unserved fraction of an op
 *    that crosses an epoch boundary, and skips tasks in a done mask.
 *  - Observer. NullObserver on the hot paths; FirstNonFinite for the
 *    overflow watchdog (stops at the first op whose visible time is not
 *    finite and names it); obs' trace-append observer records one
 *    TraceOp per op.
 *
 * Every instantiation performs the same IEEE divides, maxes and adds in
 * the same order, so the entry points agree bit for bit by
 * construction: a vector lane is a scalar replay at that lane's point,
 * and at multiplier 1.0 the epoch products are exact (x * 1.0 == x),
 * so a resource with no epochs serves exactly as FlatRates does.
 * Internal to the sim and obs layers; the public entry points are
 * CompiledSchedule's replay members and obs/traced_replay.h.
 */

#ifndef CIFLOW_SIM_REPLAY_KERNEL_H
#define CIFLOW_SIM_REPLAY_KERNEL_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "sim/compiled_schedule.h"

namespace ciflow::sim::kernel
{

/** Doubles per lane value: 1 for double, kBatchLanes for the vector. */
template <class L>
constexpr std::size_t kWidth = sizeof(L) / sizeof(double);

/**
 * Lane-strided access to the double buffers. A lane vector moves by
 * memcpy, which compiles to one unaligned vector move, so the buffers
 * need no more than double alignment; a scalar lane is a plain double.
 */
template <class L>
[[gnu::always_inline]] inline L
load(const double *p)
{
    L x;
    std::memcpy(&x, p, sizeof(L));
    return x;
}

template <class L>
[[gnu::always_inline]] inline void
store(double *p, L x)
{
    std::memcpy(p, &x, sizeof(L));
}

template <>
[[gnu::always_inline]] inline double
load<double>(const double *p)
{
    return *p;
}

template <>
[[gnu::always_inline]] inline void
store<double>(double *p, double x)
{
    *p = x;
}

/** `b` where it exceeds `a`, else `a`: the recurrence's only max. */
template <class L>
[[gnu::always_inline]] inline L
maxOf(L a, L b)
{
    return b > a ? b : a;
}

/** The buffers one replay fills, each strided by the lane width. */
struct State
{
    double *finish;    // per task
    double *freeAt;    // per resource
    double *busy;      // per resource
    std::size_t *jobs; // per resource, lane-invariant
};

/** Size `s` for one scalar replay of `v`; zero its accumulators. */
[[gnu::always_inline]] inline State
scalarState(const ScheduleView &v, ReplayScratch &s)
{
    // finish[t] is written before any read (deps point backward).
    if (s.finish.size() < v.taskCount)
        s.finish.resize(v.taskCount);
    s.freeAt.assign(v.resourceCount, 0.0);
    s.busy.assign(v.resourceCount, 0.0);
    s.jobs.assign(v.resourceCount, 0);
    return {s.finish.data(), s.freeAt.data(), s.busy.data(),
            s.jobs.data()};
}

/** One replay point's rates, the same on every lane of L. */
template <class L>
struct FlatRates
{
    using Lane = L;
    /** Byte rates, bps[r * kWidth<L> + lane]. */
    const double *bps;
    L w0, w1;
    /**
     * +0 on every lane. A member, not a literal, so the broadcast of
     * an op's seconds (sec - zero) folds after inlining into the
     * per-ISA clone; folded in this generic body, GCC builds the
     * vector lane by lane.
     */
    L zero{};
    /** Rate epochs entered at issue: flat rates never enter one. */
    static constexpr std::uint32_t issueEpoch = 0;

    static constexpr bool done(std::size_t) { return false; }

    /**
     * Op i's duration with every rate scaled by m: the max over the
     * components the op carries. A zero numerator is skipped, not
     * divided (0 / rate is +0 and never raises the max), and the
     * branch is per op, so it is uniform across lanes. At m == 1.0 each
     * divisor is exactly the rate.
     */
    [[gnu::always_inline]] L
    duration(const ScheduleView &v, std::uint32_t i, ResourceId res,
             double m) const
    {
        L dur = v.opSec[i] - zero;
        if (v.opWork0[i] != 0.0)
            dur = maxOf(dur, v.opWork0[i] / (w0 * m));
        if (v.opWork1[i] != 0.0)
            dur = maxOf(dur, v.opWork1[i] / (w1 * m));
        if (v.opBytes[i] != 0.0)
            dur = maxOf(dur, v.opBytes[i] /
                                 (load<L>(bps + res * kWidth<L>) * m));
        return dur;
    }

    /** Serve op i from `start`; returns its finish, accrues busy. */
    [[gnu::always_inline]] L
    serve(const ScheduleView &v, std::uint32_t i, ResourceId res, L start,
          double *busy) const
    {
        const L dur = duration(v, i, res, 1.0);
        store(busy, load<L>(busy) + dur);
        return start + dur;
    }
};

/** A scalar replay point's FlatRates. */
inline FlatRates<double>
pointRates(const ReplayRates &r)
{
    return {r.bytesPerSec.data(), r.workPerSec[0], r.workPerSec[1]};
}

/**
 * Piecewise rates for one replay point (see RateEpochs). Per-resource
 * cursors live in ReplayScratch::epoch; op starts on one resource never
 * decrease, so each cursor only moves forward and a replay walks every
 * resource's epoch list once. The fixed seconds component is wall
 * clock (issue overhead, link propagation), not service on the
 * degraded resource, so it is never scaled.
 */
struct EpochRates : FlatRates<double>
{
    const RateEpochs &ep;
    const std::uint8_t *doneMask;
    std::uint32_t *cursor = nullptr;
    /** Epochs the last served op's resource had entered at issue. */
    std::uint32_t issueEpoch = 0;

    EpochRates(const ReplayRates &r, const RateEpochs &e,
               const std::uint8_t *done, ReplayScratch &s)
        : FlatRates<double>(pointRates(r)), ep(e), doneMask(done)
    {
        if (!ep.off.empty())
            s.epoch.assign(ep.off.begin(), ep.off.end() - 1);
        cursor = s.epoch.data();
    }

    /**
     * Tasks already complete before this replay began finish at 0 and
     * occupy no resource: the failover path charges only survivors.
     */
    bool
    done(std::size_t t) const
    {
        return doneMask != nullptr && doneMask[t] != 0;
    }

    [[gnu::always_inline]] double
    serve(const ScheduleView &v, std::uint32_t i, ResourceId res,
          double start, double *busy)
    {
        issueEpoch = 0;
        if (ep.off.empty() || ep.off[res] == ep.off[res + 1])
            return FlatRates<double>::serve(v, i, res, start, busy);
        const double inf = std::numeric_limits<double>::infinity();
        const std::uint32_t lo = ep.off[res];
        const std::uint32_t hi = ep.off[res + 1];
        std::uint32_t c = cursor[res];
        while (c < hi && ep.at[c] <= start)
            ++c;
        issueEpoch = c - lo;
        double dur = duration(v, i, res, c > lo ? ep.mult[c - 1] : 1.0);
        double nextAt = c < hi ? ep.at[c] : inf;
        double fin = start + dur;
        double served = dur;
        if (fin > nextAt) {
            // Fractional progress: the share of service not yet done
            // when the rate changes is re-timed at the new rate.
            double tcur = start;
            double frac = 1.0;
            while (true) {
                const double rem = frac * dur;
                if (c >= hi || tcur + rem <= nextAt) {
                    fin = tcur + rem;
                    break;
                }
                // Rounding can push the remaining share a hair below
                // zero; clamp so finish never precedes the boundary.
                frac = std::max(frac - (nextAt - tcur) / dur, 0.0);
                tcur = nextAt;
                dur = duration(v, i, res, ep.mult[c]);
                ++c;
                nextAt = c < hi ? ep.at[c] : inf;
            }
            served = fin - start;
        }
        *busy += served;
        cursor[res] = c;
        return fin;
    }
};

/** Observes nothing; compiles away. */
struct NullObserver
{
    template <class L>
    [[gnu::always_inline]] static constexpr bool
    onOp(std::size_t, std::uint32_t, ResourceId, std::uint32_t, L, L, L,
         L)
    {
        return true;
    }
};

/** Stops the replay at the first op whose visible time is not finite. */
struct FirstNonFinite
{
    bool found = false;
    std::size_t task = 0;
    std::uint32_t op = 0;
    ResourceId resource = 0;

    bool
    onOp(std::size_t t, std::uint32_t i, ResourceId res, std::uint32_t,
         double, double, double, double vis)
    {
        if (std::isfinite(vis))
            return true;
        found = true;
        task = t;
        op = i;
        resource = res;
        return false;
    }
};

/**
 * The recurrence. Returns the makespan: the latest task finish, which
 * bounds every op's finish and so every resource's freeAt. An observer
 * returning false from onOp ends the replay at that op.
 */
template <class Rates, class Observer>
[[gnu::always_inline]] inline typename Rates::Lane
replayWith(const ScheduleView &v, Rates &rates, Observer &obs,
           const State &s)
{
    using L = typename Rates::Lane;
    constexpr std::size_t W = kWidth<L>;
    L makespan{};
    for (std::size_t t = 0; t < v.taskCount; ++t) {
        if (rates.done(t)) {
            store(s.finish + t * W, L{});
            continue;
        }
        L ready{};
        for (std::uint32_t d = v.depOff[t]; d < v.depOff[t + 1]; ++d)
            ready = maxOf(ready, load<L>(s.finish + v.depIds[d] * W));
        L taskFin{};
        for (std::uint32_t i = v.opOff[t]; i < v.opOff[t + 1]; ++i) {
            const ResourceId res = v.opRes[i];
            double *freeAt = s.freeAt + res * W;
            const L start = maxOf(ready, load<L>(freeAt));
            const L fin = rates.serve(v, i, res, start, s.busy + res * W);
            store(freeAt, fin);
            ++s.jobs[res];
            // With postSeconds == 0 the visible time is fin itself.
            const L vis = fin + v.opPost[i];
            if (!obs.onOp(t, i, res, rates.issueEpoch, ready, start, fin,
                          vis))
                return makespan;
            taskFin = maxOf(taskFin, vis);
        }
        store(s.finish + t * W, taskFin);
        makespan = maxOf(makespan, taskFin);
    }
    return makespan;
}

} // namespace ciflow::sim::kernel

#endif // CIFLOW_SIM_REPLAY_KERNEL_H
