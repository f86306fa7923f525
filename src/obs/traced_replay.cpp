#include "obs/traced_replay.h"

#include <cmath>
#include <string>

#include "common/logging.h"
#include "sim/replay_kernel.h"

namespace ciflow::obs
{

namespace
{

/**
 * Name the first non-finite record for the overflow watchdog — the
 * traced twin of CompiledSchedule's nonFiniteOpReport, answered from
 * the buffer itself instead of a rescan (the offending op is already
 * recorded).
 */
std::string
nonFiniteReport(const sim::CompiledSchedule &cs, const TraceBuffer &buf)
{
    for (const TraceOp &r : buf.ops)
        if (!std::isfinite(r.visible))
            return "op " + std::to_string(r.op) + " of task " +
                   std::to_string(r.task) + " (resource " +
                   cs.resourceName(r.resource) + ")";
    return "no offending op found in trace";
}

/** The trace-append observer: one TraceOp per executed op. */
struct TraceAppend
{
    TraceBuffer &buf;
    const double *bytes;

    bool
    onOp(std::size_t t, std::uint32_t i, sim::ResourceId res,
         std::uint32_t epoch, double ready, double start, double fin,
         double vis)
    {
        buf.ops.push_back({static_cast<sim::TaskId>(t), i, res, epoch,
                           ready, start, fin, vis, bytes[i]});
        return true;
    }
};

/** The kernel under `rates` with the trace-append observer. */
template <class Rates>
double
traced(const sim::CompiledSchedule &cs, Rates &rates,
       sim::ReplayScratch &s, TraceBuffer &buf, const char *what)
{
    const sim::ScheduleView v = cs.view();
    buf.reset(v.opCount);
    TraceAppend obs{buf, v.opBytes};
    buf.makespan = sim::kernel::replayWith(v, rates, obs,
                                           sim::kernel::scalarState(v, s));
    if (!std::isfinite(buf.makespan))
        panic(std::string(what) + " produced a non-finite makespan: " +
              nonFiniteReport(cs, buf));
    return buf.makespan;
}

} // namespace

double
replayTraced(const sim::CompiledSchedule &cs,
             const sim::ReplayRates &rates, sim::ReplayScratch &s,
             TraceBuffer &buf)
{
    if (sim::Error e = cs.checkReplay(rates))
        panic(e.message());
    sim::kernel::FlatRates<double> r = sim::kernel::pointRates(rates);
    return traced(cs, r, s, buf, "traced replay");
}

double
replayPiecewiseTraced(const sim::CompiledSchedule &cs,
                      const sim::ReplayRates &rates,
                      const sim::RateEpochs &ep,
                      const std::uint8_t *done, sim::ReplayScratch &s,
                      TraceBuffer &buf)
{
    // Mirror replayPiecewise's zero-fault delegation so the trivial
    // case inherits bit-identity (and trace shape) from replayTraced.
    if (ep.empty() && done == nullptr)
        return replayTraced(cs, rates, s, buf);

    if (sim::Error e = cs.checkReplay(rates))
        panic(e.message());
    if (sim::Error e = cs.checkEpochs(ep))
        panic(e.message());
    sim::kernel::EpochRates r(rates, ep, done, s);
    return traced(cs, r, s, buf, "traced piecewise replay");
}

} // namespace ciflow::obs
