#include "sim/compiled_schedule.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/replay_kernel.h"

namespace ciflow::sim
{

ResourceId
CompiledSchedule::addResource(std::string name)
{
    names.push_back(std::move(name));
    return static_cast<ResourceId>(names.size() - 1);
}

const std::string &
CompiledSchedule::resourceName(ResourceId id) const
{
    panicIf(id >= names.size(), "unknown resource id");
    return names[id];
}

void
CompiledSchedule::reserve(std::size_t tasks, std::size_t deps,
                          std::size_t ops)
{
    depOff.reserve(tasks + 1);
    depIds.reserve(deps);
    opOff.reserve(tasks + 1);
    opRes.reserve(ops);
    opBytes.reserve(ops);
    opWork0.reserve(ops);
    opWork1.reserve(ops);
    opSec.reserve(ops);
    opPost.reserve(ops);
}

TaskId
CompiledSchedule::addTask(const TaskId *deps, std::size_t ndeps,
                          const CompiledOp *ops_in, std::size_t nops)
{
    const TaskId id = static_cast<TaskId>(taskCount());
    panicIf(nops == 0, "task with no ops");
    // Compile-time half of the replay watchdog: a cost numerator that
    // is negative or non-finite can only ever produce a garbage
    // duration, so reject it here where the lowering bug is, not at
    // the millionth replay where the NaN surfaces.
    const auto sane = [](double x) {
        return std::isfinite(x) && x >= 0.0;
    };
    for (std::size_t i = 0; i < nops; ++i) {
        panicIf(ops_in[i].resource >= names.size(),
                "op on unknown resource");
        const CompiledOp &op = ops_in[i];
        panicIf(!(sane(op.bytes) && sane(op.work[0]) &&
                  sane(op.work[1]) && sane(op.seconds) &&
                  sane(op.postSeconds)),
                "op with a negative or non-finite cost numerator");
    }
    for (std::size_t i = 0; i < ndeps; ++i)
        panicIf(deps[i] >= id, "forward dependency in sim task");
    return addTaskTrusted(deps, ndeps, ops_in, nops);
}

TaskId
CompiledSchedule::addTask(const std::vector<TaskId> &deps,
                          const std::vector<CompiledOp> &ops_in)
{
    return addTask(deps.data(), deps.size(), ops_in.data(),
                   ops_in.size());
}

BindingView
CompiledSchedule::patchBegin(std::size_t resources)
{
    panicIf(resources == 0, "patch to zero resources");
    names.resize(resources);
    return BindingView{opRes.data(), opRes.size()};
}

void
CompiledSchedule::patchResourceName(ResourceId id, const char *name)
{
    panicIf(id >= names.size(), "patch name for unknown resource id");
    names[id] = name;
}

void
CompiledSchedule::patchCommit(std::uint64_t newBaseTag)
{
    // A single vectorizable max-scan instead of a per-op check keeps
    // commit cost negligible next to the rebind itself.
    ResourceId hi = 0;
    for (std::size_t i = 0; i < opRes.size(); ++i)
        hi = opRes[i] > hi ? opRes[i] : hi;
    panicIf(!opRes.empty() && hi >= names.size(),
            "patched op targets an unknown resource");
    tag = newBaseTag;
    ++rev;
}

void
CompiledSchedule::clearTasks()
{
    depOff.clear();
    depOff.push_back(0);
    depIds.clear();
    opOff.clear();
    opOff.push_back(0);
    opRes.clear();
    opBytes.clear();
    opWork0.clear();
    opWork1.clear();
    opSec.clear();
    opPost.clear();
}

Error
CompiledSchedule::checkReplay(const ReplayRates &rates) const
{
    if (rates.bytesPerSec.size() != names.size())
        return {ErrorCode::RateMismatch,
                "replay rates cover a different resource count: rates "
                "have " +
                    std::to_string(rates.bytesPerSec.size()) +
                    " resources, schedule (layout tag " +
                    std::to_string(layoutTag()) + ") has " +
                    std::to_string(names.size())};
    // Run-time half of the replay watchdog. With every rate positive,
    // no divide in the replay recurrence can produce NaN (numerators
    // are validated non-negative at addTask, and the zero-numerator
    // skip means 0/0 never happens); the only degenerate outcome left
    // is overflow to +inf, which propagates to the makespan and is
    // caught by the post-replay finite check. A rate of +inf is
    // deliberately legal — it models a free resource (every payload
    // divides to exactly 0 seconds), which the degenerate-interconnect
    // tests rely on. NaN fails `> 0.0` like any other comparison.
    for (std::size_t k = 0; k < kWorkClasses; ++k) {
        const double w = rates.workPerSec[k];
        if (!(w > 0.0))
            return {ErrorCode::NonFiniteRate,
                    "work class " + std::to_string(k) + " rate is " +
                        std::to_string(w) +
                        "; rates must be positive (NaN, zero and "
                        "negative are rejected)"};
    }
    for (std::size_t r = 0; r < names.size(); ++r) {
        const double b = rates.bytesPerSec[r];
        if (!(b > 0.0))
            return {ErrorCode::NonFiniteRate,
                    "resource " + names[r] + " byte rate is " +
                        std::to_string(b) +
                        "; rates must be positive (NaN, zero and "
                        "negative are rejected)"};
    }
    return {};
}

Error
CompiledSchedule::checkEpochs(const RateEpochs &ep) const
{
    if (ep.off.empty()) {
        if (!ep.at.empty() || !ep.mult.empty())
            return {ErrorCode::BadFaultTrace,
                    "rate epochs carry times/multipliers but no "
                    "per-resource offset table"};
        return {};
    }
    if (ep.off.size() != names.size() + 1)
        return {ErrorCode::BadFaultTrace,
                "rate-epoch offsets cover " +
                    std::to_string(ep.off.size() - 1) +
                    " resources, schedule has " +
                    std::to_string(names.size())};
    if (ep.off.front() != 0 || ep.off.back() != ep.at.size() ||
        ep.at.size() != ep.mult.size())
        return {ErrorCode::BadFaultTrace,
                "rate-epoch offsets do not span the epoch arrays"};
    // Every offset is validated before any element is read: with the
    // ends pinned to 0 and at.size(), monotone offsets stay in bounds.
    for (std::size_t r = 0; r < names.size(); ++r)
        if (ep.off[r] > ep.off[r + 1])
            return {ErrorCode::BadFaultTrace,
                    "rate-epoch offsets are not monotone at resource " +
                        names[r]};
    for (std::size_t r = 0; r < names.size(); ++r) {
        for (std::uint32_t j = ep.off[r]; j < ep.off[r + 1]; ++j) {
            if (!(std::isfinite(ep.at[j]) && ep.at[j] >= 0.0))
                return {ErrorCode::BadFaultTrace,
                        "resource " + names[r] + " epoch at t=" +
                            std::to_string(ep.at[j]) +
                            " is not finite and non-negative"};
            if (j > ep.off[r] && ep.at[j] <= ep.at[j - 1])
                return {ErrorCode::BadFaultTrace,
                        "resource " + names[r] +
                            " epoch times are not strictly increasing"};
            if (!(std::isfinite(ep.mult[j]) && ep.mult[j] > 0.0))
                return {ErrorCode::BadFaultTrace,
                        "resource " + names[r] + " epoch multiplier " +
                            std::to_string(ep.mult[j]) +
                            " is not finite and positive"};
        }
    }
    return {};
}

void
CompiledSchedule::checkRates(const ReplayRates &rates) const
{
    if (Error e = checkReplay(rates))
        panic(e.message());
}

std::string
CompiledSchedule::nonFiniteOpReport(const ReplayRates &rates,
                                    const RateEpochs &ep,
                                    const std::uint8_t *done) const
{
    // Cold path, at most once per failed replay: re-run the recurrence
    // under the rates that overflowed, into throwaway buffers, and name
    // the first op whose visible time left the finite range. An empty
    // epoch table serves every op at m == 1.0, exactly as flat rates.
    ReplayScratch tmp;
    kernel::EpochRates r(rates, ep, done, tmp);
    kernel::FirstNonFinite obs;
    kernel::replayWith(view(), r, obs, kernel::scalarState(view(), tmp));
    if (!obs.found)
        return "no offending op found on rescan";
    return "op " + std::to_string(obs.op) + " of task " +
           std::to_string(obs.task) + " (resource " + names[obs.resource] +
           ")";
}

double
CompiledSchedule::replay(const ReplayRates &rates,
                         ReplayScratch &s) const
{
    double makespan = 0.0;
    if (Error e = tryReplay(rates, s, makespan))
        panic(e.message());
    return makespan;
}

Error
CompiledSchedule::tryReplay(const ReplayRates &rates, ReplayScratch &s,
                            double &out) const
{
    if (Error e = checkReplay(rates))
        return e;
    kernel::FlatRates<double> r = kernel::pointRates(rates);
    kernel::NullObserver obs;
    const double makespan =
        kernel::replayWith(view(), r, obs, kernel::scalarState(view(), s));
    // With rates validated finite-positive and numerators validated at
    // addTask, the only way here is overflow to +inf — still garbage,
    // still reported deterministically.
    if (!std::isfinite(makespan))
        return {ErrorCode::NonFiniteDuration,
                "replay produced a non-finite makespan: " +
                    nonFiniteOpReport(rates, {}, nullptr)};
    out = makespan;
    return {};
}

double
CompiledSchedule::replayPiecewise(const ReplayRates &rates,
                                  const RateEpochs &ep,
                                  const std::uint8_t *done,
                                  ReplayScratch &s) const
{
    // The zero-fault path must be *the* replay, not a twin of it: with
    // no epochs and no done mask there is nothing piecewise to do, so
    // delegate and inherit bit-identity by construction.
    if (ep.empty() && done == nullptr)
        return replay(rates, s);

    checkRates(rates);
    if (Error e = checkEpochs(ep))
        panic(e.message());
    kernel::EpochRates r(rates, ep, done, s);
    kernel::NullObserver obs;
    const double makespan =
        kernel::replayWith(view(), r, obs, kernel::scalarState(view(), s));
    if (!std::isfinite(makespan))
        panic("piecewise replay produced a non-finite makespan: " +
              nonFiniteOpReport(rates, ep, done));
    return makespan;
}

namespace
{

// LaneVec values cross always_inline kernel helpers by value, which GCC
// flags (-Wpsabi) as an ABI hazard for ISAs without 512-bit registers;
// every such call is inlined into this TU, so none crosses an ABI
// boundary (the library builds with -Wno-psabi — the warning is emitted
// at clone expansion, outside any diagnostic-pragma region).

/**
 * One batch block as an explicit vector value, kBatchLanes doubles
 * wide (the kernel moves it to and from the scratch buffers with
 * memcpy, so their element alignment suffices). GCC/Clang lower it to
 * the widest unit the target has and split otherwise, so the lane math
 * is guaranteed SIMD — no cost-model coin flip — while every element
 * still sees the exact IEEE divide/max/add of a scalar replay.
 */
typedef double LaneVec
    __attribute__((vector_size(kBatchLanes * sizeof(double))));

/**
 * The kernel over one block, with per-ISA clones: the resolver picks
 * the widest vector unit the host has (AVX-512, AVX2, or baseline SSE2)
 * at load time. Every clone runs the identical IEEE operations — ISA
 * width changes how many lanes one instruction covers, never a result
 * bit.
 */
#if defined(__x86_64__)
[[gnu::target_clones("default", "avx2", "arch=x86-64-v4")]]
#endif
void
replayBlockLanes(const ScheduleView &v, BatchScratch &s, double *makespans)
{
    kernel::FlatRates<LaneVec> r{s.bps.data(),
                                 kernel::load<LaneVec>(s.w0.data()),
                                 kernel::load<LaneVec>(s.w1.data())};
    kernel::NullObserver obs;
    kernel::store(makespans,
                  kernel::replayWith(v, r, obs,
                                     {s.finish.data(), s.freeAt.data(),
                                      s.busy.data(), s.jobs.data()}));
}

} // namespace

void
CompiledSchedule::replayMany(const ReplayRates *points, std::size_t n,
                             BatchScratch &s) const
{
    const std::size_t nr = names.size();
    if (s.makespan.size() < n)
        s.makespan.resize(n);
    if (s.finish.size() < taskCount() * kBatchLanes)
        s.finish.resize(taskCount() * kBatchLanes);
    s.bps.resize(nr * kBatchLanes);
    s.w0.resize(kBatchLanes);
    s.w1.resize(kBatchLanes);
    for (std::size_t base = 0; base < n; base += kBatchLanes) {
        const ReplayRates *block = points + base;
        const std::size_t lanes = std::min(n - base, kBatchLanes);
        for (std::size_t l = 0; l < lanes; ++l)
            checkRates(block[l]);
        // Transpose the block's rates into lane-contiguous layout. A
        // tail block's spare lanes replay copies of its first point, so
        // every block runs the full-width body.
        for (std::size_t l = 0; l < kBatchLanes; ++l) {
            const ReplayRates &p = block[l < lanes ? l : 0];
            for (std::size_t r = 0; r < nr; ++r)
                s.bps[r * kBatchLanes + l] = p.bytesPerSec[r];
            s.w0[l] = p.workPerSec[0];
            s.w1[l] = p.workPerSec[1];
        }
        s.freeAt.assign(nr * kBatchLanes, 0.0);
        s.busy.assign(nr * kBatchLanes, 0.0);
        s.jobs.assign(nr, 0);
        double full[kBatchLanes];
        replayBlockLanes(view(), s, full);
        std::copy_n(full, lanes, s.makespan.data() + base);
    }
    // Watchdog: lanes are bit-identical to scalar replays, so a
    // non-finite lane is the same overflow replay() would panic on —
    // report it with the same rescan.
    for (std::size_t i = 0; i < n; ++i)
        if (!std::isfinite(s.makespan[i]))
            panic("replay produced a non-finite makespan at point " +
                  std::to_string(i) + ": " +
                  nonFiniteOpReport(points[i], {}, nullptr));
}

SimResult
CompiledSchedule::run(const ReplayRates &rates) const
{
    ReplayScratch s;
    SimResult out;
    out.makespan = replay(rates, s);
    s.finish.resize(taskCount());
    out.taskFinish = std::move(s.finish);
    out.resources.reserve(names.size());
    for (std::size_t r = 0; r < names.size(); ++r)
        out.resources.push_back({names[r], s.busy[r], s.jobs[r]});
    return out;
}

} // namespace ciflow::sim
