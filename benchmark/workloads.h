/**
 * @file
 * The benchmark's four workloads behind one interface.
 *
 * A workload is built by setup() (timed as setup_s), then driven by the
 * harness in a closed loop: run() is one timed iteration of public
 * ciflow calls, verify() afterwards (untimed) checks the iteration's
 * outputs and reduces them to a digest plus exact per-iteration counts.
 * With a non-null Tracer, run() records spans around its calls into
 * each layer and may drive a layer's parts separately (see dse_sweep),
 * provided its outputs, and so its digest, stay identical.
 */

#ifndef CIFLOW_BENCHMARK_WORKLOADS_H
#define CIFLOW_BENCHMARK_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace bench
{

/**
 * Exact per-iteration counts and simulated metrics, keyed by metric
 * name. Every value is a pure function of (workload, seed): equal
 * across iterations, runs and thread counts.
 */
using Counts = std::map<std::string, double>;

/** Correctness ledger: checked public calls and how many failed. */
struct Checks
{
    std::size_t calls = 0;
    std::size_t failed = 0;
    std::vector<std::string> messages;

    /** Count one checked call; record `what` when it failed. */
    bool
    expect(bool ok, const std::string &what)
    {
        ++calls;
        if (!ok) {
            ++failed;
            if (messages.size() < 32)
                messages.push_back(what);
        }
        return ok;
    }
};

/** What verify() reduces one iteration to. */
struct IterOut
{
    /** FNV-1a over the exact bit patterns of the outputs. */
    std::uint64_t digest = 0;
    Counts counts;
};

/** Inputs a workload is built from. */
struct Env
{
    std::uint64_t seed = 1;
    /** ExperimentRunner pool width (never more than nproc). */
    std::size_t threads = 1;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build everything the timed loop needs; set-up checks go to chk. */
    virtual void setup(const Env &env, Tracer *tr, Checks &chk) = 0;

    /** One timed iteration; spans recorded when tr is non-null. */
    virtual void run(Tracer *tr) = 0;

    /** Check the last iteration's outputs and reduce them (untimed). */
    virtual IterOut verify(Checks &chk) = 0;

    /** True when the workload's results pass through a thread pool. */
    virtual bool threaded() const = 0;
};

/** The workload called `name`, or null when there is none. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** num / den, or 0 when den is not positive (metric n/a). */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** FNV-1a 64 accumulator over exact bit patterns. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(double v) { bytes(&v, sizeof v); }
    void add(std::uint64_t v) { bytes(&v, sizeof v); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace bench

#endif // CIFLOW_BENCHMARK_WORKLOADS_H
