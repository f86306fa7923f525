/**
 * @file
 * Golden-traffic regression test: DRAM trafficBytes of every Table II
 * configuration (32 MiB on-chip data memory, evks streamed) is pinned
 * to the byte. Traffic depends only on the builders — not on
 * bandwidth, MODOPS or the engine's resource layout — so any change
 * here means a dataflow schedule changed and the paper comparison
 * tables (Table II MB values, Figure 4..9 runtimes) move with it.
 *
 * If a deliberate builder change shifts these values, re-derive the
 * constants with the snippet in the test body and re-verify
 * bench/table2_traffic against the paper's reference column.
 */

#include <gtest/gtest.h>

#include "rpu/runner.h"

using namespace ciflow;

namespace
{

struct Golden
{
    const char *benchmark;
    Dataflow dataflow;
    std::uint64_t trafficBytes;
};

/** Pinned on the Table II memory config: 32 MiB data, evk streamed. */
constexpr Golden kGolden[] = {
    {"BTS1", Dataflow::MP, 660602880ull},
    {"BTS1", Dataflow::DC, 660602880ull},
    {"BTS1", Dataflow::OC, 452984832ull},
    {"BTS2", Dataflow::MP, 1788870656ull},
    {"BTS2", Dataflow::DC, 1428160512ull},
    {"BTS2", Dataflow::OC, 889192448ull},
    {"BTS3", Dataflow::MP, 2512388096ull},
    {"BTS3", Dataflow::DC, 2090860544ull},
    {"BTS3", Dataflow::OC, 1025507328ull},
    {"ARK", Dataflow::MP, 585105408ull},
    {"ARK", Dataflow::DC, 321912832ull},
    {"ARK", Dataflow::OC, 171442176ull},
    {"DPRIVE", Dataflow::MP, 544210944ull},
    {"DPRIVE", Dataflow::DC, 301989888ull},
    {"DPRIVE", Dataflow::OC, 220200960ull},
};

} // namespace

TEST(GoldenTraffic, Table2ConfigsPinnedToTheByte)
{
    MemoryConfig mem{32ull << 20, false};
    ExperimentRunner runner;
    for (const Golden &g : kGolden) {
        auto exp =
            runner.experiment(benchmarkByName(g.benchmark), g.dataflow, mem);
        EXPECT_EQ(exp->graph().trafficBytes(), g.trafficBytes)
            << g.benchmark << "/" << dataflowName(g.dataflow);
    }
}

TEST(GoldenTraffic, TrafficIndependentOfEngineConfiguration)
{
    // The engine layer must never change traffic: it reports the
    // graph's bytes whatever the channel count or pipe split.
    MemoryConfig mem{32ull << 20, false};
    HksExperiment exp(benchmarkByName("ARK"), Dataflow::OC, mem);
    RpuConfig wide;
    wide.memChannels = 8;
    wide.splitComputePipes = true;
    wide.channelPolicy = ChannelPolicy::EvkDedicated;
    EXPECT_EQ(exp.simulate(64.0).trafficBytes,
              exp.simulate(wide).trafficBytes);
}

TEST(GoldenTraffic, OcTrafficAlwaysLowest)
{
    // Table II's qualitative claim, pinned structurally: OC moves the
    // least data on every benchmark.
    MemoryConfig mem{32ull << 20, false};
    for (const auto &b : paperBenchmarks()) {
        std::uint64_t mp =
            HksExperiment(b, Dataflow::MP, mem).graph().trafficBytes();
        std::uint64_t dc =
            HksExperiment(b, Dataflow::DC, mem).graph().trafficBytes();
        std::uint64_t oc =
            HksExperiment(b, Dataflow::OC, mem).graph().trafficBytes();
        EXPECT_LT(oc, mp) << b.name;
        EXPECT_LE(oc, dc) << b.name;
        EXPECT_LE(dc, mp) << b.name;
    }
}

namespace
{

/** 64-bit FNV-1a, fed one integer field at a time (little-endian). */
struct Fnv1a
{
    std::uint64_t h = 14695981039346656037ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
};

} // namespace

TEST(GoldenTraffic, GraphStructurePinnedAcrossMemoryConfigs)
{
    // Traffic totals alone would not notice a reordered spill sequence
    // that moves the same bytes. This digest covers every field of
    // every task (dependencies included) of 240 graphs: the Table III
    // benchmarks x MP/DC/OC x evk on-chip/streamed x evk compressed or
    // not x four data-memory capacities. A deliberate schedule change
    // re-derives the constant from the printed value.
    Fnv1a fnv;
    std::size_t graphs = 0;
    for (const HksParams &par : paperBenchmarks()) {
        for (Dataflow d : allDataflows()) {
            for (bool on_chip : {true, false}) {
                for (bool compressed : {false, true}) {
                    for (std::uint64_t mib : {32, 48, 64, 128}) {
                        MemoryConfig mem{mib << 20, on_chip, compressed};
                        TaskGraph g = buildHksGraph(par, d, mem);
                        fnv.add(g.size());
                        for (const Task &t : g.tasks()) {
                            fnv.add(t.id);
                            fnv.add(static_cast<std::uint64_t>(t.kind));
                            fnv.add(static_cast<std::uint64_t>(t.stage));
                            fnv.add(t.bytes);
                            fnv.add(t.modOps);
                            fnv.add(t.shuffleOps);
                            fnv.add(t.isEvk);
                            fnv.add(t.deps.size());
                            for (std::uint32_t dep : t.deps)
                                fnv.add(dep);
                        }
                        ++graphs;
                    }
                }
            }
        }
    }
    EXPECT_EQ(graphs, 240u);
    EXPECT_EQ(fnv.h, 0x5eeafabdfb055986ull) << std::hex << "0x" << fnv.h;
}
