/**
 * @file
 * Tests for the shared benchmark JSON writer (bench/bench_util.h):
 * well-formed output on the happy path, and the non-finite-double
 * guard — a NaN or Inf metric must kill the emitting harness with the
 * offending key named, never surface as invalid JSON for the CI jq
 * gates to choke on. Also the timing-spread helpers the harnesses'
 * ratio gates read: median/min/IQR, alternating passes, and the
 * _min/_iqr field triple.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"

using ciflow::benchutil::JsonWriter;

namespace
{

TEST(JsonWriter, EmitsWellFormedDocument)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.field("name", "serving");
    w.field("qps", 1234.5);
    w.field("ok", true);
    w.field("jobs", std::uint64_t{42});
    w.beginArray("rows");
    w.beginObject();
    w.field("p50_ms", 1.25);
    w.endObject();
    w.endArray();
    ciflow::obs::MetricsRegistry m;
    m.count("serve.jobs", 42);
    m.gauge("serve.qps", 1234.5);
    w.metrics("metrics", m);
    w.finish();

    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"name\": \"serving\""), std::string::npos);
    EXPECT_NE(doc.find("\"qps\": 1234.5"), std::string::npos);
    EXPECT_NE(doc.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(doc.find("\"p50_ms\": 1.25"), std::string::npos);
    EXPECT_NE(doc.find("\"serve.jobs\""), std::string::npos);
    // Balanced braces/brackets — the cheap structural check.
    const auto count = [&](char c) {
        std::size_t n = 0;
        for (char d : doc)
            n += d == c;
        return n;
    };
    EXPECT_EQ(count('{'), count('}'));
    EXPECT_EQ(count('['), count(']'));
}

TEST(JsonWriter, NegativeZeroAndSubnormalsAreFinite)
{
    // The guard rejects only non-finite values; awkward-but-legal
    // doubles must still print.
    std::ostringstream os;
    JsonWriter w(os);
    w.field("neg_zero", -0.0);
    w.field("denorm", std::numeric_limits<double>::denorm_min());
    w.field("huge", std::numeric_limits<double>::max());
    w.finish();
    EXPECT_NE(os.str().find("\"neg_zero\""), std::string::npos);
}

TEST(JsonWriterDeath, NaNDoublePanicsNamingTheKey)
{
    EXPECT_DEATH(
        {
            std::ostringstream os;
            JsonWriter w(os);
            w.field("batching_qps_win",
                    std::numeric_limits<double>::quiet_NaN());
        },
        "non-finite double for key \"batching_qps_win\"");
}

TEST(JsonWriterDeath, InfDoublePanicsNamingTheKey)
{
    EXPECT_DEATH(
        {
            std::ostringstream os;
            JsonWriter w(os);
            w.field("p999_latency_ms",
                    std::numeric_limits<double>::infinity());
        },
        "non-finite double for key \"p999_latency_ms\"");
    EXPECT_DEATH(
        {
            std::ostringstream os;
            JsonWriter w(os);
            w.field("slowdown",
                    -std::numeric_limits<double>::infinity());
        },
        "non-finite double for key \"slowdown\"");
}

// Nearest-rank quartiles of {1..5}: median 3, Q1 2, Q3 4.
TEST(Spread, MedianMinIqrScaledAndEmittedAsThreeFields)
{
    std::vector<double> t = {5.0, 1.0, 4.0, 2.0, 3.0};
    const ciflow::benchutil::Spread s = ciflow::benchutil::spreadOf(t);
    EXPECT_EQ(s.median, 3.0);
    EXPECT_EQ(s.min, 1.0);
    EXPECT_EQ(s.iqr, 2.0);
    const ciflow::benchutil::Spread ms = s.scaled(1e3);
    EXPECT_EQ(ms.median, 3e3);
    EXPECT_EQ(ms.min, 1e3);
    EXPECT_EQ(ms.iqr, 2e3);

    std::ostringstream os;
    JsonWriter w(os);
    ciflow::benchutil::spreadFields(w, "compile_ms", s);
    w.finish();
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"compile_ms\": 3"), std::string::npos);
    EXPECT_NE(doc.find("\"compile_ms_min\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"compile_ms_iqr\": 2"), std::string::npos);
}

// Both sides run once per pass, strictly alternating, and every pass
// contributes one sample per side.
TEST(Spread, AlternatingPassesInterleaveTheTwoSides)
{
    std::string order;
    const auto [a, b] = ciflow::benchutil::alternatingSpreads(
        4, [&] { order += 'a'; }, [&] { order += 'b'; });
    EXPECT_EQ(order, "abababab");
    EXPECT_GE(a.median, 0.0);
    EXPECT_GE(b.iqr, 0.0);
    EXPECT_LE(a.min, a.median);
}

} // namespace
