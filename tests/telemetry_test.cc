/**
 * @file
 * Tests for the run-telemetry registry (obs/telemetry.hh): exact
 * counter/gauge/histogram totals under thread contention, span
 * nesting depths in the Chrome trace output, metrics/trace JSON
 * round-trips, and — the load-bearing performance contract — zero
 * heap allocations on every recording path while telemetry is
 * disabled (proved by a counting global operator new).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "counting_new.hh"
#include "obs/telemetry.hh"
#include "util/json.hh"

namespace tstream
{
namespace
{

/** Fresh in-memory telemetry for each test. */
void
freshTelemetry()
{
    telemetry::enable(""); // in-memory: no exit artifacts
    telemetry::reset();
}

// ---- registry concurrency: exact totals ------------------------------------

TEST(TelemetryRegistry, ConcurrentCountsAreExact)
{
    freshTelemetry();
    constexpr int kThreads = 8;
    constexpr int kIncrements = 10'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([] {
            for (int i = 0; i < kIncrements; ++i) {
                telemetry::count("test.counter");
                telemetry::gaugeAdd("test.gauge", 1);
                telemetry::observe("test.hist", 4.0);
            }
        });
    for (std::thread &t : threads)
        t.join();

    const std::uint64_t total =
        static_cast<std::uint64_t>(kThreads) * kIncrements;
    EXPECT_EQ(telemetry::counterValue("test.counter"), total);
    EXPECT_EQ(telemetry::gaugeValue("test.gauge"),
              static_cast<std::int64_t>(total));
    EXPECT_EQ(telemetry::histogramCount("test.hist"), total);
    telemetry::disable();
}

TEST(TelemetryRegistry, CountersGaugesAndAbsentNames)
{
    freshTelemetry();
    telemetry::count("a", 5);
    telemetry::count("a", 2);
    telemetry::gaugeSet("g", 42);
    telemetry::gaugeAdd("g", -2);
    EXPECT_EQ(telemetry::counterValue("a"), 7u);
    EXPECT_EQ(telemetry::gaugeValue("g"), 40);
    EXPECT_EQ(telemetry::counterValue("no.such"), 0u);
    EXPECT_EQ(telemetry::gaugeValue("no.such"), 0);
    EXPECT_EQ(telemetry::histogramCount("no.such"), 0u);
    telemetry::disable();
}

TEST(TelemetryRegistry, HistogramSummaryIsExact)
{
    freshTelemetry();
    for (double v : {0.5, 1.0, 2.0, 1000.0})
        telemetry::observe("h", v);

    const json::Value doc = telemetry::metricsJson();
    ASSERT_TRUE(doc.isObject());
    const json::Value *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "tstream-telemetry/v1");

    const json::Value *hists = doc.find("histograms");
    ASSERT_NE(hists, nullptr);
    const json::Value *h = hists->find("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("count")->asUint(), 4u);
    EXPECT_DOUBLE_EQ(h->find("sum")->asDouble(), 1003.5);
    EXPECT_DOUBLE_EQ(h->find("min")->asDouble(), 0.5);
    EXPECT_DOUBLE_EQ(h->find("max")->asDouble(), 1000.0);
    // Log-scale buckets: each sample lands in exactly one.
    std::uint64_t bucketTotal = 0;
    for (const json::Value &b : h->find("buckets")->items())
        bucketTotal += b.items()[1].asUint();
    EXPECT_EQ(bucketTotal, 4u);
    telemetry::disable();
}

// ---- spans ------------------------------------------------------------------

TEST(TelemetrySpans, NestingDepthsAppearInTrace)
{
    freshTelemetry();
    {
        telemetry::Span outer("outer", "test");
        outer.arg("id", std::string_view("cell-0"));
        {
            telemetry::Span inner("inner", "test");
            inner.arg("n", static_cast<std::int64_t>(7));
        }
    }
    EXPECT_EQ(telemetry::spanCount(), 2u);

    const json::Value doc = telemetry::traceEventsJson();
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items().size(), 2u);

    std::int64_t outerDepth = -1, innerDepth = -1;
    for (const json::Value &ev : events->items()) {
        EXPECT_EQ(ev.find("ph")->asString(), "X");
        const json::Value *args = ev.find("args");
        ASSERT_NE(args, nullptr);
        if (ev.find("name")->asString() == "outer") {
            outerDepth = args->find("depth")->asInt();
            EXPECT_EQ(args->find("id")->asString(), "cell-0");
        } else if (ev.find("name")->asString() == "inner") {
            innerDepth = args->find("depth")->asInt();
            EXPECT_EQ(args->find("n")->asInt(), 7);
        }
    }
    EXPECT_EQ(outerDepth, 0);
    EXPECT_EQ(innerDepth, 1);
    telemetry::disable();
}

TEST(TelemetrySpans, RecordSpanUsesExplicitTimestamps)
{
    freshTelemetry();
    telemetry::recordSpan("queue-wait", "test", 100, 350, "id", "c3");
    const json::Value doc = telemetry::traceEventsJson();
    const auto &events = doc.find("traceEvents")->items();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].find("name")->asString(), "queue-wait");
    EXPECT_EQ(events[0].find("ts")->asInt(), 100);
    EXPECT_EQ(events[0].find("dur")->asInt(), 250);
    EXPECT_EQ(events[0].find("args")->find("id")->asString(), "c3");
    telemetry::disable();
}

// ---- JSON round-trips -------------------------------------------------------

TEST(TelemetryJson, MetricsAndTraceRoundTripThroughParser)
{
    freshTelemetry();
    telemetry::count("rt.counter", 3);
    telemetry::gaugeSet("rt.gauge", -5);
    telemetry::observe("rt.hist", 12.0);
    { telemetry::Span s("rt.span", "test"); }

    for (const json::Value &doc :
         {telemetry::metricsJson(), telemetry::traceEventsJson()}) {
        json::Value parsed;
        std::string err;
        ASSERT_TRUE(json::Value::parse(doc.dump(), parsed, err)) << err;
        EXPECT_EQ(parsed, doc);
    }
    telemetry::disable();
}

TEST(TelemetryJson, TracePathDerivation)
{
    EXPECT_EQ(telemetry::tracePathFor("run.json"), "run.trace.json");
    EXPECT_EQ(telemetry::tracePathFor("out/metrics.json"),
              "out/metrics.trace.json");
    EXPECT_EQ(telemetry::tracePathFor("weird.dat"),
              "weird.dat.trace.json");
}

// ---- disabled telemetry is free --------------------------------------------

TEST(TelemetryDisabled, RecordingPathsAreAllocationFree)
{
    telemetry::disable();
    {
        telemetry::Span probe("off.probe", "test");
        EXPECT_FALSE(probe.active());
    }
    // No gtest assertions inside the measured region — only telemetry
    // calls may run between the two counter reads.
    const std::size_t before =
        gAllocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        telemetry::count("off.counter");
        telemetry::count("off.counter", 3);
        telemetry::gaugeSet("off.gauge", i);
        telemetry::gaugeAdd("off.gauge", -1);
        telemetry::observe("off.hist", static_cast<double>(i));
        telemetry::Span span("off.span", "test");
        span.arg("key", std::string_view("value"));
        span.arg("n", static_cast<std::int64_t>(i));
        telemetry::recordSpan("off.rec", "test", 0, 1);
    }
    const std::size_t after = gAllocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
    // And nothing was recorded.
    telemetry::enable("");
    EXPECT_EQ(telemetry::counterValue("off.counter"), 0u);
    telemetry::disable();
}

} // namespace
} // namespace tstream
