#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "harness/chrome_trace.hh"
#include "harness/json.hh"
#include "harness/pool.hh"
#include "harness/sweep.hh"

using namespace perspective;
using namespace perspective::harness;
using namespace perspective::workloads;

// ---- ThreadPool ----------------------------------------------------

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, InlineModeRunsOnSubmittingThread)
{
    ThreadPool pool(0);
    std::thread::id submitter = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.submit([&] { ran_on = std::this_thread::get_id(); });
    pool.wait();
    EXPECT_EQ(ran_on, submitter);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, TaskExceptionRethrownFromWait)
{
    // Regression: a throwing task used to escape workerLoop, leaving
    // the in-flight count unbalanced (wait() hung) and terminating
    // the worker. Now the first exception is captured and rethrown
    // from wait(); every other task still runs.
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 16; ++i)
        pool.submit([&count, i] {
            ++count;
            if (i == 5)
                throw std::runtime_error("task failed");
        });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(count.load(), 16);

    // The pool stays usable, and the error does not resurface.
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 17);
}

TEST(ThreadPool, InlineModeExceptionRethrownFromWait)
{
    // Inline mode (0 threads) must follow the same contract: the
    // exception surfaces from wait(), not from submit().
    ThreadPool pool(0);
    std::atomic<int> count{0};
    pool.submit([&count] {
        ++count;
        throw std::runtime_error("inline boom");
    });
    pool.submit([&count] { ++count; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(count.load(), 2);
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, CurrentLaneIsPerPoolUnderNesting)
{
    // Regression: a fleet worker executes cells on its own inline
    // pool while its thread may belong to an enclosing pool. The
    // static currentWorker() reports the enclosing pool's lane; the
    // per-instance currentLane() must report the lane *in the asked
    // pool* — 0 for a pool the thread does not belong to — or the
    // outer lane leaks into the inner pool's worker_busy accounting.
    ThreadPool outer(2);
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    std::set<unsigned> outerLanes;
    std::vector<unsigned> innerLanes;
    std::set<unsigned> staticLanes;
    for (int i = 0; i < 2; ++i)
        outer.submit([&] {
            {
                // Rendezvous so both outer lanes are occupied (the
                // same worker cannot serve both tasks).
                std::unique_lock<std::mutex> lk(mu);
                ++arrived;
                cv.notify_all();
                cv.wait(lk, [&] { return arrived == 2; });
            }
            unsigned mine = outer.currentLane();
            ThreadPool inner(0); // inline, as a fleet worker runs
            unsigned innerLane = 99;
            inner.submit(
                [&] { innerLane = inner.currentLane(); });
            inner.wait();
            std::lock_guard<std::mutex> lk(mu);
            outerLanes.insert(mine);
            innerLanes.push_back(innerLane);
            staticLanes.insert(ThreadPool::currentWorker());
        });
    outer.wait();
    // The outer pool sees its own lanes through currentLane()...
    EXPECT_EQ(outerLanes, (std::set<unsigned>{0u, 1u}));
    // ...and so does the ambiguous static accessor...
    EXPECT_EQ(staticLanes, (std::set<unsigned>{0u, 1u}));
    // ...but the nested pool correctly claims neither thread.
    ASSERT_EQ(innerLanes.size(), 2u);
    EXPECT_EQ(innerLanes[0], 0u);
    EXPECT_EQ(innerLanes[1], 0u);
}

// ---- Json ----------------------------------------------------------

TEST(Json, RoundTripsScalars)
{
    Json doc = Json::parse(
        R"({"u": 18446744073709551615, "d": 1.5, "s": "a\nb",)"
        R"( "t": true, "n": null, "a": [1, 2, 3]})");
    EXPECT_EQ(doc.at("u").asUint(), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(doc.at("d").asDouble(), 1.5);
    EXPECT_EQ(doc.at("s").asString(), "a\nb");
    EXPECT_TRUE(doc.at("t").asBool());
    EXPECT_TRUE(doc.at("n").isNull());
    EXPECT_EQ(doc.at("a").asArray().size(), 3u);

    // dump -> parse -> dump is a fixed point.
    std::string once = doc.dump(2);
    EXPECT_EQ(Json::parse(once).dump(2), once);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\":1} x"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
}

// ---- Sweep determinism --------------------------------------------

namespace
{

std::vector<SweepCell>
smallGrid()
{
    std::vector<SweepCell> cells;
    unsigned added = 0;
    for (const auto &w : lebenchSuite()) {
        if (w.name != "getpid" && w.name != "read" &&
            w.name != "poll")
            continue;
        for (Scheme s : {Scheme::Unsafe, Scheme::Fence}) {
            SweepCell c;
            c.profile = w;
            c.scheme = s;
            c.iterations = 4;
            c.warmup = 1;
            cells.push_back(std::move(c));
        }
        ++added;
    }
    EXPECT_EQ(added, 3u);
    return cells;
}

SweepOptions
optsWithJobs(unsigned jobs)
{
    SweepOptions o;
    o.benchName = "test_sweep";
    o.jobs = jobs;
    return o;
}

void
expectIdentical(const CellResult &a, const CellResult &b)
{
    EXPECT_TRUE(a.ok) << a.error;
    EXPECT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.kernelInstructions,
              b.result.kernelInstructions);
    EXPECT_EQ(a.result.fences, b.result.fences);
    EXPECT_EQ(a.result.isvFences, b.result.isvFences);
    EXPECT_EQ(a.result.dsvFences, b.result.dsvFences);
    EXPECT_EQ(a.result.isvCacheHitRate, b.result.isvCacheHitRate);
    EXPECT_EQ(a.result.dsvCacheHitRate, b.result.dsvCacheHitRate);
    EXPECT_EQ(a.result.stats.all(), b.result.stats.all());
}

} // namespace

TEST(Sweep, ParallelGridMatchesSerialGrid)
{
    // Cells are share-nothing, so a 4-job run must produce the
    // byte-identical RunResult grid of a 1-job run, in the same
    // (grid) order.
    SweepRunner serial(optsWithJobs(1));
    SweepRunner parallel(optsWithJobs(4));
    auto grid = smallGrid();
    auto rs = serial.run(grid);
    auto rp = parallel.run(grid);
    ASSERT_EQ(rs.size(), grid.size());
    ASSERT_EQ(rp.size(), grid.size());
    for (std::size_t i = 0; i < rs.size(); ++i)
        expectIdentical(rs[i], rp[i]);
}

TEST(Sweep, ResultsArriveInGridOrder)
{
    SweepRunner runner(optsWithJobs(4));
    auto grid = smallGrid();
    auto rs = runner.run(grid);
    ASSERT_EQ(rs.size(), grid.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs[i].workload, grid[i].profile.name);
        EXPECT_EQ(rs[i].scheme, schemeName(grid[i].scheme));
        EXPECT_GT(rs[i].result.cycles, 0u);
        EXPECT_GE(rs[i].wallSeconds, 0.0);
    }
}

TEST(Sweep, CellFailureIsCapturedNotFatal)
{
    SweepRunner runner(optsWithJobs(2));
    SweepCell bad;
    bad.profile = lebenchSuite().front();
    bad.scheme = Scheme::Unsafe;
    bad.body = [](const SweepCell &) -> RunResult {
        throw std::runtime_error("boom");
    };
    SweepCell good;
    good.profile = lebenchSuite().front();
    good.scheme = Scheme::Unsafe;
    good.iterations = 2;
    good.warmup = 0;
    auto rs = runner.run({bad, good});
    ASSERT_EQ(rs.size(), 2u);
    EXPECT_FALSE(rs[0].ok);
    EXPECT_EQ(rs[0].error, "boom");
    EXPECT_TRUE(rs[1].ok);
    EXPECT_GT(rs[1].result.cycles, 0u);
}

TEST(Sweep, JsonEmissionRoundTripsCounters)
{
    SweepRunner runner(optsWithJobs(2));
    auto grid = smallGrid();
    auto rs = runner.run(grid);

    Json doc = Json::parse(runner.toJson().dump(2));
    EXPECT_EQ(doc.at("bench").asString(), "test_sweep");
    EXPECT_EQ(doc.at("schema").asUint(), 6u); // -fast_forward
    EXPECT_FALSE(doc.at("git").asString().empty());
    const auto &cells = doc.at("cells").asArray();
    ASSERT_EQ(cells.size(), rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const Json &c = cells[i];
        EXPECT_EQ(c.at("workload").asString(), rs[i].workload);
        EXPECT_EQ(c.at("scheme").asString(), rs[i].scheme);
        EXPECT_EQ(c.at("cycles").asUint(),
                  static_cast<std::uint64_t>(rs[i].result.cycles));
        EXPECT_EQ(c.at("instructions").asUint(),
                  rs[i].result.instructions);
        EXPECT_EQ(c.at("fences").asUint(), rs[i].result.fences);
        // The full StatSet rides along and round-trips too.
        const auto &stats = c.at("stats").asObject();
        for (const auto &[name, value] : rs[i].result.stats.all())
            EXPECT_EQ(stats.at(name).asUint(), value) << name;
    }
}

TEST(Sweep, EveryCellCarriesProvenanceAndTelemetry)
{
    SweepRunner runner(optsWithJobs(2));
    runner.run(smallGrid());
    Json doc = Json::parse(runner.toJson().dump(2));
    for (const Json &c : doc.at("cells").asArray()) {
        const Json &p = c.at("provenance");
        EXPECT_EQ(p.at("workload").asString(),
                  c.at("workload").asString());
        EXPECT_EQ(p.at("scheme").asString(),
                  c.at("scheme").asString());
        EXPECT_EQ(p.at("config_hash").asString().size(), 16u);
        EXPECT_FALSE(p.at("git").asString().empty());
        EXPECT_GE(p.at("wall_seconds").asDouble(), 0.0);
        EXPECT_EQ(p.at("jobs").asUint(), 2u);

        // The acceptance floor: at least three histogram summaries
        // per cell, each with the full summary shape.
        const auto &hists = c.at("histograms").asObject();
        for (const char *name :
             {"rob_occupancy", "fence_stall_cycles", "squash_depth"})
            ASSERT_TRUE(hists.count(name)) << name;
        for (const auto &[name, h] : hists) {
            EXPECT_TRUE(h.contains("count")) << name;
            EXPECT_TRUE(h.contains("mean")) << name;
            EXPECT_TRUE(h.contains("p50")) << name;
            EXPECT_TRUE(h.contains("p99")) << name;
        }
        EXPECT_GT(hists.at("rob_occupancy").at("count").asUint(),
                  0u);

        // Time series: parallel cycle/value arrays of equal length.
        for (const auto &[name, s] : c.at("timeseries").asObject())
            EXPECT_EQ(s.at("cycle").asArray().size(),
                      s.at("value").asArray().size())
                << name;
    }
}

TEST(Sweep, ConfigHashKeysCellsStably)
{
    CellResult a;
    a.workload = "getpid";
    a.scheme = "unsafe";
    a.seed = 1;
    a.iterations = 4;
    a.warmup = 1;
    CellResult b = a;
    EXPECT_EQ(cellConfigHash(a), cellConfigHash(b));
    EXPECT_EQ(cellConfigHash(a).size(), 16u);

    b.seed = 2;
    EXPECT_NE(cellConfigHash(a), cellConfigHash(b));
    b = a;
    b.tags["variant"] = "x";
    EXPECT_NE(cellConfigHash(a), cellConfigHash(b));
    // Results do not feed the hash — only configuration does.
    b = a;
    b.result.instructions = 999;
    EXPECT_EQ(cellConfigHash(a), cellConfigHash(b));
}

/** The hash recipe is part of the committed baselines: bench_report
 * matches cells by it. This literal is the getpid/unsafe cell of
 * bench/baselines/simspeed-release.json. */
TEST(Sweep, ConfigHashMatchesCommittedBaseline)
{
    SweepCell c;
    for (const auto &w : workloads::lebenchSuite())
        if (w.name == "getpid")
            c.profile = w;
    ASSERT_EQ(c.profile.name, "getpid");
    c.scheme = workloads::Scheme::Unsafe;
    c.seed = 42;
    c.iterations = 30;
    c.warmup = 3;
    c.sampling = {}; // exact, whatever PERSPECTIVE_SAMPLE says
    c.tags["boot"] = "shared";
    c.tags["exec"] = "detailed";
    EXPECT_EQ(cellConfigHash(c), "52f9d6eab8d9f948");
}

TEST(Sweep, ChromeTraceJsonHasValidEventShape)
{
    sim::trace::EventLog log;
    sim::trace::Event span;
    span.flag = sim::trace::Flag::Commit;
    span.start = 10;
    span.dur = 5;
    span.seq = 1;
    span.name = "load r3";
    span.func = "getpid[0]";
    log.record(span);
    sim::trace::Event instant;
    instant.flag = sim::trace::Flag::Squash;
    instant.start = 20;
    instant.seq = 2;
    instant.name = "branch (mispredict)";
    log.record(instant);

    Json doc = Json::parse(chromeTraceJson(log).dump(1));
    const auto &events = doc.at("traceEvents").asArray();
    ASSERT_EQ(events.size(), 2u);
    const Json &e0 = events[0];
    EXPECT_EQ(e0.at("ph").asString(), "X");
    EXPECT_EQ(e0.at("ts").asUint(), 10u);
    EXPECT_EQ(e0.at("dur").asUint(), 5u);
    EXPECT_EQ(e0.at("cat").asString(), "commit");
    EXPECT_GE(e0.at("tid").asUint(), 1u);
    const Json &e1 = events[1];
    EXPECT_EQ(e1.at("ph").asString(), "i");
    EXPECT_EQ(e1.at("s").asString(), "t");
    EXPECT_FALSE(e1.contains("dur"));
    EXPECT_EQ(doc.at("otherData").at("dropped_events").asUint(), 0u);
}

TEST(Sweep, TraceLogCapturesSweepWhenRequested)
{
    std::string path = ::testing::TempDir() + "sweep_trace.json";
    SweepOptions o = optsWithJobs(2);
    o.tracePath = path;
    {
        SweepRunner runner(o);
        ASSERT_NE(sim::trace::eventLog(), nullptr);
        runner.run(smallGrid());
        EXPECT_TRUE(runner.emitTrace());
        EXPECT_GT(runner.traceLog()->size(), 0u);
    }
    // Destroying the runner detaches the global sink.
    EXPECT_EQ(sim::trace::eventLog(), nullptr);

    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    Json doc = Json::parse(buf.str());
    EXPECT_FALSE(doc.at("traceEvents").asArray().empty());
    std::remove(path.c_str());
}

TEST(Sweep, GeomeanIsGeometric)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_EQ(geomean({}), 0.0);
    // Arithmetic mean of {0.5, 2.0} is 1.25; geometric is 1.0 — the
    // whole point of the lebench aggregation fix.
    EXPECT_DOUBLE_EQ(geomean({0.5, 2.0}), 1.0);
}

TEST(SweepOptions, EnvAndDefaultJobs)
{
    SweepOptions o;
    EXPECT_GE(o.effectiveJobs(), 1u);
    o.jobs = 3;
    EXPECT_EQ(o.effectiveJobs(), 3u);
}
