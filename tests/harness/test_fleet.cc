/**
 * @file
 * Fleet-mode tests: wire-protocol framing (round trip, truncation
 * fuzz, corruption), the selective-skip JSON parser the report tool
 * uses on fleet outputs, and fork-based coordinator/worker tests —
 * bit-identity against the single-process runner, mid-cell worker
 * death, warm-worker reuse across batches, and handshake rejection.
 *
 * The fork-based tests attach real worker *processes* without exec:
 * the coordinator is constructed with an explicit socket path and no
 * spawn count, and children fork()ed by the test connect to it. That
 * exercises the identical code path `--connect` does while keeping
 * the whole scenario inside one test binary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/fleet.hh"
#include "harness/json.hh"
#include "harness/proto.hh"
#include "harness/sweep.hh"

using namespace perspective;
using namespace perspective::harness;

// ---- Wire protocol --------------------------------------------------

namespace
{

Json
sampleMessage()
{
    Json::Object cell;
    cell["workload"] = "getpid";
    cell["cycles"] = Json(std::uint64_t{18446744073709551615ull});
    cell["note"] = "quote \" backslash \\ newline \n";
    Json::Object msg;
    msg["type"] = "result";
    msg["index"] = 7;
    msg["cell"] = Json(std::move(cell));
    return Json(std::move(msg));
}

/** A connected local stream pair; [0] is the test's write side. */
struct SocketPair
{
    int fd[2] = {-1, -1};
    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0);
    }
    ~SocketPair()
    {
        closeWrite();
        if (fd[1] >= 0)
            ::close(fd[1]);
    }
    void
    closeWrite()
    {
        if (fd[0] >= 0)
            ::close(fd[0]);
        fd[0] = -1;
    }
};

void
writeRaw(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

TEST(FleetProto, FramesRoundTripAndEofIsClean)
{
    SocketPair sp;
    Json msg = sampleMessage();
    ASSERT_TRUE(proto::writeFrame(sp.fd[0], msg));
    ASSERT_TRUE(proto::writeFrame(sp.fd[0], Json(Json::Object{})));
    sp.closeWrite();

    Json out;
    std::string err;
    EXPECT_EQ(proto::readFrame(sp.fd[1], out, &err),
              proto::ReadStatus::Ok)
        << err;
    EXPECT_EQ(out.dump(), msg.dump()); // byte-exact round trip
    EXPECT_EQ(proto::readFrame(sp.fd[1], out, &err),
              proto::ReadStatus::Ok)
        << err;
    // Orderly close lands exactly on a frame boundary: Eof, not Error.
    EXPECT_EQ(proto::readFrame(sp.fd[1], out, &err),
              proto::ReadStatus::Eof);
}

TEST(FleetProto, EveryTruncatedPrefixIsEofOrError)
{
    const std::string frame = proto::encodeFrame(sampleMessage());
    ASSERT_GT(frame.size(), 8u);
    for (std::size_t len = 0; len < frame.size(); ++len) {
        SocketPair sp;
        writeRaw(sp.fd[0], frame.substr(0, len));
        sp.closeWrite();
        Json out;
        std::string err;
        proto::ReadStatus st = proto::readFrame(sp.fd[1], out, &err);
        // A prefix must never decode as a complete frame; zero bytes
        // is the one clean Eof, everything else a truncation error.
        if (len == 0)
            EXPECT_EQ(st, proto::ReadStatus::Eof) << "prefix " << len;
        else
            EXPECT_EQ(st, proto::ReadStatus::Error)
                << "prefix " << len;
    }
}

TEST(FleetProto, CorruptFramesAreErrorsNotParses)
{
    Json out;
    std::string err;

    // Flipped magic byte.
    std::string bad = proto::encodeFrame(sampleMessage());
    bad[0] = 'X';
    {
        SocketPair sp;
        writeRaw(sp.fd[0], bad);
        sp.closeWrite();
        EXPECT_EQ(proto::readFrame(sp.fd[1], out, &err),
                  proto::ReadStatus::Error);
        EXPECT_NE(err.find("magic"), std::string::npos) << err;
    }

    // Length beyond kMaxFrame: rejected from the header alone.
    {
        std::string huge(proto::kMagic, 4);
        std::uint32_t len = proto::kMaxFrame + 1;
        for (int i = 0; i < 4; ++i)
            huge.push_back(
                static_cast<char>((len >> (8 * i)) & 0xff));
        SocketPair sp;
        writeRaw(sp.fd[0], huge);
        sp.closeWrite();
        EXPECT_EQ(proto::readFrame(sp.fd[1], out, &err),
                  proto::ReadStatus::Error);
        EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
    }

    // Well-framed garbage payload: the parse error surfaces as Error.
    {
        std::string frame(proto::kMagic, 4);
        const std::string payload = "{not json";
        std::uint32_t len = static_cast<std::uint32_t>(payload.size());
        for (int i = 0; i < 4; ++i)
            frame.push_back(
                static_cast<char>((len >> (8 * i)) & 0xff));
        frame += payload;
        SocketPair sp;
        writeRaw(sp.fd[0], frame);
        sp.closeWrite();
        EXPECT_EQ(proto::readFrame(sp.fd[1], out, &err),
                  proto::ReadStatus::Error);
        EXPECT_NE(err.find("payload"), std::string::npos) << err;
    }
}

// ---- Selective-skip parsing (perfbench reads the baseline with it) -

TEST(FleetJson, SkipObjectKeysDropsSubtreesAtEveryDepth)
{
    const std::string doc = R"({
      "bench": "x",
      "histograms": {"h": {"p50": 1.5, "vals": [1, 2, 3]}},
      "cells": [
        {"cycles": 7,
         "histograms": {"deep": "skipped \" too"},
         "timeseries": {"cycle": [1], "value": [2]}}
      ]
    })";
    Json::ParseOptions opts;
    opts.skipObjectKeys = {"histograms", "timeseries"};
    Json d = Json::parse(doc, opts);
    EXPECT_FALSE(d.contains("histograms"));
    EXPECT_EQ(d.at("bench").asString(), "x");
    const Json &cell = d.at("cells").asArray().at(0);
    EXPECT_EQ(cell.at("cycles").asUint(), 7u);
    EXPECT_FALSE(cell.contains("histograms"));
    EXPECT_FALSE(cell.contains("timeseries"));

    // The skipped subtree is still syntax-checked: malformed content
    // inside it must throw, same as a full parse.
    Json::ParseOptions skipBad;
    skipBad.skipObjectKeys = {"bad"};
    EXPECT_THROW(Json::parse(R"({"bad": {"x": }})", skipBad),
                 std::runtime_error);
    EXPECT_THROW(Json::parse(R"({"bad": "unterminated)", skipBad),
                 std::runtime_error);
}

// ---- Coordinator/worker process tests -------------------------------

namespace
{

std::string
fleetSocketPath(const char *name)
{
    return ::testing::TempDir() + "fleet_" + name + "_" +
           std::to_string(static_cast<long>(::getpid())) + ".sock";
}

FleetCoordinator::Options
coordOpts(const std::string &path)
{
    FleetCoordinator::Options o;
    o.socketPath = path;
    o.spawnWorkers = 0; // the tests fork and attach workers directly
    o.benchName = "test_fleet";
    return o;
}

/** Result JSON a fake worker returns for cell @p index. */
Json
fakeCell(std::size_t index)
{
    Json::Object o;
    o["index"] = Json(static_cast<std::uint64_t>(index));
    o["wall_seconds"] = 0.001;
    return Json(std::move(o));
}

/** Fork a worker process running @p body; it must _exit itself. */
pid_t
forkWorker(const std::function<void()> &body)
{
    pid_t pid = ::fork();
    if (pid == 0) {
        // A throw must not unwind into the gtest frames the child
        // inherited — it would keep running the parent's test suite.
        try {
            body();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "fleet test worker: %s\n", e.what());
        }
        ::_exit(99); // body failed to exit on its own
    }
    return pid;
}

/**
 * Readiness handshake: each forked worker writes one byte once its
 * FleetWorker has connected, and the parent reads one per worker
 * before it starts a batch. No worker can then arrive after the
 * batch has drained and the coordinator is gone (it would find the
 * socket path unlinked and exit 99). A worker that dies first closes
 * its write end, so the wait fails instead of hanging.
 */
struct ReadyPipe
{
    int fd[2] = {-1, -1};
    ReadyPipe() { EXPECT_EQ(::pipe(fd), 0); }
    ~ReadyPipe() { ::close(fd[0]); }

    /** Child side: this worker is connected. */
    void
    signal()
    {
        EXPECT_EQ(::write(fd[1], "r", 1), 1);
        ::close(fd[1]);
    }

    /** Parent side, after forking every worker. */
    bool
    await(unsigned workers)
    {
        ::close(fd[1]);
        char c;
        for (unsigned i = 0; i < workers; ++i)
            if (::read(fd[0], &c, 1) != 1)
                return false;
        return true;
    }
};

int
waitExit(pid_t pid)
{
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

// The fork-based tests below start a batch only once every forked
// worker has connected (ReadyPipe), and destroy the coordinator
// (optional .reset() or scope exit) BEFORE reaping workers: a
// connected worker whose hello arrives after the batch drained sits
// blocked on it, and only the coordinator's teardown — closing the
// connections and the listen socket — turns that wait into a clean
// EOF exit. Reaping first deadlocks: waitpid() waits on a worker that
// waits on a coordinator that is still alive but no longer serving.

TEST(Fleet, ForkedWorkersServeEveryCellExactlyOnce)
{
    const std::string path = fleetSocketPath("serve");
    std::optional<FleetCoordinator> coord(coordOpts(path));

    ReadyPipe ready;
    auto workerBody = [&] {
        FleetWorker w(path);
        ready.signal();
        w.serveBatch(0, "grid-a", "test_fleet", fakeCell);
        ::_exit(0);
    };
    pid_t w0 = forkWorker(workerBody);
    pid_t w1 = forkWorker(workerBody);
    ASSERT_TRUE(ready.await(2));

    const std::vector<std::size_t> queue = {0, 1, 2, 3, 4, 5};
    std::map<std::size_t, unsigned> got;
    coord->runBatch(0, "grid-a", queue,
                    std::vector<double>(queue.size(), 1.0),
                    [&](std::size_t idx, unsigned worker,
                        const Json &cell) {
                        EXPECT_EQ(got.count(idx), 0u) << "duplicate";
                        got[idx] = worker;
                        EXPECT_EQ(cell.at("index").asUint(), idx);
                    });
    EXPECT_EQ(got.size(), queue.size());
    std::uint64_t served = 0;
    for (std::uint64_t n : coord->stats().cellsPerWorker)
        served += n;
    EXPECT_EQ(served, queue.size());
    coord.reset();
    EXPECT_EQ(waitExit(w0), 0);
    EXPECT_EQ(waitExit(w1), 0);
}

TEST(Fleet, WorkerDeathMidCellRequeuesWithoutLoss)
{
    const std::string path = fleetSocketPath("chaos");
    std::optional<FleetCoordinator> coord(coordOpts(path));

    // Whichever child completes the handshake first becomes worker 0
    // and dies right before sending its first result; the other must
    // pick the cell back up.
    ::setenv("PERSPECTIVE_FLEET_CHAOS", "0:1", 1);
    ReadyPipe ready;
    auto workerBody = [&] {
        FleetWorker w(path);
        ready.signal();
        // Slow cells keep the batch alive until both workers have
        // joined — otherwise one worker can drain all six before
        // worker 0 ever requests a cell, and the chaos death (which
        // requires worker 0 to execute one) never happens.
        w.serveBatch(0, "grid-a", "test_fleet", [](std::size_t i) {
            ::usleep(20 * 1000);
            return fakeCell(i);
        });
        ::_exit(0);
    };
    pid_t w0 = forkWorker(workerBody);
    pid_t w1 = forkWorker(workerBody);
    ::unsetenv("PERSPECTIVE_FLEET_CHAOS");
    ASSERT_TRUE(ready.await(2));

    const std::vector<std::size_t> queue = {0, 1, 2, 3, 4, 5};
    std::set<std::size_t> got;
    coord->runBatch(0, "grid-a", queue,
                    std::vector<double>(queue.size(), 1.0),
                    [&](std::size_t idx, unsigned, const Json &) {
                        EXPECT_TRUE(got.insert(idx).second);
                    });
    EXPECT_EQ(got.size(), queue.size()); // every cell exactly once
    EXPECT_GE(coord->stats().stragglersResent, 1u);
    coord.reset();

    // One child died by chaos (_exit(42)), the other finished clean.
    std::multiset<int> exits = {waitExit(w0), waitExit(w1)};
    EXPECT_EQ(exits, (std::multiset<int>{0, 42}));
}

TEST(Fleet, WarmWorkerServesTwoConsecutiveBatches)
{
    const std::string path = fleetSocketPath("warm");
    std::optional<FleetCoordinator> coord(coordOpts(path));

    ReadyPipe ready;
    pid_t w = forkWorker([&] {
        // One process, one connection, two batches: the second
        // serveBatch must reuse the warm connection (and the warm
        // process state a real worker keeps — boot snapshots etc.).
        FleetWorker worker(path);
        ready.signal();
        std::size_t n1 =
            worker.serveBatch(0, "grid-a", "test_fleet", fakeCell);
        std::size_t n2 =
            worker.serveBatch(1, "grid-b", "test_fleet", fakeCell);
        ::_exit(n1 == 3 && n2 == 3 ? 0 : 1);
    });
    ASSERT_TRUE(ready.await(1));

    const std::vector<std::size_t> queue = {0, 1, 2};
    const std::vector<double> costs(queue.size(), 1.0);
    std::size_t results = 0;
    auto count = [&](std::size_t, unsigned, const Json &) {
        ++results;
    };
    coord->runBatch(0, "grid-a", queue, costs, count);
    coord->runBatch(1, "grid-b", queue, costs, count);
    EXPECT_EQ(results, 6u);
    // One distinct worker id across both batches — the same warm
    // process served everything, no re-handshake as a new worker.
    EXPECT_EQ(coord->stats().workers, 1u);
    ASSERT_EQ(coord->stats().cellsPerWorker.size(), 1u);
    EXPECT_EQ(coord->stats().cellsPerWorker[0], 6u);
    coord.reset();
    EXPECT_EQ(waitExit(w), 0);
}

TEST(Fleet, MismatchedGridHashIsRejectedBeforeAnyCell)
{
    const std::string path = fleetSocketPath("reject");
    std::optional<FleetCoordinator> coord(coordOpts(path));

    // The impostor claims the same batch with a different grid: it
    // must be turned away at the handshake (a wrong grid would
    // compute wrong cells), and serveBatch surfaces that as a throw.
    ReadyPipe ready;
    pid_t bad = forkWorker([&] {
        FleetWorker w(path);
        ready.signal();
        try {
            w.serveBatch(0, "grid-other", "test_fleet", fakeCell);
        } catch (const std::runtime_error &) {
            ::_exit(0);
        }
        ::_exit(1);
    });
    // A matching worker keeps the batch alive long enough for the
    // impostor's hello to arrive, then serves everything.
    pid_t good = forkWorker([&] {
        FleetWorker w(path);
        ready.signal();
        w.serveBatch(0, "grid-a", "test_fleet", [](std::size_t i) {
            ::usleep(30 * 1000);
            return fakeCell(i);
        });
        ::_exit(0);
    });
    ASSERT_TRUE(ready.await(2));

    const std::vector<std::size_t> queue = {0, 1, 2, 3};
    std::size_t results = 0;
    coord->runBatch(0, "grid-a", queue,
                    std::vector<double>(queue.size(), 1.0),
                    [&](std::size_t, unsigned, const Json &) {
                        ++results;
                    });
    EXPECT_EQ(results, queue.size());
    coord.reset();
    EXPECT_EQ(waitExit(bad), 0);
    EXPECT_EQ(waitExit(good), 0);
}

// ---- End-to-end: fleet sweep is bit-identical to single-process ----

namespace
{

std::vector<SweepCell>
fleetGrid()
{
    std::vector<SweepCell> cells;
    for (const auto &w : workloads::lebenchSuite()) {
        if (w.name != "getpid" && w.name != "read")
            continue;
        for (workloads::Scheme s : {workloads::Scheme::Unsafe,
                                    workloads::Scheme::Fence}) {
            SweepCell c;
            c.profile = w;
            c.scheme = s;
            c.iterations = 4;
            c.warmup = 1;
            cells.push_back(std::move(c));
        }
    }
    EXPECT_EQ(cells.size(), 4u);
    return cells;
}

} // namespace

TEST(FleetSweep, MatchesSingleProcessRunnerBitForBit)
{
    auto grid = fleetGrid();

    // Reference results from the ordinary in-process runner.
    std::vector<CellResult> single;
    {
        SweepOptions o;
        o.benchName = "test_fleet_e2e";
        o.jobs = 1;
        SweepRunner runner(o);
        single = runner.run(grid);
    } // pool threads joined before fork

    const std::string path = fleetSocketPath("e2e");
    ReadyPipe ready;
    auto workerBody = [&] {
        SweepOptions wo;
        wo.benchName = "test_fleet_e2e";
        wo.connectPath = path;
        SweepRunner worker(wo); // connects eagerly
        ready.signal();
        worker.run(fleetGrid());
        ::_exit(0);
    };

    SweepOptions co;
    co.benchName = "test_fleet_e2e";
    co.fleetSocket = path; // coordinator; workers attach externally
    std::vector<CellResult> fleet;
    Json doc;
    pid_t w0 = -1;
    pid_t w1 = -1;
    {
        // Bind the coordinator's socket BEFORE forking the workers,
        // so their eager connects succeed on the first probe.
        SweepRunner coord(co);
        ASSERT_TRUE(coord.isFleetCoordinator());
        w0 = forkWorker(workerBody);
        w1 = forkWorker(workerBody);
        ASSERT_TRUE(ready.await(2));
        fleet = coord.run(grid);
        doc = Json::parse(coord.toJson().dump(2));
    } // teardown closes the socket; a late worker EOFs out cleanly

    ASSERT_EQ(fleet.size(), single.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        EXPECT_TRUE(single[i].ok) << single[i].error;
        EXPECT_TRUE(fleet[i].ok) << fleet[i].error;
        EXPECT_EQ(fleet[i].workload, single[i].workload);
        EXPECT_EQ(fleet[i].scheme, single[i].scheme);
        EXPECT_EQ(fleet[i].result.cycles, single[i].result.cycles);
        EXPECT_EQ(fleet[i].result.instructions,
                  single[i].result.instructions);
        EXPECT_EQ(fleet[i].result.fences, single[i].result.fences);
        EXPECT_EQ(fleet[i].result.stats.all(),
                  single[i].result.stats.all());
        EXPECT_FALSE(fleet[i].skipped);
        EXPECT_FALSE(fleet[i].cached);
    }

    const Json &sched = doc.at("schedule");
    EXPECT_EQ(sched.at("policy").asString(), "fleet-work-stealing");
    const Json &fl = sched.at("fleet");
    EXPECT_GE(fl.at("workers").asUint(), 1u);
    std::uint64_t perWorker = 0;
    for (const Json &n : fl.at("cells_per_worker").asArray())
        perWorker += n.asUint();
    EXPECT_EQ(perWorker, grid.size());

    EXPECT_EQ(waitExit(w0), 0);
    EXPECT_EQ(waitExit(w1), 0);
}
