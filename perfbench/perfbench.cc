/**
 * @file
 * The repository benchmark: runs one named workload as a closed-loop
 * batch for a fixed time, checks every cell it ran, and prints the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run) as the last line of its output, one JSON object. See README.md
 * beside this file for the workloads and the layer-to-metric map;
 * run.py builds this program and is the command to run.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--trace-out PATH]
 *   perfbench --self-test [--trace-out PATH]
 *
 * The program also runs copies of itself with --setup-once, one set-up
 * each, to time set-up from process start.
 *
 * The program is driven only through the modules' public API; spans
 * are recorded here, around those calls (spans.hh).
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "attacks/poc.hh"
#include "attacks/races.hh"
#include "core/isv_builders.hh"
#include "harness/json.hh"
#include "harness/pool.hh"
#include "harness/sweep.hh"
#include "kernel/interp.hh"
#include "spans.hh"
#include "workloads/boot_cache.hh"
#include "workloads/experiment.hh"

extern char **environ;

namespace
{

using namespace perspective;
using harness::Json;
using perfbench::nowNs;
using perfbench::Scope;
using perfbench::Span;
using perfbench::SpanLog;
using workloads::Experiment;
using workloads::RunResult;
using workloads::Scheme;
using workloads::WorkloadProfile;

// The paper benches' iteration counts (bench/common.hh), so cells
// hash-match the committed simspeed baseline.
constexpr unsigned kIterations = 30;
constexpr unsigned kWarmup = 3;
/** Committed cells the seed-42 exact LEBench pass must match. */
const char *const kBaseline = "bench/baselines/simspeed-release.json";
/** Set-ups per run; setup_s is their median. */
constexpr unsigned kSetupReps = 9;
/** ROADMAP's sampled-accuracy gate, per scheme. */
constexpr double kSampleGatePct = 2.0;
/** Worker threads of the apps sweep. */
constexpr unsigned kAppsJobs = 2;
/** Shootdown budgets of bench_pliability's leak-vs-budget curve. */
constexpr sim::Cycle kBudgets[] = {0,       1'000,     10'000,
                                   100'000, 1'000'000, 50'000'000};

const char *const kWorkloads[] = {"lebench-sampled", "apps-sweep",
                                  "attack-races"};

// ---------------------------------------------------------------------
// Environment pinning

/** Drop every PERSPECTIVE_* variable, so no shell setting can change
 * the execution mode, serve cells from disk, or switch tracing on;
 * then set the sampling spec when @p sampled. */
void
pinEnvironment(bool sampled)
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        std::string kv = *e;
        if (kv.rfind("PERSPECTIVE_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    if (sampled) {
        sim::SamplingParams sp;
        sp.enabled = true;
        setenv("PERSPECTIVE_SAMPLE", sp.spec().c_str(), 1);
    }
    workloads::BootImage::setSnapshotEnabled(true);
}

// ---------------------------------------------------------------------
// Cells

/** Simulated counts of one cell (deterministic for a seed). */
struct Counts
{
    std::uint64_t cycles = 0, insts = 0, fetched = 0, squashed = 0;
    std::uint64_t mispredicts = 0, l1dAcc = 0, l1dMiss = 0;
    std::uint64_t l1iAcc = 0, l1iMiss = 0, l2Miss = 0, sbHits = 0;
    std::uint64_t sbMiss = 0, gateChecks = 0, gateElided = 0;
    std::uint64_t isvFences = 0, dsvFences = 0, secretLoads = 0;
    std::uint64_t transmissions = 0, windows = 0, sampledInsts = 0;
    std::uint64_t detailedInsts = 0; ///< set in Totals only
    double relErr = 0;
    bool sampled = false;
    bool perspective = false;
    double isvHit = 0, dsvHit = 0;

    bool
    sameAs(const Counts &o) const
    {
        return cycles == o.cycles && insts == o.insts &&
               fetched == o.fetched && squashed == o.squashed &&
               secretLoads == o.secretLoads &&
               transmissions == o.transmissions &&
               windows == o.windows;
    }
};

Counts
countsOf(const sim::StatSet &st, const sim::LeakageSummary &leak)
{
    Counts c;
    c.insts = st.get("committed");
    c.fetched = st.get("fetched");
    c.squashed = st.get("squashed_uops");
    c.mispredicts = st.get("mispredicts");
    c.l1dAcc = st.get("l1d.accesses");
    c.l1dMiss = st.get("l1d.misses");
    c.l1iAcc = st.get("l1i.accesses");
    c.l1iMiss = st.get("l1i.misses");
    c.l2Miss = st.get("l2.data_misses");
    c.sbHits = st.get("sb.cache.hits");
    c.sbMiss = st.get("sb.cache.misses");
    c.gateChecks = st.get("gate.checks");
    c.gateElided = st.get("gate.elided");
    c.isvFences = st.get("perspective.fence.isv");
    c.dsvFences = st.get("perspective.fence.dsv");
    c.secretLoads = leak.secretLoads;
    c.transmissions = leak.transmissions;
    return c;
}

Counts
countsOf(const RunResult &r, bool perspective)
{
    Counts c = countsOf(r.stats, r.leakage);
    c.cycles = r.cycles;
    c.insts = r.instructions;
    c.perspective = perspective;
    c.isvHit = r.isvCacheHitRate;
    c.dsvHit = r.dsvCacheHitRate;
    if (r.sampling.active) {
        c.sampled = true;
        c.windows = r.sampling.windows;
        c.sampledInsts = r.sampling.sampledInsts;
        c.relErr = r.sampling.relError;
    }
    return c;
}

/** One cell as the benchmark saw it. */
struct Cell
{
    std::string workload, scheme, tag;
    Counts sim;
    std::string outcome; ///< attack results, compared across rounds
    unsigned leaks = 0;  ///< LEAKED outcomes in this cell
    double hostMs = 0;
    std::string failure; ///< empty when every check passed

    std::string
    key() const
    {
        return workload + "/" + scheme + (tag.empty() ? "" : "/" + tag);
    }
};

/** Schedule figures of a SweepRunner round (apps-sweep only). */
struct Sched
{
    bool used = false;
    double makespan = 0, ideal = 0, busySum = 0, busyMax = 0;
    unsigned workers = 0;
    double emitS = 0;
};

struct Round
{
    std::vector<Cell> cells;
    double wallS = 0;
    Sched sched;
};

/** Tracing state of a traced round; null in untraced rounds. */
struct Tracer
{
    SpanLog log;
    std::mutex mu; ///< guards log and the counters below (sweep lanes)
    std::atomic<std::uint32_t> nextCell{1};
    std::uint64_t runUops = 0; ///< micro-ops committed by sim.run spans
};

/** One request on the pipeline from public calls, with a span around
 * each kernel and pipeline call. Mirrors Experiment::runRequestAs;
 * the traced-vs-untraced cycle check guards the mirror. */
sim::RunResult
tracedRequest(Experiment &e, SpanLog &log, std::uint64_t &uops)
{
    const kernel::Task &t = e.kernelState().task(e.mainPid());
    sim::Pipeline &cpu = e.pipeline();
    cpu.setAsid(t.asid);
    cpu.setKernelStackBase(t.stackTopVa);
    cpu.setReg(workloads::dreg::kUserBuf,
               0x3000'0000 + t.pid * 0x10'0000);
    sim::RunResult total;
    for (const auto &inv : e.profile().request) {
        kernel::PreparedSyscall prep;
        {
            Scope s(&log, "kernel.prepare");
            prep = e.executor().prepare(e.mainPid(), inv);
        }
        for (auto [r, v] : prep.regs)
            cpu.setReg(r, v);
        cpu.setReg(workloads::dreg::kPadIters, e.profile().userPadIters);
        sim::RunResult r;
        {
            Scope s(&log, "sim.run");
            r = cpu.run(e.drivers().driverFor(inv.sys));
        }
        {
            Scope s(&log, "kernel.finish");
            e.executor().finish(e.mainPid(), inv);
        }
        total.cycles += r.cycles;
        total.instructions += r.instructions;
        uops += r.instructions;
    }
    return total;
}

/** Experiment::run driven from public calls (see tracedRequest). */
RunResult
tracedRun(Experiment &e, SpanLog &log, std::uint64_t &uops)
{
    {
        Scope s(&log, "workloads.warmup");
        for (unsigned i = 0; i < kWarmup; ++i)
            tracedRequest(e, log, uops);
    }
    Scope s(&log, "workloads.run");
    sim::Pipeline &cpu = e.pipeline();
    sim::StatSet &st = cpu.stats();
    st.clear();
    cpu.leakLedger().reset();
    cpu.resetSampling();
    if (auto *p = e.perspectivePolicy()) {
        p->isvCache().resetAccounting();
        p->dsvCache().resetAccounting();
        p->resetDsvmtMruStats();
    }
    RunResult out;
    for (unsigned i = 0; i < kIterations; ++i)
        out.cycles += tracedRequest(e, log, uops).cycles;
    out.instructions = st.get("committed");
    out.kernelInstructions = st.get("committed.kernel");
    if (auto *p = e.perspectivePolicy()) {
        out.isvCacheHitRate = p->isvCache().hitRate();
        out.dsvCacheHitRate = p->dsvCache().hitRate();
    }
    out.stats = st;
    out.leakage = cpu.leakLedger().summary();
    const sim::SamplingParams &sp = cpu.params().sampling;
    if (cpu.sampledMode() &&
        sp.windowInsts != sim::SamplingParams::kInfiniteWindow) {
        if (cpu.sampler().windows() == 0)
            cpu.flushSampleWindow();
        const sim::SamplingEstimator &est = cpu.sampler();
        if (est.windows() > 0) {
            out.sampling.active = true;
            out.sampling.windows = est.windows();
            out.sampling.sampledInsts = est.sampledInsts();
            out.sampling.relError = est.relError();
            out.cycles = static_cast<sim::Cycle>(std::llround(
                est.cpiMean() * static_cast<double>(out.instructions)));
        }
    }
    return out;
}

/** Build and run one grid cell on the calling thread; traced when
 * @p log is set. */
RunResult
gridCellRun(const WorkloadProfile &p, Scheme s, std::uint64_t seed,
            Tracer *tr, SpanLog *log)
{
    std::optional<Experiment> e;
    {
        Scope b(log, "workloads.build");
        e.emplace(p, s, seed);
    }
    if (!log)
        return e->run(kIterations, kWarmup);
    std::uint64_t uops = 0;
    RunResult r = tracedRun(*e, *log, uops);
    std::lock_guard<std::mutex> g(tr->mu);
    tr->runUops += uops;
    return r;
}

bool
isPerspective(const std::string &scheme)
{
    return scheme.rfind("perspective", 0) == 0;
}

std::vector<WorkloadProfile>
limited(std::vector<WorkloadProfile> v, std::size_t limit)
{
    if (limit && v.size() > limit)
        v.resize(limit);
    return v;
}

/** lebench-sampled (and its exact check pass): 19 profiles x 9
 * schemes, one thread, straight through Experiment. */
Round
lebenchRound(std::uint64_t seed, std::size_t limit, Tracer *tr)
{
    Round round;
    SpanLog *log = tr ? &tr->log : nullptr;
    std::int64_t t0 = nowNs();
    for (const WorkloadProfile &p :
         limited(workloads::lebenchSuite(), limit)) {
        for (Scheme s : workloads::allSchemes()) {
            Cell c{p.name, workloads::schemeName(s), "", {}, "", 0, 0,
                   ""};
            std::int64_t c0 = nowNs();
            if (tr)
                tr->log.setCell(tr->nextCell++);
            try {
                Scope cs(log, "bench.cell");
                c.sim = countsOf(gridCellRun(p, s, seed, tr, log),
                                 isPerspective(c.scheme));
            } catch (const std::exception &ex) {
                c.failure = std::string("threw: ") + ex.what();
            }
            c.hostMs = (nowNs() - c0) / 1e6;
            round.cells.push_back(std::move(c));
        }
    }
    round.wallS = (nowNs() - t0) / 1e9;
    return round;
}

/** apps-sweep: 4 apps x 9 schemes through SweepRunner, 2 workers, no
 * cell cache, then the sweep JSON emission. */
Round
appsRound(std::uint64_t seed, std::size_t limit, Tracer *tr)
{
    Round round;
    SpanLog *log = tr ? &tr->log : nullptr;
    harness::SweepOptions o;
    o.benchName = "perfbench-apps-sweep";
    o.jobs = kAppsJobs;
    o.noCache = true;

    std::int32_t runSpan = -1;
    std::vector<harness::SweepCell> cells;
    for (const WorkloadProfile &p :
         limited(workloads::datacenterSuite(), limit)) {
        for (Scheme s : workloads::allSchemes()) {
            harness::SweepCell c;
            c.profile = p;
            c.scheme = s;
            c.seed = seed;
            c.iterations = kIterations;
            c.warmup = kWarmup;
            if (tr) {
                c.body = [tr, &runSpan](const harness::SweepCell &cell) {
                    SpanLog local(harness::ThreadPool::currentWorker() +
                                  1);
                    local.setCell(tr->nextCell++);
                    RunResult r;
                    {
                        Scope cs(&local, "bench.cell");
                        r = gridCellRun(cell.profile, cell.scheme,
                                        cell.seed, tr, &local);
                    }
                    std::lock_guard<std::mutex> g(tr->mu);
                    tr->log.absorb(local, runSpan);
                    return r;
                };
            }
            cells.push_back(std::move(c));
        }
    }

    std::int64_t t0 = nowNs();
    harness::SweepRunner sweep(o);
    std::vector<harness::CellResult> results;
    if (log) {
        runSpan = log->open("harness.run");
        results = sweep.run(cells);
        log->close();
    } else {
        results = sweep.run(cells);
    }
    std::int64_t t1 = nowNs();
    Json doc;
    {
        Scope s(log, "harness.emit");
        doc = sweep.toJson();
        doc.dump();
    }
    std::int64_t t2 = nowNs();
    round.wallS = (t2 - t0) / 1e9;

    const Json &sch = doc.at("schedule");
    round.sched.used = true;
    round.sched.makespan = sch.at("makespan").asDouble();
    round.sched.ideal = sch.at("ideal_makespan").asDouble();
    for (const Json &b : sch.at("worker_busy").asArray()) {
        round.sched.busySum += b.asDouble();
        round.sched.busyMax = std::max(round.sched.busyMax, b.asDouble());
    }
    round.sched.workers =
        static_cast<unsigned>(sch.at("worker_busy").asArray().size());
    round.sched.emitS = (t2 - t1) / 1e9;

    for (const harness::CellResult &r : results) {
        Cell c{r.workload, r.scheme, "", {}, "", 0, 0, ""};
        c.hostMs = r.wallSeconds * 1e3;
        if (!r.ok)
            c.failure = "threw: " + r.error;
        else
            c.sim = countsOf(r.result, isPerspective(r.scheme));
        round.cells.push_back(std::move(c));
    }
    return round;
}

/** The schemes of bench_security's PoC matrix, in its column order. */
const std::vector<Scheme> &
securitySchemes()
{
    static const std::vector<Scheme> s = {
        Scheme::Unsafe,      Scheme::Spot,  Scheme::SpecCfi,
        Scheme::InvisiSpec,  Scheme::Fence, Scheme::Dom,
        Scheme::Stt,         Scheme::Perspective,
        Scheme::PerspectivePlusPlus};
    return s;
}

/** EXPERIMENTS.md §8.1/8.2: which PoC leaks under which scheme
 * (columns as securitySchemes()). */
bool
expectLeak(attacks::PocKind k, Scheme s)
{
    using attacks::PocKind;
    if (s == Scheme::Unsafe)
        return true;
    switch (k) {
      case PocKind::ActiveV1Ioctl:
      case PocKind::ActiveV1Ptrace:
      case PocKind::ActiveV1Bpf:
        return s == Scheme::Spot || s == Scheme::SpecCfi;
      case PocKind::PassiveV2:
        return s == Scheme::SpecCfi;
      case PocKind::PassiveRetbleed:
        return s == Scheme::Spot;
    }
    return false;
}

/** Simulated counts left on the pipeline after an attack cell. */
Counts
attackCounts(Experiment &e)
{
    Counts c = countsOf(e.pipeline().stats(),
                        e.pipeline().leakLedger().summary());
    c.cycles = e.pipeline().now();
    if (auto *p = e.perspectivePolicy()) {
        c.perspective = true;
        c.isvHit = p->isvCache().hitRate();
        c.dsvHit = p->dsvCache().hitRate();
    }
    return c;
}

std::string
raceOutcome(const attacks::RaceResult &r)
{
    std::ostringstream o;
    o << r.leakedBeforeUpdate << r.leakedInWindow << r.leakedAfterUpdate
      << r.leakedAfterAudit << " lat=" << r.updateLatency
      << " stale=" << r.staleAllows;
    return o.str();
}

/** Race contracts (bench_pliability's header, tests/attacks). */
std::string
raceContract(const std::string &which, sim::Cycle budget,
             const attacks::RaceResult &r, const Counts &c)
{
    if (which == "revocation") {
        if (!r.leakedInWindow || r.staleAllows == 0)
            return "revocation window did not leak";
        if (r.leakedAfterUpdate || r.updateLatency == 0)
            return "revoked data reachable after the shootdown";
    } else if (which == "module-load") {
        if (r.leakedBeforeUpdate || r.leakedInWindow)
            return "module-load gap leaked before the ISV update";
        if (!r.leakedAfterUpdate || r.leakedAfterAudit)
            return "ISV++ audit did not re-close the extension";
        if (r.updateLatency < core::kIsvUpdateBase)
            return "module-load latency below the model floor";
    } else if (which == "fleet-flip") {
        if (!r.leakedBeforeUpdate || r.leakedAfterUpdate)
            return "fleet flip did not kill the lax leak";
        if (r.updateLatency !=
            core::kFleetFlipBase + 2 * core::kFleetFlipPerContext)
            return "fleet-flip latency off the model";
    } else { // revocation-budget curve
        if (r.leakedAfterUpdate)
            return "revoked data reachable after the shootdown";
        if (budget == 0 && c.transmissions != 0)
            return "zero budget transmitted";
    }
    return "";
}

/** attack-races: 5 PoCs x 9 schemes, the 3 races, the budget curve. */
Round
attackRound(std::uint64_t seed, std::size_t limit, Tracer *tr)
{
    Round round;
    SpanLog *log = tr ? &tr->log : nullptr;
    std::int64_t t0 = nowNs();
    // One cell: build the PoC stack under scheme s, then let body
    // attack it.
    auto cell = [&](Scheme s, std::string tag,
                    const std::function<void(Experiment &, Cell &)> &body) {
        Cell c{"poc-workload", workloads::schemeName(s), std::move(tag),
               {}, "", 0, 0, ""};
        std::int64_t c0 = nowNs();
        if (tr)
            tr->log.setCell(tr->nextCell++);
        try {
            Scope cs(log, "bench.cell");
            std::optional<Experiment> e;
            {
                Scope b(log, "workloads.build");
                e.emplace(attacks::pocProfile(), s, seed);
            }
            body(*e, c);
        } catch (const std::exception &ex) {
            c.failure = std::string("threw: ") + ex.what();
        }
        c.hostMs = (nowNs() - c0) / 1e6;
        round.cells.push_back(std::move(c));
    };

    std::vector<attacks::PocKind> pocs = attacks::allPocs();
    if (limit && pocs.size() > limit)
        pocs.resize(limit);
    for (attacks::PocKind k : pocs) {
        for (Scheme s : securitySchemes()) {
            cell(s, "poc:" + std::string(attacks::pocName(k)),
                 [&](Experiment &e, Cell &c) {
                     attacks::PocResult r;
                     {
                         Scope a(log, "attacks.poc");
                         r = attacks::runPoc(k, e);
                     }
                     c.sim = attackCounts(e);
                     c.leaks = r.leaked;
                     c.outcome = r.leaked ? "LEAKED" : "blocked";
                     if (r.leaked != expectLeak(k, s))
                         c.failure = std::string("expected ") +
                                     (expectLeak(k, s) ? "LEAKED"
                                                       : "blocked") +
                                     ", got " + c.outcome;
                 });
        }
    }

    using RaceFn = attacks::RaceResult (*)(Experiment &);
    const std::pair<const char *, RaceFn> races[] = {
        {"revocation", attacks::raceRevocation},
        {"module-load", attacks::raceModuleLoad},
        {"fleet-flip", attacks::raceFleetFlip}};
    auto raceBody = [&](const std::string &which, sim::Cycle budget,
                        const std::function<attacks::RaceResult(
                            Experiment &)> &fn) {
        return [&, which, budget, fn](Experiment &e, Cell &c) {
            attacks::RaceResult r;
            {
                Scope u(log, "core.update");
                r = fn(e);
            }
            c.sim = attackCounts(e);
            c.leaks = r.leakedBeforeUpdate + r.leakedInWindow +
                      r.leakedAfterUpdate + r.leakedAfterAudit;
            c.outcome = raceOutcome(r);
            c.failure = raceContract(which, budget, r, c.sim);
        };
    };
    for (const auto &[name, fn] : races)
        cell(Scheme::Perspective, std::string("race:") + name,
             raceBody(name, 0, fn));
    for (sim::Cycle b : kBudgets)
        cell(Scheme::Perspective, "budget:" + std::to_string(b),
             raceBody("budget", b, [b](Experiment &e) {
                 return attacks::raceRevocation(e, b);
             }));

    round.wallS = (nowNs() - t0) / 1e9;
    return round;
}

// ---------------------------------------------------------------------
// View-build replay

/**
 * Re-run the ISV build the Experiment constructor did internally,
 * through the same public calls, so kernel.trace (interpreted tracing)
 * and core.view_build (the builders and the ISV++ audit) get spans:
 * the constructor runs them out of reach of the benchmark. Returns an
 * error when the replayed view differs from the constructor's.
 */
std::string
replayViewBuild(Experiment &e, SpanLog &log)
{
    const core::IsvView *built = e.isvView();
    if (!built)
        return "";
    std::optional<core::IsvView> view;
    if (e.scheme() == Scheme::PerspectiveStatic) {
        Scope s(&log, "core.view_build");
        std::set<kernel::Sys> sys;
        for (kernel::Sys x : workloads::staticSyscallSet(e.profile()))
            sys.insert(x);
        view.emplace(core::StaticIsvBuilder(e.image()).build(sys));
    } else {
        core::DynamicIsvBuilder builder(e.image());
        auto observe = [&](sim::FuncId f) { builder.observe(f); };
        {
            Scope s(&log, "kernel.trace");
            kernel::Interpreter in(e.image().program(), e.memory());
            for (const auto &inv : workloads::processStartupTrace()) {
                auto prep = e.executor().prepare(e.mainPid(), inv);
                in.reset();
                for (auto [r, v] : prep.regs)
                    in.setReg(r, v);
                in.run(e.image().entryOf(inv.sys), 2'000'000, observe);
                e.executor().finish(e.mainPid(), inv);
            }
            for (unsigned i = 0; i < 3; ++i)
                e.traceRequest(observe);
        }
        Scope s(&log, "core.view_build");
        view.emplace(builder.build());
        if (e.scheme() == Scheme::PerspectivePlusPlus) {
            std::vector<sim::FuncId> vulnerable;
            for (sim::FuncId f : e.image().functionsWithGadgets())
                if (view->containsFunction(f))
                    vulnerable.push_back(f);
            core::applyAudit(*view, vulnerable);
        }
    }
    if (view->functions() != built->functions())
        return "replayed ISV differs from the constructor's (" +
               std::to_string(view->numFunctions()) + " vs " +
               std::to_string(built->numFunctions()) + " functions)";
    return "";
}

/** Replay the view build of every Perspective cell of one round's
 * grid (for attack-races: the perspective and perspective++ column of
 * each PoC, and every race cell). Returns one entry per replayed
 * cell: empty when the replayed view matched, else the error. */
std::vector<std::string>
replayPass(const std::string &workload, std::uint64_t seed,
           std::size_t limit, SpanLog &log)
{
    std::vector<std::pair<WorkloadProfile, Scheme>> grid;
    const Scheme persp[] = {Scheme::PerspectiveStatic,
                            Scheme::Perspective,
                            Scheme::PerspectivePlusPlus};
    if (workload == "attack-races") {
        std::size_t pocs = attacks::allPocs().size();
        if (limit && pocs > limit)
            pocs = limit;
        for (std::size_t i = 0; i < pocs; ++i) {
            grid.push_back({attacks::pocProfile(), Scheme::Perspective});
            grid.push_back(
                {attacks::pocProfile(), Scheme::PerspectivePlusPlus});
        }
        for (std::size_t i = 0; i < 3 + std::size(kBudgets); ++i)
            grid.push_back({attacks::pocProfile(), Scheme::Perspective});
    } else {
        auto suite = workload == "apps-sweep"
                         ? workloads::datacenterSuite()
                         : workloads::lebenchSuite();
        for (const WorkloadProfile &p : limited(suite, limit))
            for (Scheme s : persp)
                grid.push_back({p, s});
    }
    std::vector<std::string> out;
    for (const auto &[p, s] : grid) {
        Experiment e(p, s, seed);
        std::string err = replayViewBuild(e, log);
        out.push_back(err.empty() ? err
                                  : p.name + "/" +
                                        workloads::schemeName(s) + ": " +
                                        err);
    }
    return out;
}

// ---------------------------------------------------------------------
// Checks

/** Per-scheme geomean of cycles normalized to unsafe, over the
 * workloads of @p cells (bench_report's schemeOverheads). */
std::map<std::string, double>
schemeOverheads(const std::vector<Cell> &cells)
{
    std::map<std::string, double> unsafe;
    for (const Cell &c : cells)
        if (c.scheme == "unsafe" && c.sim.cycles > 0)
            unsafe[c.workload] = static_cast<double>(c.sim.cycles);
    std::map<std::string, std::vector<double>> ratios;
    for (const Cell &c : cells) {
        auto u = unsafe.find(c.workload);
        if (c.scheme != "unsafe" && u != unsafe.end() && c.sim.cycles)
            ratios[c.scheme].push_back(c.sim.cycles / u->second);
    }
    std::map<std::string, double> out;
    for (const auto &[s, r] : ratios)
        out[s] = harness::geomean(r);
    return out;
}

/** Mean relative error (%) of the per-scheme overheads against the
 * figures bench_lebench / bench_apps print for the paper. Apps compare
 * normalized throughput, the inverse of the cycle overhead. */
double
paperErrPct(const std::vector<Cell> &cells, bool apps)
{
    static const std::map<std::string, double> lebench = {
        {"fence", 1.475}, {"dom", 1.231}, {"stt", 1.037},
        {"spot", 1.145}, {"perspective-static", 1.041},
        {"perspective", 1.036}, {"perspective++", 1.035}};
    static const std::map<std::string, double> appsRps = {
        {"fence", 0.943}, {"dom", 0.983}, {"stt", 0.996},
        {"spot", 0.95}, {"perspective-static", 0.987},
        {"perspective", 0.988}, {"perspective++", 0.988}};
    const auto &paper = apps ? appsRps : lebench;
    auto ov = schemeOverheads(cells);
    double sum = 0;
    unsigned n = 0;
    for (const auto &[s, p] : paper) {
        auto it = ov.find(s);
        if (it == ov.end())
            continue;
        double m = apps ? 1.0 / it->second : it->second;
        sum += std::abs(m - p) / p;
        ++n;
    }
    return n ? 100.0 * sum / n : 0.0;
}

/** Flag every cell whose simulated result differs from @p ref's. */
void
checkSame(std::vector<Cell> &cells, const std::vector<Cell> &ref,
          const char *what)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Cell &c = cells[i];
        if (!c.failure.empty())
            continue;
        if (i >= ref.size() || ref[i].key() != c.key() ||
            !c.sim.sameAs(ref[i].sim) || c.outcome != ref[i].outcome)
            c.failure = std::string("differs from ") + what;
    }
}

/** At seed 42, exact LEBench cells must equal the shared-boot detailed
 * cells of the committed simspeed baseline. */
void
checkBaseline(std::vector<Cell> &cells, const std::string &path)
{
    std::string err;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> base;
    try {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot open " + path);
        std::stringstream buf;
        buf << in.rdbuf();
        Json::ParseOptions po;
        po.skipObjectKeys = {"histograms", "timeseries", "stats",
                             "leakage", "provenance"};
        Json doc = Json::parse(buf.str(), po);
        for (const Json &c : doc.at("cells").asArray()) {
            if (!c.contains("tags") || !c.at("tags").contains("boot"))
                continue;
            const Json &tags = c.at("tags");
            if (tags.at("boot").asString() != "shared" ||
                tags.at("exec").asString() != "detailed" ||
                c.at("seed").asUint() != 42 ||
                c.at("iterations").asUint() != kIterations ||
                c.at("warmup").asUint() != kWarmup)
                continue;
            base[c.at("workload").asString() + "/" +
                 c.at("scheme").asString()] = {
                c.at("cycles").asUint(), c.at("instructions").asUint()};
        }
    } catch (const std::exception &ex) {
        err = ex.what();
    }
    for (Cell &c : cells) {
        if (!c.failure.empty())
            continue;
        auto it = base.find(c.key());
        if (!err.empty())
            c.failure = "baseline unreadable: " + err;
        else if (it == base.end())
            c.failure = "no baseline cell";
        else if (it->second.first != c.sim.cycles ||
                 it->second.second != c.sim.insts)
            c.failure = "differs from the simspeed baseline";
    }
}

// ---------------------------------------------------------------------
// Metrics

/** Nearest-rank quantile: the smallest sample with at least a share
 * @p q of the samples at or below it, so every figure is one that was
 * measured (an interpolated median of apps-sweep's cells would fall in
 * the gap between its small and large cells and swing with both). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0;
}

struct Metric
{
    std::string name, unit;
    double value;
};

/** The simulated counts of one round, summed. */
struct Totals
{
    Counts sum;
    double ci95Sum = 0, isvHit = 0, dsvHit = 0;
    unsigned sampledCells = 0, perspCells = 0, leaks = 0;
};

Totals
totalsOf(const std::vector<Cell> &cells)
{
    Totals out;
    Counts &t = out.sum;
    for (const Cell &c : cells) {
        const Counts &s = c.sim;
        t.cycles += s.cycles;
        t.insts += s.insts;
        t.fetched += s.fetched;
        t.squashed += s.squashed;
        t.mispredicts += s.mispredicts;
        t.l1dAcc += s.l1dAcc;
        t.l1dMiss += s.l1dMiss;
        t.l1iAcc += s.l1iAcc;
        t.l1iMiss += s.l1iMiss;
        t.l2Miss += s.l2Miss;
        t.sbHits += s.sbHits;
        t.sbMiss += s.sbMiss;
        t.gateChecks += s.gateChecks;
        t.gateElided += s.gateElided;
        t.isvFences += s.isvFences;
        t.dsvFences += s.dsvFences;
        t.secretLoads += s.secretLoads;
        t.transmissions += s.transmissions;
        t.windows += s.windows;
        t.sampledInsts += s.sampledInsts;
        // Only detailed execution fetches; in sampled cells that is
        // the detailed windows.
        t.detailedInsts += s.sampled ? s.sampledInsts : s.insts;
        if (s.sampled) {
            out.ci95Sum += s.relErr;
            ++out.sampledCells;
        }
        if (s.perspective) {
            out.isvHit += s.isvHit;
            out.dsvHit += s.dsvHit;
            ++out.perspCells;
        }
        out.leaks += c.leaks;
    }
    return out;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// The run

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 20;
    bool trace = false;
    std::string traceOut;
    std::size_t limit = 0; ///< profiles / PoCs per grid; 0 = all
};

struct Outcome
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    std::vector<Span> spans; ///< traced run only
};

Round
runRound(const Options &o, Tracer *tr)
{
    if (o.workload == "apps-sweep")
        return appsRound(o.seed, o.limit, tr);
    if (o.workload == "attack-races")
        return attackRound(o.seed, o.limit, tr);
    return lebenchRound(o.seed, o.limit, tr);
}

/** Boot plus the first stack build, from an empty boot cache. */
void
setupOnce(const Options &o, SpanLog *log)
{
    workloads::BootImage::dropCache();
    std::shared_ptr<workloads::BootImage> boot;
    {
        Scope s(log, "workloads.boot");
        boot = workloads::BootImage::forSeed(o.seed);
    }
    {
        Scope s(log, "workloads.build");
        const WorkloadProfile p =
            o.workload == "apps-sweep"     ? workloads::datacenterSuite()[0]
            : o.workload == "attack-races" ? attacks::pocProfile()
                                           : workloads::lebenchSuite()[0];
        Experiment e(p, Scheme::Unsafe, o.seed);
    }
}

/** Run this program again with --setup-once and time it from the
 * spawn to its "setup done" line: process start, static initialisers,
 * boot and the first stack build. Seconds; negative when the copy
 * failed. */
double
spawnedSetup(const Options &o)
{
    int fd[2];
    if (pipe(fd) != 0)
        return -1;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fd[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fd[0]);
    posix_spawn_file_actions_addclose(&fa, fd[1]);
    const std::string seed = std::to_string(o.seed);
    const char *argv[] = {"perfbench", "--setup-once",   "--workload",
                          o.workload.c_str(), "--seed", seed.c_str(),
                          nullptr};
    const std::int64_t t0 = nowNs();
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                               const_cast<char **>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fd[1]);
    double s = -1;
    if (rc == 0) {
        std::string line;
        char c;
        while (read(fd[0], &c, 1) == 1 && c != '\n')
            line += c;
        s = (nowNs() - t0) / 1e9;
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (line != "setup done" || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            s = -1;
    }
    close(fd[0]);
    return s;
}

Outcome
runBenchmark(const Options &o)
{
    const bool sampled = o.workload == "lebench-sampled";
    pinEnvironment(sampled);
    std::printf("settings: workload=%s seed=%llu seconds=%g trace=%d "
                "sampling=%s boot_snapshot=%s cell_cache=off "
                "sweep_jobs=%u iterations=%u warmup=%u\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                o.seconds, o.trace ? 1 : 0,
                sim::SamplingParams::fromEnv().spec().c_str(),
                workloads::BootImage::snapshotEnabled() ? "on" : "off",
                o.workload == "apps-sweep" ? kAppsJobs : 1, kIterations,
                kWarmup);

    // setup_s is timed in fresh copies of this program, so it counts
    // process start; the in-process set-ups warm the boot cache and
    // give workloads.boot_ms.
    Outcome out;
    std::vector<double> setups;
    if (!o.trace) {
        for (unsigned i = 0; i < kSetupReps; ++i) {
            const double s = spawnedSetup(o);
            ++out.attempted;
            if (s < 0) {
                ++out.failed;
                out.failures.push_back("set-up copy of the program failed");
            } else {
                setups.push_back(s);
            }
        }
    }
    SpanLog setupLog;
    for (unsigned i = 0; i < kSetupReps; ++i)
        setupOnce(o, &setupLog);

    // Untraced rounds give the end-to-end figures. A traced run
    // alternates them with traced rounds, so drift on the host does
    // not bias the trace overhead; they are also the reference of the
    // traced-vs-untraced cycle check.
    // The one-thread workloads move to the next CPU each round, so the
    // best time of a cell (below) samples every core, not only the one
    // the scheduler happened to leave the thread on.
    std::vector<Round> plain, traced;
    Tracer tracer;
    cpu_set_t allowed;
    const bool rotate = o.workload != "apps-sweep" &&
                        sched_getaffinity(0, sizeof allowed, &allowed) == 0;
    std::vector<int> cpus;
    for (int c = 0; rotate && c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    // A round starts only when one as long as the last still ends in
    // time, so a run takes --seconds, not up to a round more.
    const std::int64_t end =
        nowNs() + static_cast<std::int64_t>(o.seconds * 1e9);
    std::int64_t last = 0;
    do {
        const std::int64_t r0 = nowNs();
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[plain.size() % cpus.size()], &one);
            sched_setaffinity(0, sizeof one, &one);
        }
        plain.push_back(runRound(o, nullptr));
        if (o.trace)
            traced.push_back(runRound(o, &tracer));
        last = nowNs() - r0;
    } while ((!o.trace && plain.size() < 2) || nowNs() + last <= end);
    if (!cpus.empty())
        sched_setaffinity(0, sizeof allowed, &allowed);
    const double rssMb = peakRssMb();

    // Checks. Round 0 is the reference every other round must equal.
    std::vector<Cell> &ref = plain[0].cells;
    for (std::size_t i = 1; i < plain.size(); ++i)
        checkSame(plain[i].cells, ref, "round 0");
    for (Round &r : traced)
        checkSame(r.cells, ref, "the untraced run");

    // lebench-sampled runs its grid once more in exact mode, untimed:
    // every scheme's sampled overhead must be within the gate of the
    // exact one, and at seed 42 the exact cells must match the
    // committed baseline.
    double sampleErr = 0;
    std::vector<Cell> exactRef;
    if (sampled) {
        pinEnvironment(false);
        exactRef = lebenchRound(o.seed, o.limit, nullptr).cells;
        pinEnvironment(true);
        if (o.seed == 42)
            checkBaseline(exactRef, kBaseline);
        auto ex = schemeOverheads(exactRef);
        auto sm = schemeOverheads(ref);
        for (const auto &[s, e] : ex) {
            double err = 100.0 * std::abs(sm[s] - e) / e;
            sampleErr = std::max(sampleErr, err);
            if (err > kSampleGatePct)
                for (Cell &c : ref)
                    if (c.scheme == s && c.failure.empty())
                        c.failure = "sampled overhead off exact by " +
                                    std::to_string(err) + "%";
        }
    }

    std::vector<std::string> replays;
    SpanLog replayLog;
    if (o.trace)
        replays = replayPass(o.workload, o.seed, o.limit, replayLog);

    auto tally = [&](const std::vector<Cell> &cells) {
        for (const Cell &c : cells) {
            ++out.attempted;
            if (!c.failure.empty()) {
                ++out.failed;
                if (out.failures.size() < 20)
                    out.failures.push_back(c.key() + ": " + c.failure);
            }
        }
    };
    for (const Round &r : plain)
        tally(r.cells);
    for (const Round &r : traced)
        tally(r.cells);
    tally(exactRef);
    for (const std::string &err : replays) {
        ++out.attempted;
        if (!err.empty()) {
            ++out.failed;
            if (out.failures.size() < 20)
                out.failures.push_back(err);
        }
    }

    // A core of a shared host can run 1.4x slower for seconds at a
    // time, each core on its own schedule, so a median over rounds
    // follows whichever phase a run happened to meet. The one-thread
    // workloads therefore time each cell by its best run over the
    // rounds (which ran on every core in turn): wall_s is the sum of
    // those, and the cell percentiles are taken over them. apps-sweep
    // keeps two workers busy, so its round is not a sum of cells: it
    // reports the median round, and its median cell is taken per round
    // and then over rounds (18 small and 18 large cells leave a gap a
    // pooled median falls in); its p95 pools every round.
    std::vector<double> walls, mips, cellP50, cellMs;
    std::vector<double> best(ref.size(), INFINITY);
    std::uint64_t roundInsts = 0;
    for (const Round &r : plain) {
        walls.push_back(r.wallS);
        std::uint64_t insts = 0;
        std::vector<double> ms;
        for (std::size_t i = 0; i < r.cells.size(); ++i) {
            insts += r.cells[i].sim.insts;
            ms.push_back(r.cells[i].hostMs);
            if (i < best.size())
                best[i] = std::min(best[i], r.cells[i].hostMs);
        }
        roundInsts = insts;
        mips.push_back(insts / r.wallS / 1e6);
        cellP50.push_back(median(ms));
        cellMs.insert(cellMs.end(), ms.begin(), ms.end());
    }
    std::printf("summary: rounds=%zu cells=%zu attempted=%llu "
                "failed=%llu round_walls_s=",
                plain.size() + traced.size(), cellMs.size(),
                (unsigned long long)out.attempted,
                (unsigned long long)out.failed);
    for (const Round &r : plain)
        std::printf("%s%.3f", &r == &plain[0] ? "" : ",", r.wallS);
    std::printf("\n");

    if (!o.trace) {
        double wallS = median(walls), mipsV = median(mips);
        double p50 = median(cellP50), p95 = quantile(cellMs, 0.95);
        if (o.workload != "apps-sweep") {
            wallS = 0;
            for (double ms : best)
                wallS += ms / 1e3;
            mipsV = roundInsts / wallS / 1e6;
            p50 = median(best);
            p95 = quantile(best, 0.95);
        }
        out.metrics = {
            {"setup_s", "s", median(setups)},
            {"wall_s", "s", wallS},
            {"mips", "MIPS", mipsV},
            {"cell_ms_p50", "ms", p50},
            {"cell_ms_p95", "ms", p95},
            {"peak_rss_mb", "MB", rssMb},
        };
        return out;
    }

    // Per-layer figures from the traced rounds. Coverage counts only
    // the spans a per-layer metric reads, not the wrappers around them
    // (harness.run, workloads.run, bench.cell), so time no layer metric
    // accounts for shows as uncovered.
    static const std::set<std::string> kLayerSpans = {
        "workloads.build", "workloads.warmup", "kernel.prepare",
        "kernel.finish",   "sim.run",          "core.update",
        "attacks.poc",     "harness.emit"};
    const std::vector<Span> &spans = tracer.log.spans();
    std::vector<std::int64_t> self = perfbench::selfTimes(spans);
    std::map<std::string, double> selfMs, count;
    std::vector<std::pair<std::int64_t, std::int64_t>> layerIv;
    double runNs = 0, warmupMs = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::string n = spans[i].name;
        selfMs[n] += self[i] / 1e6;
        count[n] += 1;
        if (n == "sim.run")
            runNs += spans[i].end - spans[i].start;
        if (n == "workloads.warmup")
            warmupMs += (spans[i].end - spans[i].start) / 1e6;
        if (kLayerSpans.count(n))
            layerIv.emplace_back(spans[i].start, spans[i].end);
    }
    std::map<std::string, double> replayMs;
    for (const Span &s : replayLog.spans())
        replayMs[s.name] += (s.end - s.start) / 1e6;
    std::vector<double> boots;
    for (const Span &s : setupLog.spans())
        if (std::string(s.name) == "workloads.boot")
            boots.push_back((s.end - s.start) / 1e6);

    const double n = static_cast<double>(traced.size());
    std::vector<double> tracedWalls;
    double tracedWall = 0;
    Sched sch;
    for (const Round &r : traced) {
        tracedWalls.push_back(r.wallS);
        tracedWall += r.wallS;
        sch.used = r.sched.used;
        sch.makespan += r.sched.makespan;
        sch.ideal += r.sched.ideal;
        sch.busySum += r.sched.busySum;
        sch.busyMax += r.sched.busyMax;
        sch.workers = r.sched.workers;
        sch.emitS += r.sched.emitS;
    }
    auto perRound = [&](const char *name) { return selfMs[name] / n; };
    auto perCallUs = [&](const char *name) {
        return ratio(selfMs[name] * 1e3, count[name]);
    };

    const Totals tot = totalsOf(ref);
    const Counts &t = tot.sum;
    const double paperErr =
        sampled || o.workload == "apps-sweep"
            ? paperErrPct(ref, o.workload == "apps-sweep")
            : 0.0;

    const double viewBuild = replayMs["core.view_build"];
    const double trace = replayMs["kernel.trace"];
    out.metrics = {
        {"workloads.boot_ms", "ms", median(boots)},
        {"workloads.build_ms", "ms",
         perRound("workloads.build") - viewBuild - trace},
        {"workloads.warmup_ms", "ms", warmupMs / n},
        {"core.view_build_ms", "ms", viewBuild},
        {"core.update_ms", "ms", perRound("core.update")},
        {"core.isv_hit_ratio", "ratio", ratio(tot.isvHit, tot.perspCells)},
        {"core.dsv_hit_ratio", "ratio", ratio(tot.dsvHit, tot.perspCells)},
        {"core.isv_fences_per_kuop", "1/kuop",
         1e3 * ratio(t.isvFences, t.insts)},
        {"core.dsv_fences_per_kuop", "1/kuop",
         1e3 * ratio(t.dsvFences, t.insts)},
        {"kernel.prepare_us", "us", perCallUs("kernel.prepare")},
        {"kernel.finish_us", "us", perCallUs("kernel.finish")},
        {"kernel.trace_ms", "ms", trace},
        {"sim.run_ms", "ms", perRound("sim.run")},
        {"sim.ns_per_uop", "ns", ratio(runNs, tracer.runUops)},
        {"sim.useful_uop_ratio", "ratio", ratio(t.detailedInsts, t.fetched)},
        {"sim.squashed_uops", "count", static_cast<double>(t.squashed)},
        {"sim.mispredicts", "count", static_cast<double>(t.mispredicts)},
        {"sim.l1d_miss_ratio", "ratio", ratio(t.l1dMiss, t.l1dAcc)},
        {"sim.l1i_miss_ratio", "ratio", ratio(t.l1iMiss, t.l1iAcc)},
        {"sim.l2_data_misses", "count", static_cast<double>(t.l2Miss)},
        {"sim.sb_hit_ratio", "ratio",
         ratio(t.sbHits, t.sbHits + t.sbMiss)},
        {"sim.gate_elided_ratio", "ratio",
         ratio(t.gateElided, t.gateElided + t.gateChecks)},
        {"sim.cpi", "cycles/uop", ratio(t.cycles, t.insts)},
        {"sim.ledger_secret_loads", "count",
         static_cast<double>(t.secretLoads)},
        {"sim.ledger_transmissions", "count",
         static_cast<double>(t.transmissions)},
        {"sim.sampled_insts_ratio", "ratio",
         ratio(t.sampledInsts, t.insts)},
        {"sim.sample_windows", "count", static_cast<double>(t.windows)},
        {"sim.sample_ci95_pct", "%",
         100.0 * ratio(tot.ci95Sum, tot.sampledCells)},
        {"harness.makespan_ratio", "ratio", ratio(sch.makespan, sch.ideal)},
        {"harness.worker_busy_ratio", "ratio",
         ratio(sch.busySum, sch.workers * sch.makespan)},
        {"harness.overhead_ms", "ms",
         sch.used ? 1e3 * (sch.makespan - sch.busyMax) / n : 0.0},
        {"harness.emit_ms", "ms", sch.used ? 1e3 * sch.emitS / n : 0.0},
        {"attacks.poc_ms", "ms", perRound("attacks.poc")},
        {"attacks.leaks", "count", static_cast<double>(tot.leaks)},
        {"paper_err_pct", "%", paperErr},
        {"sample_err_pct", "%", sampleErr},
        {"bench.trace_overhead_pct", "%",
         100.0 * (median(tracedWalls) / median(walls) - 1.0)},
        {"bench.span_coverage_pct", "%",
         100.0 * ratio(perfbench::unionLength(layerIv) / 1e9, tracedWall)},
    };
    out.spans = spans;
    return out;
}

void
printResult(const Outcome &r)
{
    for (const std::string &f : r.failures)
        std::printf("FAILED %s\n", f.c_str());
    std::string line = "{\"correct\": ";
    line += r.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        line += (i ? ", " : "") + harness::jsonQuote(m.name) +
                ": {\"value\": " + buf +
                ", \"unit\": " + harness::jsonQuote(m.unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

bool
writeTrace(const std::vector<Span> &spans, const std::string &path)
{
    if (path.empty())
        return true;
    std::ofstream f(path);
    f << perfbench::chromeTrace(spans).dump();
    return static_cast<bool>(f);
}

// ---------------------------------------------------------------------
// Self-test

int
selfTest(const std::string &tracePath)
{
    int bad = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::printf("self-test %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
        bad += !ok;
    };

    // Self-time arithmetic on synthetic nested spans: a [0,100) parent
    // with overlapping children [10,30) and [20,50), a disjoint child
    // [60,70) that has its own child [62,65), and one child running
    // past the parent's end [90,120).
    std::vector<Span> s = {
        {"a", 0, 100, -1, 1, 0},  {"b", 10, 30, 0, 1, 0},
        {"c", 20, 50, 0, 1, 0},   {"d", 60, 70, 0, 1, 0},
        {"e", 62, 65, 3, 1, 0},   {"f", 90, 120, 0, 1, 1},
    };
    std::vector<std::int64_t> self = perfbench::selfTimes(s);
    expect(self == std::vector<std::int64_t>{40, 20, 30, 7, 3, 30},
           "self time = span minus the union of its children");
    expect(perfbench::unionLength({{0, 10}, {5, 15}, {20, 25}}) == 20,
           "interval union");

    // Traced and untraced runs agree cycle for cycle on a grid slice
    // of every workload, and every metric is emitted.
    std::vector<Span> all;
    for (const char *w : kWorkloads) {
        for (bool trace : {false, true}) {
            Options o;
            o.workload = w;
            o.seconds = 0;
            o.trace = trace;
            o.limit = std::string(w) == "attack-races" ? 1 : 2;
            Outcome r = runBenchmark(o);
            expect(r.failed == 0 && r.attempted > 0,
                   std::string(w) +
                       (trace ? " traced slice: cycles equal the "
                                "untraced run's, checks pass"
                              : " untraced slice: checks pass"));
            std::printf("metrics %s %d", w, trace ? 1 : 0);
            for (const Metric &m : r.metrics)
                std::printf(" %s:%s", m.name.c_str(), m.unit.c_str());
            std::printf("\n");
            all.insert(all.end(), r.spans.begin(), r.spans.end());
        }
    }
    expect(writeTrace(all, tracePath), "trace written to " + tracePath);
    pinEnvironment(false);
    return bad == 0 ? 0 : 1;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{lebench-sampled|apps-sweep|attack-races} "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--trace-out PATH]\n"
                 "       perfbench --self-test [--trace-out PATH]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool self = false, setupChild = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--trace-out")
                o.traceOut = value();
            else if (a == "--setup-once")
                setupChild = true;
            else if (a == "--self-test")
                self = true;
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (self)
        return selfTest(o.traceOut);
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  o.workload) == std::end(kWorkloads))
        usage(("unknown workload '" + o.workload + "'").c_str());
    if (!(o.seconds >= 0 && o.seconds <= 600))
        usage("--seconds must be within [0, 600]");

    if (setupChild) {
        pinEnvironment(o.workload == "lebench-sampled");
        setupOnce(o, nullptr);
        std::printf("setup done\n");
        std::fflush(stdout);
        return 0;
    }

    Outcome r = runBenchmark(o);
    if (o.trace && !writeTrace(r.spans, o.traceOut)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     o.traceOut.c_str());
        return 1;
    }
    printResult(r);
    return r.failed == 0 ? 0 : 1;
}
