/**
 * @file
 * Sweep-result comparison and regression reporting: reads one or
 * more sweep JSON files (emitted by any bench's --json flag), prints
 * a per-file summary, and — given a baseline file — a per-cell delta
 * report on the deterministic metrics (cycles, instructions,
 * fences, and every cell's stats counters, histograms, time series
 * and leakage block). Cells are matched by their provenance config
 * hash, so a reordered grid still lines up.
 *
 *   bench_report out.json                       # summarize
 *   bench_report out.json --baseline base.json  # per-cell deltas
 *   bench_report out.json --baseline base.json --check
 *       # exit 1 if any delta is non-zero (CI regression gate;
 *       # two runs of the same build must agree exactly)
 *
 * Throughput is reported separately from the deterministic metrics:
 * every summary and delta row carries a MIPS column (simulated
 * instructions / cell wall seconds), and --perf-baseline gates on
 * aggregate throughput with a tolerance (--perf-threshold, default
 * 0.80) instead of exact equality, because wall clock is noisy where
 * cycle counts are not.
 *
 *   bench_report out.json --perf-baseline base.json
 *       # exit 1 if aggregate MIPS < 0.80x the baseline's, or if
 *       # the two sweeps ran at different --jobs counts
 *
 * Sampled sweeps (PERSPECTIVE_SAMPLE, DESIGN §5.8) are statistical:
 * --check refuses files containing sampled cells, and
 * --accuracy-baseline instead gates each input's per-scheme mean
 * overhead (geomean of cycles normalized to the unsafe scheme,
 * matched by workload+scheme) against an exact sweep within a
 * relative-error threshold (--accuracy-threshold, default 0.02):
 *
 *   bench_report sampled.json --accuracy-baseline exact.json
 *
 * Shard recombination: sweeps run with `--shard K/N` each emit a
 * partial JSON; --merge stitches them back into one complete sweep
 * document (cells restored to grid order), refusing duplicated,
 * overlapping, or missing shards:
 *
 *   bench_report --merge merged.json shard1.json shard2.json
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/json.hh"
#include "harness/sweep.hh"

using perspective::harness::Json;

namespace
{

/** The per-cell JSON blocks --check compares verbatim beside the
 * headline counters. */
constexpr const char *kDetailFields[] = {"stats", "histograms",
                                         "timeseries", "leakage"};

struct Cell
{
    std::string workload;
    std::string scheme;
    std::string key; ///< config hash (+ duplicate suffix)
    bool fallbackKey = false; ///< no provenance: workload|scheme key
    bool ok = false;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t fences = 0;
    double wallSeconds = 0;
    double mips = 0; ///< instructions / wallSeconds / 1e6

    /** kDetailFields entry -> its JSON text, compared exactly (key
     * set and values). */
    std::map<std::string, std::string> detail;

    // Transient-leakage accounting (zero for pre-schema-4 files).
    std::uint64_t secretLoads = 0;
    std::uint64_t leakTransmissions = 0;
    std::uint64_t leakBytes = 0; ///< bytes_transmitted

    // Sampled-simulation block (schema 5). A sampled cell's cycles
    // are a statistical extrapolation: never bit-comparable, so
    // --check refuses files containing any; --accuracy-baseline is
    // the sanctioned comparison.
    bool sampled = false;
    std::uint64_t windows = 0;
    double cpiMean = 0;
    double cpiCi95 = 0;
    double relError = 0; ///< ci95 / mean on the CPI estimate
};

struct SweepFile
{
    std::string path;
    std::string bench;
    std::string git;
    double wallSeconds = 0;
    unsigned jobs = 0; ///< the sweep's worker count (0: not recorded)
    std::uint64_t fallbackKeys = 0; ///< cells without provenance
    std::vector<Cell> cells;

    /**
     * Config-hash → cell index, built lazily on first use: summaries
     * never need it, and a baseline compared against several inputs
     * pays the build exactly once instead of once per compare().
     */
    const std::map<std::string, const Cell *> &
    byKey() const
    {
        if (byKey_.empty() && !cells.empty())
            for (const Cell &c : cells)
                byKey_[c.key] = &c;
        return byKey_;
    }

    // Fleet-mode schedule block (schema: schedule.fleet), zero when
    // the sweep ran single-process.
    bool fleet = false;
    std::uint64_t fleetWorkers = 0;
    std::uint64_t fleetSteals = 0;
    std::uint64_t fleetResent = 0;
    double makespan = 0;          ///< schedule.makespan
    double staticShardEst = 0;    ///< est. static 1/N-shard makespan

    // Fast-path telemetry summed over every cell's stats block
    // (zero when the file predates the counters).
    std::uint64_t gateChecks = 0;   ///< gate verdicts computed
    std::uint64_t gateElided = 0;   ///< blocked-load rechecks skipped
    std::uint64_t mruHits = 0;      ///< DSVMT-walk MRU granule hits
    std::uint64_t mruLookups = 0;   ///< DSVMT-walk lookups

    // Dynamic-update exposure: stale allows plus the transient-gap
    // histogram, aggregated count-weighted over the cells (the JSON
    // carries per-cell percentile summaries, not raw samples).
    std::uint64_t staleAllows = 0;
    std::uint64_t gapSamples = 0;
    double gapP50W = 0; ///< sum of per-cell p50 * count
    double gapP99W = 0; ///< sum of per-cell p99 * count

    // Sampled-simulation presence and aggregate precision (schema 5).
    std::uint64_t sampledCells = 0;
    std::uint64_t sampledWindows = 0;
    double relErrSum = 0; ///< sum of per-cell rel_error
    double relErrMax = 0;

    // Transient-leakage totals over all cells (schema 4).
    std::uint64_t secretLoads = 0;
    std::uint64_t bytesAtRisk = 0;
    std::uint64_t leakTransmissions = 0;
    std::uint64_t leakBytes = 0;

    // Structured event-log health (doc-level "trace" block).
    std::uint64_t traceDropped = 0;
    std::vector<std::uint64_t> traceDroppedByLane;

  private:
    mutable std::map<std::string, const Cell *> byKey_;
};

std::uint64_t
uintOr0(const Json &obj, const char *field)
{
    return obj.contains(field) && obj.at(field).isNumber()
               ? obj.at(field).asUint()
               : 0;
}

/** Load a sweep document; @p verbose prints the parse cost. */
SweepFile
loadSweep(const std::string &path, bool verbose = false)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "bench_report: cannot read '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string &text = buf.str();
    auto t0 = std::chrono::steady_clock::now();
    Json doc = Json::parse(text);
    if (verbose) {
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        std::printf("parse %s: %zu bytes in %.1f ms\n", path.c_str(),
                    text.size(), ms);
    }

    SweepFile f;
    f.path = path;
    if (doc.contains("bench"))
        f.bench = doc.at("bench").asString();
    if (doc.contains("git"))
        f.git = doc.at("git").asString();
    if (doc.contains("wall_seconds"))
        f.wallSeconds = doc.at("wall_seconds").asDouble();
    f.jobs = static_cast<unsigned>(uintOr0(doc, "jobs"));
    if (doc.contains("schedule")) {
        const Json &sj = doc.at("schedule");
        if (sj.contains("makespan"))
            f.makespan = sj.at("makespan").asDouble();
        if (sj.contains("fleet")) {
            const Json &fl = sj.at("fleet");
            f.fleet = true;
            f.fleetWorkers = uintOr0(fl, "workers");
            f.fleetSteals = uintOr0(fl, "steals");
            f.fleetResent = uintOr0(fl, "stragglers_resent");
            if (fl.contains("static_shard_makespan_est"))
                f.staticShardEst =
                    fl.at("static_shard_makespan_est").asDouble();
        }
    }

    // Duplicate configurations (the same cell run twice in one grid)
    // disambiguate by occurrence index, preserving grid order.
    std::map<std::string, unsigned> seen;
    for (const Json &cj : doc.at("cells").asArray()) {
        Cell c;
        c.workload = cj.at("workload").asString();
        c.scheme = cj.at("scheme").asString();
        c.ok = cj.at("ok").asBool();
        c.cycles = uintOr0(cj, "cycles");
        c.instructions = uintOr0(cj, "instructions");
        c.fences = uintOr0(cj, "fences");
        if (cj.contains("wall_seconds"))
            c.wallSeconds = cj.at("wall_seconds").asDouble();
        if (cj.contains("mips") && cj.at("mips").isNumber())
            c.mips = cj.at("mips").asDouble();
        else if (c.wallSeconds > 0) // pre-"mips" files
            c.mips = static_cast<double>(c.instructions) /
                     c.wallSeconds / 1e6;
        std::string hash;
        if (cj.contains("provenance")) {
            hash = cj.at("provenance").at("config_hash").asString();
        } else {
            // Pre-provenance files: a last-resort key that cannot
            // tell apart cells differing only in seed/iterations/
            // tags. Warned about below; fatal under --strict.
            hash = c.workload + "|" + c.scheme;
            c.fallbackKey = true;
            ++f.fallbackKeys;
        }
        unsigned n = seen[hash]++;
        c.key = hash + "#" + std::to_string(n);
        for (const char *field : kDetailFields)
            if (cj.contains(field))
                c.detail[field] = cj.at(field).dump();
        if (cj.contains("stats")) {
            const Json &st = cj.at("stats");
            f.gateChecks += uintOr0(st, "gate.checks");
            f.gateElided += uintOr0(st, "gate.elided");
            f.mruHits += uintOr0(st, "dsvmt.mru.hits");
            f.mruLookups += uintOr0(st, "dsvmt.mru.lookups");
            f.staleAllows +=
                uintOr0(st, "perspective.revocation.stale_allows");
        }
        if (cj.contains("histograms") &&
            cj.at("histograms").contains("transient_gap_cycles")) {
            const Json &h =
                cj.at("histograms").at("transient_gap_cycles");
            std::uint64_t n = uintOr0(h, "count");
            f.gapSamples += n;
            if (n > 0) {
                f.gapP50W += h.at("p50").asDouble() *
                             static_cast<double>(n);
                f.gapP99W += h.at("p99").asDouble() *
                             static_cast<double>(n);
            }
        }
        if (cj.contains("sampling")) {
            const Json &sj = cj.at("sampling");
            c.sampled = true;
            c.windows = uintOr0(sj, "windows");
            if (sj.contains("cpi_mean"))
                c.cpiMean = sj.at("cpi_mean").asDouble();
            if (sj.contains("cpi_ci95"))
                c.cpiCi95 = sj.at("cpi_ci95").asDouble();
            if (sj.contains("rel_error"))
                c.relError = sj.at("rel_error").asDouble();
            ++f.sampledCells;
            f.sampledWindows += c.windows;
            f.relErrSum += c.relError;
            f.relErrMax = std::max(f.relErrMax, c.relError);
        }
        if (cj.contains("leakage")) {
            const Json &lj = cj.at("leakage");
            c.secretLoads = uintOr0(lj, "secret_loads");
            c.leakTransmissions = uintOr0(lj, "transmissions");
            c.leakBytes = uintOr0(lj, "bytes_transmitted");
            f.secretLoads += c.secretLoads;
            f.bytesAtRisk += uintOr0(lj, "bytes_at_risk");
            f.leakTransmissions += c.leakTransmissions;
            f.leakBytes += c.leakBytes;
        }
        f.cells.push_back(std::move(c));
    }
    if (doc.contains("trace")) {
        const Json &tj = doc.at("trace");
        f.traceDropped = uintOr0(tj, "dropped");
        if (tj.contains("dropped_by_lane"))
            for (const Json &d : tj.at("dropped_by_lane").asArray())
                f.traceDroppedByLane.push_back(d.asUint());
    }
    if (f.fallbackKeys > 0)
        std::fprintf(
            stderr,
            "bench_report: WARNING: %s: %llu cell(s) carry no "
            "provenance block; matching them by the ambiguous "
            "workload|scheme fallback key. Re-emit the sweep with a "
            "current build, or pass --strict to make this fatal.\n",
            path.c_str(),
            static_cast<unsigned long long>(f.fallbackKeys));
    return f;
}

/** Parse @p path as a raw sweep JSON document (for --merge). */
Json
loadRawJson(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "bench_report: cannot read '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    try {
        return Json::parse(buf.str());
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "bench_report: %s: %s\n", path.c_str(),
                     ex.what());
        std::exit(2);
    }
}

/** --merge OUT IN...: recombine shard sweeps into one document. */
int
mergeMain(const std::string &outPath,
          const std::vector<std::string> &inputs)
{
    if (inputs.empty()) {
        std::fprintf(stderr,
                     "bench_report: --merge needs at least one "
                     "shard file\n");
        return 2;
    }
    std::vector<Json> docs;
    docs.reserve(inputs.size());
    for (const std::string &path : inputs)
        docs.push_back(loadRawJson(path));

    std::string error;
    auto merged =
        perspective::harness::mergeSweeps(docs, inputs, error);
    if (!merged) {
        std::fprintf(stderr, "bench_report: merge failed: %s\n",
                     error.c_str());
        return 1;
    }
    std::ofstream os(outPath);
    if (!os) {
        std::fprintf(stderr,
                     "bench_report: cannot open '%s' for writing\n",
                     outPath.c_str());
        return 2;
    }
    merged->write(os, 2);
    os.put('\n');
    if (!os.flush()) {
        std::fprintf(stderr, "bench_report: short write to '%s'\n",
                     outPath.c_str());
        return 2;
    }
    std::printf("merged %zu shard(s), %zu cells -> %s\n",
                inputs.size(),
                merged->at("cells").asArray().size(),
                outPath.c_str());
    return 0;
}

/** Aggregate throughput: total simulated instructions of the
 * successful cells over the sweep's wall-clock seconds, in millions
 * of instructions per second. 0 when the file carries no timing. */
double
aggregateMips(const SweepFile &f)
{
    if (f.wallSeconds <= 0)
        return 0;
    std::uint64_t instructions = 0;
    for (const Cell &c : f.cells)
        if (c.ok)
            instructions += c.instructions;
    return static_cast<double>(instructions) / f.wallSeconds / 1e6;
}

void
summarize(const SweepFile &f)
{
    std::uint64_t failed = 0;
    for (const Cell &c : f.cells)
        failed += c.ok ? 0 : 1;
    std::printf("%s: bench=%s git=%s cells=%zu failed=%llu "
                "wall=%.2fs mips=%.2f\n",
                f.path.c_str(), f.bench.c_str(),
                f.git.empty() ? "?" : f.git.c_str(),
                f.cells.size(),
                static_cast<unsigned long long>(failed),
                f.wallSeconds, aggregateMips(f));
    // Fast-path telemetry (absent from files predating the counters).
    if (f.gateChecks + f.gateElided > 0)
        std::printf("  gate re-evals: %llu checked, %llu elided "
                    "(%.1f%% elided)\n",
                    static_cast<unsigned long long>(f.gateChecks),
                    static_cast<unsigned long long>(f.gateElided),
                    100.0 * static_cast<double>(f.gateElided) /
                        static_cast<double>(f.gateChecks +
                                            f.gateElided));
    if (f.mruLookups > 0)
        std::printf("  dsvmt walk MRU: %llu/%llu hits (%.1f%%)\n",
                    static_cast<unsigned long long>(f.mruHits),
                    static_cast<unsigned long long>(f.mruLookups),
                    100.0 * static_cast<double>(f.mruHits) /
                        static_cast<double>(f.mruLookups));
    if (f.gapSamples > 0 || f.staleAllows > 0)
        std::printf("  transient gaps: %llu windows, p50~%.0f "
                    "p99~%.0f cycles (count-weighted); %llu stale "
                    "allows\n",
                    static_cast<unsigned long long>(f.gapSamples),
                    f.gapSamples
                        ? f.gapP50W / static_cast<double>(f.gapSamples)
                        : 0.0,
                    f.gapSamples
                        ? f.gapP99W / static_cast<double>(f.gapSamples)
                        : 0.0,
                    static_cast<unsigned long long>(f.staleAllows));
    if (f.fleet) {
        // The speedup column is measured fleet makespan against the
        // estimated static 1/N sharding of the same cells — the
        // work-stealing win, not a comparison across files.
        char ratio[16] = "-";
        if (f.makespan > 0 && f.staticShardEst > 0)
            std::snprintf(ratio, sizeof ratio, "%.2fx",
                          f.staticShardEst / f.makespan);
        std::printf("  fleet: %llu worker(s), %llu steal(s), %llu "
                    "straggler cell(s) resent; makespan %.2fs vs "
                    "static-shard est %.2fs (%s)\n",
                    static_cast<unsigned long long>(f.fleetWorkers),
                    static_cast<unsigned long long>(f.fleetSteals),
                    static_cast<unsigned long long>(f.fleetResent),
                    f.makespan, f.staticShardEst, ratio);
    }
    if (f.sampledCells > 0)
        std::printf("  sampled: %llu cell(s), %llu detailed "
                    "window(s); CPI 95%% CI rel. error avg %.2f%% "
                    "max %.2f%% (statistical — not bit-comparable)\n",
                    static_cast<unsigned long long>(f.sampledCells),
                    static_cast<unsigned long long>(f.sampledWindows),
                    100.0 * f.relErrSum /
                        static_cast<double>(f.sampledCells),
                    100.0 * f.relErrMax);
    if (f.secretLoads > 0 || f.leakBytes > 0)
        std::printf("  leakage: %llu secret loads (%llu bytes at "
                    "risk), %llu transmissions, %llu bytes "
                    "transmitted\n",
                    static_cast<unsigned long long>(f.secretLoads),
                    static_cast<unsigned long long>(f.bytesAtRisk),
                    static_cast<unsigned long long>(
                        f.leakTransmissions),
                    static_cast<unsigned long long>(f.leakBytes));
    if (f.traceDropped > 0) {
        std::uint64_t worst = 0;
        for (std::uint64_t d : f.traceDroppedByLane)
            worst = std::max(worst, d);
        std::fprintf(stderr,
                     "bench_report: WARNING: %s: event trace dropped "
                     "%llu event(s) (worst lane: %llu) — raise the "
                     "log capacity or narrow the enabled flags\n",
                     f.path.c_str(),
                     static_cast<unsigned long long>(f.traceDropped),
                     static_cast<unsigned long long>(worst));
    }
}

/** The detail fields (see Cell::detail) on which @p c and @p b
 * differ, comma-separated; empty when they agree. A field present on
 * one side only differs. */
std::string
detailDiff(const Cell &c, const Cell &b)
{
    std::string out;
    for (const char *field : kDetailFields) {
        auto i = c.detail.find(field), j = b.detail.find(field);
        bool ci = i != c.detail.end(), bj = j != b.detail.end();
        if (ci != bj || (ci && i->second != j->second))
            out += out.empty() ? field : std::string(",") + field;
    }
    return out;
}

/** Signed delta column: "+12345" / "0". */
std::string
delta(std::uint64_t now, std::uint64_t base)
{
    std::int64_t d = static_cast<std::int64_t>(now) -
                     static_cast<std::int64_t>(base);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+lld",
                  static_cast<long long>(d));
    return d == 0 ? "0" : buf;
}

unsigned
compare(const SweepFile &now, const SweepFile &base, bool verbose)
{
    const auto &baseByKey = base.byKey();

    unsigned diffs = 0, unmatched = 0;
    std::printf("\n%-14s %-20s %14s %14s %10s %8s %8s  %s\n",
                "workload", "scheme", "d(cycles)", "d(insts)",
                "d(fences)", "mips", "speedup", "differs");
    for (const Cell &c : now.cells) {
        auto it = baseByKey.find(c.key);
        if (it == baseByKey.end()) {
            ++unmatched;
            std::printf("%-14s %-20s %s\n", c.workload.c_str(),
                        c.scheme.c_str(),
                        "(no matching baseline cell)");
            continue;
        }
        const Cell &b = *it->second;
        std::string differs = detailDiff(c, b);
        bool same = c.cycles == b.cycles &&
                    c.instructions == b.instructions &&
                    c.fences == b.fences && differs.empty();
        if (!same)
            ++diffs;
        if (same && !verbose)
            continue;
        // Throughput is informational here: wall clock is noisy, so
        // it never counts toward --check (use --perf-baseline for a
        // tolerance-based gate).
        char speedup[16] = "-";
        if (b.mips > 0 && c.mips > 0)
            std::snprintf(speedup, sizeof speedup, "%.2fx",
                          c.mips / b.mips);
        std::printf("%-14s %-20s %14s %14s %10s %8.2f %8s  %s\n",
                    c.workload.c_str(), c.scheme.c_str(),
                    delta(c.cycles, b.cycles).c_str(),
                    delta(c.instructions, b.instructions).c_str(),
                    delta(c.fences, b.fences).c_str(), c.mips,
                    speedup, differs.empty() ? "-" : differs.c_str());
    }
    std::printf("\n%u of %zu cells differ from baseline"
                " (%u unmatched)\n",
                diffs, now.cells.size(), unmatched);
    return diffs + unmatched;
}

/**
 * Aggregate-throughput gate: each input must sustain at least
 * @p threshold x the baseline's MIPS. Returns the number of files
 * that fail (missing timing on either side is a failure too — a
 * silent pass would mask a broken perf pipeline). Aggregate MIPS
 * scales with the worker count, so an input run at a different
 * --jobs than the baseline (or either count unrecorded) fails: a
 * 4-job run would otherwise hide a single-thread regression of up to
 * 4x the tolerance.
 */
unsigned
perfCompare(const std::vector<SweepFile> &inputs,
            const SweepFile &base, double threshold)
{
    double baseMips = aggregateMips(base);
    std::printf("\nperf baseline: %s mips=%.2f jobs=%u (threshold "
                "%.2fx => require >= %.2f)\n",
                base.path.c_str(), baseMips, base.jobs, threshold,
                baseMips * threshold);
    unsigned failures = 0;
    for (const SweepFile &f : inputs) {
        double mips = aggregateMips(f);
        bool sameJobs = base.jobs != 0 && f.jobs == base.jobs;
        bool ok = sameJobs && baseMips > 0 &&
                  mips >= baseMips * threshold;
        if (!ok)
            ++failures;
        std::printf("  %-40s mips=%8.2f  %6.2fx  jobs=%u  %s\n",
                    f.path.c_str(), mips,
                    baseMips > 0 ? mips / baseMips : 0.0, f.jobs,
                    !sameJobs ? "FAIL (jobs differ from the baseline)"
                    : ok      ? "ok"
                              : "FAIL");
    }
    return failures;
}

/**
 * Per-scheme overhead: geometric mean, over the workloads present,
 * of cycles(workload, scheme) / cycles(workload, "unsafe") within
 * the same file. The figure every results table in the paper is
 * built from, and the quantity the sampled-accuracy gate compares.
 */
std::map<std::string, double>
schemeOverheads(const SweepFile &f)
{
    // scheme -> workload -> cycles; duplicates (the same pair run
    // twice, e.g. simspeed's boot passes) keep the first occurrence.
    std::map<std::string, std::map<std::string, double>> cyc;
    for (const Cell &c : f.cells)
        if (c.ok && c.cycles > 0)
            cyc[c.scheme].emplace(c.workload,
                                  static_cast<double>(c.cycles));
    std::map<std::string, double> out;
    auto unsafeIt = cyc.find("unsafe");
    if (unsafeIt == cyc.end())
        return out;
    for (const auto &[scheme, byWorkload] : cyc) {
        if (scheme == "unsafe")
            continue;
        std::vector<double> ratios;
        for (const auto &[w, cycles] : byWorkload) {
            auto u = unsafeIt->second.find(w);
            if (u != unsafeIt->second.end() && u->second > 0)
                ratios.push_back(cycles / u->second);
        }
        if (!ratios.empty())
            out[scheme] = perspective::harness::geomean(ratios);
    }
    return out;
}

/**
 * Statistical-accuracy gate (--accuracy-baseline): every input's
 * per-scheme mean overhead must sit within @p threshold relative
 * error of the exact baseline's. Cells are matched by
 * (workload, scheme) — sampled and exact runs of the same cell hash
 * differently by design, so the config-hash matching of --baseline
 * cannot pair them. Returns the number of failing schemes across
 * all inputs.
 */
unsigned
accuracyCompare(const std::vector<SweepFile> &inputs,
                const SweepFile &base, double threshold)
{
    std::map<std::string, double> baseOv = schemeOverheads(base);
    std::printf("\naccuracy baseline: %s (threshold: rel. error "
                "<= %.2f%% on per-scheme mean overhead)\n",
                base.path.c_str(), 100.0 * threshold);
    if (baseOv.empty()) {
        std::fprintf(stderr,
                     "bench_report: accuracy baseline has no unsafe "
                     "reference cells — cannot compute overheads\n");
        return 1;
    }
    unsigned failures = 0;
    for (const SweepFile &f : inputs) {
        std::map<std::string, double> ov = schemeOverheads(f);
        // Mean CPI-CI relative error per scheme, from the sampled
        // cells themselves (the estimator's own precision claim,
        // printed beside the measured-against-exact error).
        std::map<std::string, std::pair<double, unsigned>> ci;
        for (const Cell &c : f.cells)
            if (c.ok && c.sampled) {
                ci[c.scheme].first += c.relError;
                ci[c.scheme].second += 1;
            }
        std::printf("  %s:\n", f.path.c_str());
        std::printf("    %-20s %10s %10s %10s %10s  %s\n", "scheme",
                    "base ovh", "this ovh", "rel err", "avg ci95",
                    "verdict");
        for (const auto &[scheme, bo] : baseOv) {
            auto it = ov.find(scheme);
            if (it == ov.end()) {
                std::printf("    %-20s %10.4f %10s %10s %10s  %s\n",
                            scheme.c_str(), bo, "-", "-", "-",
                            "MISSING");
                ++failures;
                continue;
            }
            double rel = bo > 0 ? std::abs(it->second - bo) / bo : 0;
            bool ok = rel <= threshold;
            if (!ok)
                ++failures;
            auto cit = ci.find(scheme);
            char cibuf[16] = "-";
            if (cit != ci.end() && cit->second.second > 0)
                std::snprintf(cibuf, sizeof cibuf, "%9.2f%%",
                              100.0 * cit->second.first /
                                  cit->second.second);
            std::printf("    %-20s %10.4f %10.4f %9.2f%% %10s  %s\n",
                        scheme.c_str(), bo, it->second, 100.0 * rel,
                        cibuf, ok ? "ok" : "FAIL");
        }
    }
    return failures;
}

/** Split a comma-separated scheme list ("" => match everything). */
std::vector<std::string>
splitSchemes(const std::string &list)
{
    std::vector<std::string> out;
    std::string cur;
    for (char ch : list) {
        if (ch == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(ch);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/**
 * Hard leak gate: no successful cell (of the filtered schemes) may
 * report a single transmitted byte. Returns the number of offending
 * cells across all inputs.
 */
unsigned
leakGate(const std::vector<SweepFile> &inputs,
         const std::vector<std::string> &schemes)
{
    unsigned offenders = 0;
    std::uint64_t matched = 0;
    for (const SweepFile &f : inputs) {
        for (const Cell &c : f.cells) {
            if (!c.ok)
                continue;
            if (!schemes.empty() &&
                std::find(schemes.begin(), schemes.end(),
                          c.scheme) == schemes.end())
                continue;
            ++matched;
            if (c.leakBytes > 0) {
                ++offenders;
                std::fprintf(
                    stderr,
                    "bench_report: leak gate: %s: %s/%s "
                    "transmitted %llu byte(s) (%llu transmissions, "
                    "%llu secret loads)\n",
                    f.path.c_str(), c.workload.c_str(),
                    c.scheme.c_str(),
                    static_cast<unsigned long long>(c.leakBytes),
                    static_cast<unsigned long long>(
                        c.leakTransmissions),
                    static_cast<unsigned long long>(c.secretLoads));
            }
        }
    }
    std::printf("\nleak gate: %llu cell(s) checked, %u leaking\n",
                static_cast<unsigned long long>(matched), offenders);
    return offenders;
}

void
usage(int code)
{
    std::printf(
        "usage: bench_report FILE.json [FILE2.json ...]\n"
        "           [--baseline BASE.json] [--check] [--strict]\n"
        "           [--verbose] [--perf-baseline BASE.json]\n"
        "           [--perf-threshold R]\n"
        "       bench_report --merge OUT.json SHARD.json "
        "[SHARD2.json ...]\n"
        "  --baseline F       per-cell delta of every input against"
        " F\n"
        "  --check            exit 1 if any cell differs from the\n"
        "                     baseline (regression gate)\n"
        "  --strict           exit 1 if any input matches cells by\n"
        "                     the provenance-less workload|scheme\n"
        "                     fallback key\n"
        "  --verbose          list identical cells too, and print\n"
        "                     per-file parse timing\n"
        "  --perf-baseline F  exit 1 if any input's aggregate MIPS\n"
        "                     falls below R x F's, or it ran at a\n"
        "                     different --jobs (timing gate)\n"
        "  --perf-threshold R minimum allowed MIPS ratio "
        "(default 0.80)\n"
        "  --accuracy-baseline F\n"
        "                     gate sampled sweeps: exit 1 if any\n"
        "                     input's per-scheme mean overhead\n"
        "                     (geomean cycles vs unsafe, matched by\n"
        "                     workload+scheme) deviates from exact\n"
        "                     baseline F by more than the threshold\n"
        "  --accuracy-threshold R\n"
        "                     max allowed relative error "
        "(default 0.02)\n"
        "  --leak-gate[=S,..] exit 1 if any successful cell (of the\n"
        "                     listed schemes; all when omitted)\n"
        "                     reports transmitted leakage bytes\n"
        "  --expect-leak      exit 1 if NO input reports transmitted\n"
        "                     leakage bytes (gates the gate: a racy\n"
        "                     config must show a nonzero signal)\n"
        "  --merge OUT        recombine --shard K/N sweep JSONs "
        "into\n"
        "                     one complete document (refuses\n"
        "                     duplicate, overlapping, or missing "
        "shards)\n");
    std::exit(code);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> inputs;
    std::string baselinePath, perfBaselinePath, mergePath;
    std::string accuracyBaselinePath;
    double accuracyThreshold = 0.02;
    double perfThreshold = 0.80;
    bool check = false, verbose = false, strict = false;
    bool leakGateOn = false, expectLeak = false;
    std::vector<std::string> leakSchemes;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--merge") {
            if (i + 1 >= argc)
                usage(2);
            mergePath = argv[++i];
        } else if (arg.rfind("--merge=", 0) == 0) {
            mergePath = arg.substr(8);
        } else if (arg == "--baseline") {
            if (i + 1 >= argc)
                usage(2);
            baselinePath = argv[++i];
        } else if (arg.rfind("--baseline=", 0) == 0) {
            baselinePath = arg.substr(11);
        } else if (arg == "--perf-baseline") {
            if (i + 1 >= argc)
                usage(2);
            perfBaselinePath = argv[++i];
        } else if (arg.rfind("--perf-baseline=", 0) == 0) {
            perfBaselinePath = arg.substr(16);
        } else if (arg == "--perf-threshold") {
            if (i + 1 >= argc)
                usage(2);
            perfThreshold = std::atof(argv[++i]);
        } else if (arg.rfind("--perf-threshold=", 0) == 0) {
            perfThreshold = std::atof(arg.substr(17).c_str());
        } else if (arg == "--accuracy-baseline") {
            if (i + 1 >= argc)
                usage(2);
            accuracyBaselinePath = argv[++i];
        } else if (arg.rfind("--accuracy-baseline=", 0) == 0) {
            accuracyBaselinePath = arg.substr(20);
        } else if (arg == "--accuracy-threshold") {
            if (i + 1 >= argc)
                usage(2);
            accuracyThreshold = std::atof(argv[++i]);
        } else if (arg.rfind("--accuracy-threshold=", 0) == 0) {
            accuracyThreshold = std::atof(arg.substr(21).c_str());
        } else if (arg == "--leak-gate") {
            leakGateOn = true;
        } else if (arg.rfind("--leak-gate=", 0) == 0) {
            leakGateOn = true;
            leakSchemes = splitSchemes(arg.substr(12));
        } else if (arg == "--expect-leak") {
            expectLeak = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--strict") {
            strict = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "bench_report: unknown argument '%s'\n",
                         arg.c_str());
            usage(2);
        } else {
            inputs.push_back(arg);
        }
    }
    if (!mergePath.empty()) {
        // Merge mode is exclusive: the output is a sweep document,
        // not a report.
        if (check || strict || verbose || !baselinePath.empty() ||
            !perfBaselinePath.empty() ||
            !accuracyBaselinePath.empty()) {
            std::fprintf(stderr,
                         "bench_report: --merge cannot be combined "
                         "with report flags\n");
            return 2;
        }
        return mergeMain(mergePath, inputs);
    }
    if (inputs.empty())
        usage(2);
    if (check && baselinePath.empty()) {
        std::fprintf(stderr,
                     "bench_report: --check needs --baseline\n");
        return 2;
    }

    if (perfThreshold <= 0) {
        std::fprintf(stderr,
                     "bench_report: --perf-threshold must be > 0\n");
        return 2;
    }
    if (accuracyThreshold <= 0) {
        std::fprintf(
            stderr,
            "bench_report: --accuracy-threshold must be > 0\n");
        return 2;
    }

    std::vector<SweepFile> files;
    files.reserve(inputs.size());
    for (const std::string &path : inputs)
        files.push_back(loadSweep(path, verbose));

    unsigned total_diffs = 0;
    std::uint64_t fallbacks = 0;
    for (const SweepFile &f : files) {
        summarize(f);
        fallbacks += f.fallbackKeys;
    }

    if (!baselinePath.empty()) {
        SweepFile base = loadSweep(baselinePath, verbose);
        fallbacks += base.fallbackKeys;
        std::printf("\nbaseline: ");
        summarize(base);
        if (check) {
            // Sampled cells are statistical estimates: two correct
            // runs legitimately differ, so a bit-exact gate over
            // them can only mislead (spurious green on lucky seeds,
            // spurious red otherwise). Refuse outright rather than
            // diff; --accuracy-baseline is the sanctioned gate.
            std::uint64_t sampled = base.sampledCells;
            for (const SweepFile &f : files)
                sampled += f.sampledCells;
            if (sampled > 0) {
                std::fprintf(
                    stderr,
                    "bench_report: FAIL — --check compares cells "
                    "bit-for-bit, but %llu cell(s) across the inputs "
                    "are sampled (statistical). Use "
                    "--accuracy-baseline with an exact sweep "
                    "instead.\n",
                    static_cast<unsigned long long>(sampled));
                return 1;
            }
        }
        for (const SweepFile &f : files)
            total_diffs += compare(f, base, verbose);
    }

    if (strict && fallbacks > 0) {
        std::fprintf(stderr,
                     "bench_report: FAIL — %llu cell(s) matched by "
                     "the provenance-less fallback key under "
                     "--strict\n",
                     static_cast<unsigned long long>(fallbacks));
        return 1;
    }

    unsigned perf_failures = 0;
    if (!perfBaselinePath.empty())
        perf_failures = perfCompare(files, loadSweep(perfBaselinePath),
                                    perfThreshold);

    unsigned accuracy_failures = 0;
    if (!accuracyBaselinePath.empty())
        accuracy_failures =
            accuracyCompare(files, loadSweep(accuracyBaselinePath),
                            accuracyThreshold);

    unsigned leak_failures = 0;
    if (leakGateOn)
        leak_failures = leakGate(files, leakSchemes);
    if (expectLeak) {
        std::uint64_t total = 0;
        for (const SweepFile &f : files)
            total += f.leakBytes;
        if (total == 0) {
            std::fprintf(stderr,
                         "bench_report: FAIL — --expect-leak: no "
                         "input reports any transmitted leakage "
                         "bytes (the leak instrumentation may be "
                         "dead)\n");
            return 1;
        }
        std::printf("expect-leak: %llu byte(s) transmitted across "
                    "inputs — signal present\n",
                    static_cast<unsigned long long>(total));
    }
    if (leak_failures > 0) {
        std::fprintf(stderr,
                     "bench_report: FAIL — %u cell(s) leaked "
                     "transmitted bytes\n",
                     leak_failures);
        return 1;
    }

    if (check && total_diffs > 0) {
        std::fprintf(stderr,
                     "bench_report: FAIL — %u differing cell(s)\n",
                     total_diffs);
        return 1;
    }
    if (perf_failures > 0) {
        std::fprintf(stderr,
                     "bench_report: FAIL — %u file(s) below the "
                     "performance threshold\n",
                     perf_failures);
        return 1;
    }
    if (accuracy_failures > 0) {
        std::fprintf(stderr,
                     "bench_report: FAIL — %u scheme(s) outside the "
                     "sampled-accuracy threshold\n",
                     accuracy_failures);
        return 1;
    }
    return 0;
}
