/**
 * @file
 * Persistent, content-addressed sweep-cell cache. Most cells of a
 * typical re-run are byte-identical to a previous run (same cell
 * configuration, same simulator code — PR 3's bit-identical
 * guarantee), so the fastest way to simulate them is not to: the
 * SweepRunner consults this store before simulating and writes back
 * after.
 *
 * Keying: a cached entry is addressed by
 *   (cell config hash) x (code fingerprint)
 * where the config hash is the provenance FNV-1a over every knob
 * that determines the cell's outcome (see cellConfigHash) and the
 * code fingerprint covers the build (`git describe`) plus
 * kSimResultEpoch, a manually bumped constant for the rare change
 * that alters results without changing the describe string (e.g. a
 * parameter default edited in the same commit you are testing).
 * Either moving to a different build or bumping the epoch makes every
 * previous entry unreachable — stale results can never be served.
 *
 * Durability/concurrency: one JSON file per cell, written to a
 * temporary name and atomically rename()d into place, so parallel CI
 * jobs can share a cache directory: readers either see a complete
 * file or a miss, never a torn write. Unreadable/corrupt entries are
 * treated as misses.
 *
 * Cost table: alongside results the cache records each cell's wall
 * seconds (epoch-independent — timing estimates stay useful across
 * result-epoch bumps). The sweep scheduler uses these to submit
 * longest-first. Costs are keyed by (config hash, execution mode):
 * sampled runs the same cell ~9x faster than detailed, so a
 * mode-blind estimate recorded under one mode is badly stale when
 * the cell is next scheduled under the other. With no cache
 * directory the cache still keeps an in-memory cost table so later
 * run() batches in the same process schedule cost-aware.
 */

#ifndef PERSPECTIVE_HARNESS_CELLCACHE_HH
#define PERSPECTIVE_HARNESS_CELLCACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "json.hh"

namespace perspective::harness
{

/**
 * Result epoch: bump whenever simulator changes may alter sweep
 * results without that being visible in `git describe` (locally
 * edited defaults, toolchain quirks being chased, …). Part of the
 * code fingerprint, so a bump invalidates every cached cell.
 */
inline constexpr unsigned kSimResultEpoch = 7; // -ff.* cell stats

/**
 * The code half of the cache key: a 16-hex-digit FNV-1a over the
 * build's `git describe` and @p epoch. Two binaries agree on the
 * fingerprint iff they were built from the same describe-visible
 * source at the same epoch.
 */
std::string codeFingerprint(unsigned epoch = kSimResultEpoch);

/**
 * Execution mode of a cell, as the cost table keys on it. Two
 * distinct timing regimes: detailed (~1x) and sampled (~an order of
 * magnitude, statistical) — an estimate recorded under one mode is
 * badly stale under the other.
 */
enum class ExecMode
{
    Detailed,
    Sampled,
};

/** On-disk cell store; thread-safe (the sweep workers write back
 * concurrently). */
class CellCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
    };

    /**
     * @p dir empty = memory-only mode: load() always misses, store()
     * is a no-op, but the in-memory cost table stays live. @p
     * fingerprint defaults to this build's codeFingerprint();
     * injectable for tests exercising epoch invalidation.
     */
    explicit CellCache(std::string dir,
                       std::string fingerprint = codeFingerprint());

    /** True when a cache directory is configured. */
    bool persistent() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }
    const std::string &fingerprint() const { return fp_; }

    /**
     * Look up the cell JSON for @p configHash under this code
     * fingerprint. Counts a hit or a miss; corrupt entries count as
     * misses.
     */
    std::optional<Json> load(const std::string &configHash);

    /**
     * Write @p cell back (atomic temp-file + rename). Returns false
     * (without throwing) on I/O failure — a broken cache must never
     * fail a sweep. No-op in memory-only mode.
     */
    bool store(const std::string &configHash, const Json &cell);

    /** Last recorded wall seconds for @p configHash executed under
     * @p mode: the in-memory table first, then the on-disk cost
     * table. */
    std::optional<double> loadCost(const std::string &configHash,
                                   ExecMode mode);

    /** Record @p seconds for @p configHash executed under @p mode
     * (always in memory; also on disk when persistent). */
    void storeCost(const std::string &configHash, ExecMode mode,
                   double seconds);

    Stats stats() const;

  private:
    std::string cellPath(const std::string &configHash) const;
    std::string costPath(const std::string &costKey) const;
    bool atomicWrite(const std::string &path,
                     const std::string &contents);

    std::string dir_;
    std::string fp_;

    mutable std::mutex mu_;
    Stats stats_;
    std::map<std::string, double> memCosts_;
    std::uint64_t tmpCounter_ = 0;
};

} // namespace perspective::harness

#endif // PERSPECTIVE_HARNESS_CELLCACHE_HH
