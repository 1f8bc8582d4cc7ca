/**
 * @file
 * Set-associative cache model with LRU replacement, plus a small
 * hierarchy (L1I, L1D, shared L2, DRAM) matching Table 7.1 of the
 * paper. The model is tag-only: it tracks which lines are present and
 * charges latency; data values live in sim::Memory.
 *
 * Crucially, speculative (later-squashed) accesses still install lines;
 * this is the microarchitectural state transient-execution attacks
 * exfiltrate through.
 */

#ifndef PERSPECTIVE_SIM_CACHE_HH
#define PERSPECTIVE_SIM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "types.hh"

namespace perspective::sim
{

/** Geometry and timing of one cache level. */
struct CacheParams
{
    std::string name;
    std::uint32_t size_bytes = 32 * 1024;
    std::uint32_t line_bytes = 64;
    std::uint32_t assoc = 8;
    Cycle hit_latency = 2; ///< round-trip cycles on a hit
};

/**
 * One level of cache. Lookup and fill are separate so callers can
 * model "probe without disturbing" (flush+reload timing reads) as well
 * as normal allocating accesses.
 *
 * The geometry must be a power of two in line size and set count, so
 * a lookup is one shift and one mask. Each set is a run of @c assoc
 * line tags (an invalid way holds kInvalidTag) beside a parallel run
 * of LRU stamps.
 */
class Cache
{
  public:
    /** @throws std::invalid_argument unless the line size is a power
     * of two >= 2, the size is a nonzero multiple of line size x
     * associativity, and the set count is a power of two. */
    explicit Cache(const CacheParams &params);

    /** True if the line containing @p addr is present; updates LRU. */
    bool access(Addr addr);

    /** True if present; does not update replacement state. */
    bool
    probe(Addr addr) const
    {
        return findWay(addr >> lineShift_) != kNoWay;
    }

    /** Install the line containing @p addr. The victim is the set's
     * first invalid way, else its least recently used one (ties go
     * to the lowest way). */
    void fill(Addr addr);

    /** Remove the line containing @p addr if present (clflush). */
    void flush(Addr addr);

    /** Remove every line (e.g. L1D flush mitigations). */
    void flushAll();

    const CacheParams &params() const { return params_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Generation counter of the cache's *content*: ticks on every
     * line install, eviction and flush, but never on an LRU-only
     * touch (which cannot change what probe() returns). Blocked
     * loads gated on presence (DOM) wake off this instead of
     * re-probing every cycle. */
    const std::uint64_t *contentGenPtr() const { return &contentGen_; }

  private:
    /** Tag of an empty way: no line number (addr >> lineShift_, with
     * lineShift_ >= 1) reaches it. */
    static constexpr Addr kInvalidTag = ~Addr{0};
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** First slot of @p tag's set in tags_/lru_. */
    std::size_t
    setBase(Addr tag) const
    {
        return static_cast<std::size_t>(tag & setMask_) * assoc_;
    }

    /** Slot holding @p tag, or kNoWay. The one set walk shared by
     * access/probe/flush; never touches LRU. */
    std::size_t
    findWay(Addr tag) const
    {
        std::size_t base = setBase(tag);
        for (std::size_t i = base; i < base + assoc_; ++i) {
            if (tags_[i] == tag)
                return i;
        }
        return kNoWay;
    }

    CacheParams params_;
    unsigned lineShift_ = 0;
    Addr setMask_ = 0;
    std::uint32_t assoc_ = 0;
    std::vector<Addr> tags_;         ///< sets * assoc, set-major
    std::vector<std::uint64_t> lru_; ///< higher == more recently used
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t contentGen_ = 0;
};

/** What one demand access did: its latency and which levels it
 * missed, so the caller can keep its own statistics. */
struct CacheAccess
{
    Cycle latency = 0;
    bool l1Miss = false;     ///< missed the L1 (filled from L2/DRAM)
    bool l2Miss = false;     ///< missed the L2 too (filled from DRAM)
    bool prefetched = false; ///< the next-line prefetcher filled a line
};

/**
 * Two-level hierarchy with a DRAM backstop. Returns the total
 * round-trip latency of a demand access and installs lines on the way
 * up, as a non-inclusive hierarchy would.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const CacheParams &l1i, const CacheParams &l1d,
                   const CacheParams &l2, Cycle dram_latency,
                   bool prefetch = true);

    /** Data access: charge latency, install in L1D/L2. */
    CacheAccess accessData(Addr addr) { return access(l1d_, addr); }

    /** Instruction fetch access through L1I/L2. */
    CacheAccess accessInst(Addr addr) { return access(l1i_, addr); }

    /** True if @p addr hits in L1D without touching LRU/contents. */
    bool probeL1D(Addr addr) const { return l1d_.probe(addr); }

    /** Timing-only probe used by covert-channel receivers. */
    Cycle probeLatency(Addr addr) const;

    /** clflush semantics across all levels. */
    void flush(Addr addr);

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cycle dramLatency() const { return dramLatency_; }

    /** Toggle the next-line prefetchers (Table 7.1 has one per L1). */
    void setPrefetch(bool on) { prefetch_ = on; }
    bool prefetch() const { return prefetch_; }

  private:
    /** Demand access through @p l1 and the shared L2. */
    CacheAccess access(Cache &l1, Addr addr);

    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cycle dramLatency_;
    bool prefetch_;
};

/** The Table 7.1 configuration. */
CacheParams defaultL1I();
CacheParams defaultL1D();
CacheParams defaultL2();

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_CACHE_HH
