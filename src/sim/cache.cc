#include "cache.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace perspective::sim
{

Cache::Cache(const CacheParams &params)
    : params_(params), assoc_(params.assoc)
{
    auto reject = [&](const char *why) {
        throw std::invalid_argument("cache '" + params_.name +
                                    "': " + why);
    };
    if (params_.line_bytes < 2 ||
        !std::has_single_bit(params_.line_bytes))
        reject("line size must be a power of two >= 2");
    std::uint64_t way_bytes =
        std::uint64_t{params_.line_bytes} * params_.assoc;
    if (params_.assoc == 0 || params_.size_bytes == 0 ||
        params_.size_bytes % way_bytes != 0)
        reject("size must be a nonzero multiple of line size x "
               "associativity");
    std::uint64_t sets = params_.size_bytes / way_bytes;
    if (!std::has_single_bit(sets))
        reject("set count must be a power of two");
    lineShift_ = static_cast<unsigned>(
        std::countr_zero(params_.line_bytes));
    setMask_ = sets - 1;
    tags_.assign(sets * assoc_, kInvalidTag);
    lru_.assign(sets * assoc_, 0);
}

bool
Cache::access(Addr addr)
{
    std::size_t way = findWay(addr >> lineShift_);
    if (way != kNoWay) {
        lru_[way] = ++useClock_;
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

void
Cache::fill(Addr addr)
{
    Addr tag = addr >> lineShift_;
    std::size_t base = setBase(tag);
    // One walk finds a present line or picks the victim: the first
    // invalid way, else the lowest LRU stamp (ties to the lowest way).
    std::size_t victim = kNoWay;
    bool victim_invalid = false;
    for (std::size_t i = base; i < base + assoc_; ++i) {
        if (tags_[i] == tag) {
            lru_[i] = ++useClock_;
            return; // already present
        }
        if (victim_invalid)
            continue;
        if (tags_[i] == kInvalidTag) {
            victim = i;
            victim_invalid = true;
        } else if (victim == kNoWay || lru_[i] < lru_[victim]) {
            victim = i;
        }
    }
    tags_[victim] = tag;
    lru_[victim] = ++useClock_;
    ++contentGen_;
}

void
Cache::flush(Addr addr)
{
    std::size_t way = findWay(addr >> lineShift_);
    if (way != kNoWay) {
        tags_[way] = kInvalidTag;
        ++contentGen_;
    }
}

void
Cache::flushAll()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    ++contentGen_;
}

CacheHierarchy::CacheHierarchy(const CacheParams &l1i,
                               const CacheParams &l1d,
                               const CacheParams &l2,
                               Cycle dram_latency, bool prefetch)
    : l1i_(l1i),
      l1d_(l1d),
      l2_(l2),
      dramLatency_(dram_latency),
      prefetch_(prefetch)
{
}

CacheAccess
CacheHierarchy::access(Cache &l1, Addr addr)
{
    CacheAccess r;
    r.latency = l1.params().hit_latency;
    if (l1.access(addr))
        return r;
    r.l1Miss = true;
    r.latency += l2_.params().hit_latency;
    if (!l2_.access(addr)) {
        r.l2Miss = true;
        r.latency += dramLatency_;
        l2_.fill(addr);
    }
    l1.fill(addr);
    // Next-line prefetcher (Table 7.1): a demand miss triggers a
    // background fill of the following line. No latency is charged —
    // the prefetch overlaps with the demand access.
    if (prefetch_) {
        Addr next = addr + l1.params().line_bytes;
        if (!l1.probe(next)) {
            l2_.fill(next);
            l1.fill(next);
            r.prefetched = true;
        }
    }
    return r;
}

Cycle
CacheHierarchy::probeLatency(Addr addr) const
{
    if (l1d_.probe(addr))
        return l1d_.params().hit_latency;
    if (l2_.probe(addr))
        return l1d_.params().hit_latency + l2_.params().hit_latency;
    return l1d_.params().hit_latency + l2_.params().hit_latency +
           dramLatency_;
}

void
CacheHierarchy::flush(Addr addr)
{
    l1i_.flush(addr);
    l1d_.flush(addr);
    l2_.flush(addr);
}

CacheParams
defaultL1I()
{
    return {"l1i", 32 * 1024, 64, 4, 2};
}

CacheParams
defaultL1D()
{
    return {"l1d", 32 * 1024, 64, 8, 2};
}

CacheParams
defaultL2()
{
    return {"l2", 2 * 1024 * 1024, 64, 16, 8};
}

} // namespace perspective::sim
