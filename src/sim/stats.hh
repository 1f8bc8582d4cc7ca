/**
 * @file
 * Lightweight named statistics registry, loosely modeled after the gem5
 * stats package: scalar counters, log2-bucketed distributions and
 * periodic time-series samples are created on demand and can be dumped
 * or queried by name at the end of a simulation.
 */

#ifndef PERSPECTIVE_SIM_STATS_HH
#define PERSPECTIVE_SIM_STATS_HH

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "types.hh"

namespace perspective::sim
{

/**
 * A cached handle to one named counter inside a StatSet. Hot paths
 * (per-cycle pipeline increments) resolve the name once at
 * construction and then bump through the handle without the
 * string-keyed map lookup StatSet::inc pays. Handles stay valid across
 * StatSet::clear() — clearing zeroes counters in place, it never
 * erases them — and are invalidated only when the owning StatSet is
 * destroyed or assigned over.
 */
class Counter
{
  public:
    Counter() = default;

    void
    inc(std::uint64_t delta = 1)
    {
        *slot_ += delta;
    }

    std::uint64_t value() const { return *slot_; }

    bool valid() const { return slot_ != nullptr; }

  private:
    friend class StatSet;
    explicit Counter(std::uint64_t *slot) : slot_(slot) {}
    std::uint64_t *slot_ = nullptr;
};

/**
 * A log2-bucketed distribution of 64-bit samples (gem5's Histogram /
 * Linux's power-of-two latency buckets). Bucket 0 holds the value 0;
 * bucket k (k >= 1) holds values in [2^(k-1), 2^k - 1]. Exact min,
 * max and a running sum ride along so the mean is exact and
 * percentiles can be interpolated inside a bucket and clamped to the
 * observed range.
 */
class Histogram
{
  public:
    /** 0, then one bucket per bit width 1..64. */
    static constexpr unsigned kNumBuckets = 65;

    void
    sample(std::uint64_t value, std::uint64_t count = 1)
    {
        buckets_[bucketOf(value)] += count;
        count_ += count;
        sum_ += static_cast<double>(value) *
                static_cast<double>(count);
        if (value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
    }

    std::uint64_t count() const { return count_; }
    /** Smallest sample; 0 when empty. */
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : sum_ / static_cast<double>(count_);
    }

    /**
     * Percentile @p p in [0, 100], linearly interpolated within the
     * containing log2 bucket and clamped to [min, max] (so p0 == min
     * and p100 == max exactly). Returns 0 for an empty histogram.
     */
    double percentile(double p) const;

    /** Occupancy of bucket @p b (see class comment for ranges). */
    std::uint64_t
    bucket(unsigned b) const
    {
        return buckets_[b];
    }

    /** Which bucket @p value falls into. */
    static unsigned
    bucketOf(std::uint64_t value)
    {
        return value == 0 ? 0u
                          : static_cast<unsigned>(
                                std::bit_width(value));
    }

    /** Inclusive value range covered by bucket @p b. */
    static std::pair<std::uint64_t, std::uint64_t> bucketRange(
        unsigned b);

    /** Drop all samples (structure and name binding survive). */
    void
    clear()
    {
        buckets_.assign(kNumBuckets, 0);
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<std::uint64_t>::max();
        max_ = 0;
    }

    /** One-line summary: count/min/mean/p50/p90/p99/max. */
    void dumpSummary(std::ostream &os) const;

  private:
    std::vector<std::uint64_t> buckets_ =
        std::vector<std::uint64_t>(kNumBuckets, 0);
    std::uint64_t count_ = 0;
    double sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/**
 * Periodic cycle-stamped snapshots of a counter: tick() is called
 * every cycle with the current value and records one (cycle, value)
 * sample each @p interval cycles. Bounded memory for arbitrarily long
 * runs: when the sample buffer fills, every other sample is dropped
 * and the interval doubles (so a run of any length keeps at most
 * kMaxSamples points at a self-adjusting cadence).
 */
class TimeSeries
{
  public:
    static constexpr std::size_t kMaxSamples = 512;
    static constexpr Cycle kDefaultInterval = 8192;

    explicit TimeSeries(Cycle interval = kDefaultInterval)
        : baseInterval_(interval == 0 ? 1 : interval),
          interval_(baseInterval_)
    {
    }

    void
    tick(Cycle now, std::uint64_t value)
    {
        if (now < nextDue_)
            return;
        samples_.emplace_back(now, value);
        nextDue_ = now + interval_;
        if (samples_.size() >= kMaxSamples)
            decimate();
    }

    Cycle interval() const { return interval_; }

    const std::vector<std::pair<Cycle, std::uint64_t>> &
    samples() const
    {
        return samples_;
    }

    /** Drop samples and restore the configured base cadence. */
    void
    clear()
    {
        samples_.clear();
        interval_ = baseInterval_;
        nextDue_ = 0;
    }

  private:
    void decimate();

    Cycle baseInterval_;
    Cycle interval_;
    Cycle nextDue_ = 0;
    std::vector<std::pair<Cycle, std::uint64_t>> samples_;
};

/**
 * A bag of named 64-bit counters, histograms and time series. Each
 * Pipeline owns one; subsystems (caches, predictors, policies)
 * increment counters through it so that experiment harnesses can
 * compute derived metrics such as hit rates or
 * fences-per-kilo-instruction.
 */
class StatSet
{
  public:
    /** Add @p delta to counter @p name, creating it at zero if absent. */
    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /**
     * Resolve @p name once and return a stable handle for hot-path
     * increments (see Counter). Creates the counter at zero if
     * absent. The name-based inc()/get() API keeps working for cold
     * paths and dumps.
     */
    Counter
    counter(const std::string &name)
    {
        return Counter(&counters_[name]);
    }

    /** Named histogram, created empty on first use. */
    Histogram &
    histogram(const std::string &name)
    {
        return histograms_[name];
    }

    /**
     * Named time series, created on first use with @p interval
     * cycles between samples (ignored once created).
     */
    TimeSeries &
    timeSeries(const std::string &name,
               Cycle interval = TimeSeries::kDefaultInterval)
    {
        auto it = series_.find(name);
        if (it == series_.end())
            it = series_.emplace(name, TimeSeries(interval)).first;
        return it->second;
    }

    /** Read counter @p name; absent counters read as zero. */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Ratio helper: get(num) / get(den), 0 when the denominator is 0. */
    double
    ratio(const std::string &num, const std::string &den) const
    {
        std::uint64_t d = get(den);
        return d == 0 ? 0.0 : static_cast<double>(get(num)) / d;
    }

    /**
     * Reset every counter to zero and every histogram/time series to
     * empty. Entries are zeroed in place, never erased, so Counter
     * handles and Histogram/TimeSeries references stay valid across
     * the warmup/measure reset.
     */
    void
    clear()
    {
        for (auto &[name, value] : counters_)
            value = 0;
        for (auto &[name, h] : histograms_)
            h.clear();
        for (auto &[name, ts] : series_)
            ts.clear();
    }

    /**
     * Make this set's *values* equal to @p o without invalidating any
     * outstanding Counter handle or Histogram/TimeSeries reference:
     * entries are written in place (created when missing, zeroed when
     * absent from @p o), never erased. Plain assignment would rebuild
     * the maps and dangle every cached hot-path handle; this is the
     * restore path for snapshot/rollback experiments.
     */
    void
    assignFrom(const StatSet &o)
    {
        for (auto &[name, value] : counters_)
            value = o.get(name);
        for (const auto &[name, value] : o.counters_)
            counters_[name] = value;
        for (auto &[name, h] : histograms_) {
            auto it = o.histograms_.find(name);
            if (it == o.histograms_.end())
                h.clear();
            else
                h = it->second;
        }
        for (const auto &[name, h] : o.histograms_)
            histograms_[name] = h;
        for (auto &[name, ts] : series_) {
            auto it = o.series_.find(name);
            if (it == o.series_.end())
                ts.clear();
            else
                ts = it->second;
        }
        for (const auto &[name, ts] : o.series_)
            series_.insert_or_assign(name, ts);
    }

    /** Dump counters then histogram summaries, sorted by name. */
    void dump(std::ostream &os) const;

    /** Access the underlying maps (read-only). */
    const std::map<std::string, std::uint64_t> &
    all() const
    {
        return counters_;
    }

    const std::map<std::string, Histogram> &
    allHistograms() const
    {
        return histograms_;
    }

    const std::map<std::string, TimeSeries> &
    allTimeSeries() const
    {
        return series_;
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, TimeSeries> series_;
};

/**
 * A Counter resolved on its first bump: the counter enters its
 * StatSet exactly when a name-based inc() would have created it, so
 * counters that stay absent until something happens (prefetches, L2
 * misses, rare mispredict kinds) keep that key set, while every bump
 * costs a pointer test instead of a string build and a map walk.
 * Bind it to a set before the first bump; it stays valid across
 * StatSet::clear() and assignFrom(), and bind() to another set drops
 * the resolved slot.
 */
class LazyCounter
{
  public:
    explicit LazyCounter(const char *name, StatSet *set = nullptr)
        : name_(name), set_(set)
    {
    }

    void
    bind(StatSet *set)
    {
        set_ = set;
        ctr_ = Counter();
    }

    void
    inc(std::uint64_t delta = 1)
    {
        if (!ctr_.valid()) [[unlikely]]
            ctr_ = set_->counter(name_);
        ctr_.inc(delta);
    }

  private:
    const char *name_; ///< string literal: outlives every binding
    StatSet *set_;
    Counter ctr_;
};

/** The histogram counterpart of LazyCounter: created on its first
 * sample, as StatSet::histogram(name).sample() would. */
class LazyHistogram
{
  public:
    explicit LazyHistogram(const char *name) : name_(name) {}

    void
    bind(StatSet *set)
    {
        set_ = set;
        hist_ = nullptr;
    }

    void
    sample(std::uint64_t value)
    {
        if (!hist_) [[unlikely]]
            hist_ = &set_->histogram(name_);
        hist_->sample(value);
    }

  private:
    const char *name_; ///< string literal: outlives every binding
    StatSet *set_ = nullptr;
    Histogram *hist_ = nullptr;
};

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_STATS_HH
