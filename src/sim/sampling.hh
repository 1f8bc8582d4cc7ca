/**
 * @file
 * SMARTS-style sampled simulation (DESIGN §5.8): parameters for the
 * periodic functional-skip -> functional-warm -> detailed-window cycle
 * the pipeline runs when sampling is enabled, and the systematic-
 * sampling estimator that turns per-window CPI observations into a
 * mean with a 95% confidence interval.
 *
 * Sampling is the repo's explicitly *statistical* mode: it does not
 * reproduce the detailed run bit-for-bit, it estimates mean CPI (and
 * hence per-scheme overhead) from evenly spaced detailed windows.
 * Results carry their own error bars; bit-exact comparison
 * (`bench_report --check`) is undefined for sampled cells and
 * `--accuracy-baseline` is the sanctioned check.
 */

#ifndef PERSPECTIVE_SIM_SAMPLING_HH
#define PERSPECTIVE_SIM_SAMPLING_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace perspective::sim
{

/**
 * Controller parameters for sampled simulation. One period of
 * @c periodInsts committed micro-ops is split into a functional skip
 * phase (no timing, no microarchitectural updates), a functional
 * warming phase of @c warmingInsts (no timing, but caches, TLB,
 * predictors and policy view caches are driven), and a detailed
 * window of @c windowInsts simulated cycle-accurately. The measured
 * phase of a run opens with a detailed window (the microarchitecture
 * is already warm from the warmup iterations) so even short streams
 * yield one; @c seed perturbs the first skip length so window
 * alignment varies across otherwise identical configurations.
 *
 * Defaults were tuned on the LEBench grid: 5k-instruction windows
 * with 10k warming every 400k instructions hold every per-scheme
 * mean-overhead estimate within 1% of the exact run while cutting
 * wall time ~4x below the detailed loop (README "Performance").
 */
struct SamplingParams
{
    /** Sentinel for @c windowInsts: never leave the detailed phase. */
    static constexpr std::uint64_t kInfiniteWindow = UINT64_MAX;

    bool enabled = false;
    std::uint64_t windowInsts = 5'000;   ///< detailed window length
    std::uint64_t warmingInsts = 10'000; ///< functional warming length
    std::uint64_t periodInsts = 400'000; ///< full sampling period
    std::uint64_t seed = 1;              ///< first-skip perturbation

    /**
     * Parse a spec string: "off"/"0" -> disabled, "1"/"on"/"default"
     * -> enabled with defaults, else a comma-separated key=value list
     * ("w=5000,warm=10000,period=400000,seed=1"; unknown keys and
     * malformed values throw std::invalid_argument, as does a period
     * shorter than window + warming).
     */
    static SamplingParams parse(const std::string &spec);

    /** Parse $PERSPECTIVE_SAMPLE (unset -> disabled). */
    static SamplingParams fromEnv();

    /**
     * Canonical spec string; "off" when disabled. Round-trips through
     * parse() and is what cache keys and the fleet hello handshake
     * embed, so equal specs <=> statistically identical configs.
     */
    std::string spec() const;

    bool operator==(const SamplingParams &o) const
    {
        if (enabled != o.enabled)
            return false;
        if (!enabled)
            return true;
        return windowInsts == o.windowInsts &&
               warmingInsts == o.warmingInsts &&
               periodInsts == o.periodInsts && seed == o.seed;
    }
    bool operator!=(const SamplingParams &o) const
    {
        return !(*this == o);
    }
};

/**
 * Systematic-sampling estimator over per-window CPI observations
 * x_i = cycles_i / insts_i. Mean is the arithmetic mean of the x_i;
 * the half-width of the 95% confidence interval is
 * 1.96 * s / sqrt(n) with s^2 the (n-1)-divisor sample variance —
 * the standard estimator for systematic samples of a stream whose
 * period is uncorrelated with program phase (SMARTS, ISCA 2003).
 */
class SamplingEstimator
{
  public:
    /** Record one completed detailed window. Windows with zero
     * instructions are ignored. */
    void addWindow(std::uint64_t cycles, std::uint64_t insts);

    std::size_t windows() const { return n_; }
    std::uint64_t sampledInsts() const { return insts_; }
    std::uint64_t sampledCycles() const { return cycles_; }

    /** Mean per-window CPI (0 when no windows). */
    double cpiMean() const;

    /** 95% CI half-width on the mean CPI (0 when fewer than two
     * windows: the variance is not estimable). */
    double cpiCi95() const;

    /** Relative error ci95 / mean (0 when mean is 0). */
    double relError() const;

    void reset();

  private:
    std::size_t n_ = 0;
    double sum_ = 0.0;   ///< sum of x_i
    double sumSq_ = 0.0; ///< sum of x_i^2
    std::uint64_t insts_ = 0;
    std::uint64_t cycles_ = 0;
};

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_SAMPLING_HH
