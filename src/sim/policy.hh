/**
 * @file
 * The pliable software/hardware interface: the pipeline consults a
 * SpeculationPolicy before letting a transmitter instruction execute
 * speculatively. Defense schemes (FENCE, DOM, STT, Perspective, ...)
 * implement this interface; the pipeline itself stays scheme-agnostic.
 */

#ifndef PERSPECTIVE_SIM_POLICY_HH
#define PERSPECTIVE_SIM_POLICY_HH

#include <array>
#include <cstdint>

#include "stats.hh"
#include "types.hh"

namespace perspective::sim
{

/** Everything a policy may inspect about a pending transmitter. */
struct SpecContext
{
    Addr pc = 0;          ///< VA of the transmitter instruction
    Addr dataVa = 0;      ///< effective address of the access
    FuncId func = kNoFunc;///< containing function
    bool speculative = false; ///< older squashable instruction exists
    bool tainted = false; ///< address depends on speculative data (STT)
    bool kernelMode = false;  ///< executing kernel code
    Asid asid = 0;        ///< current address-space id
    bool l1dHit = false;  ///< would this access hit in the L1D?
    Cycle now = 0;        ///< current cycle (for fill-latency models)
    /** True on the first gate evaluation of this dynamic instruction;
     * blocked loads are re-evaluated every cycle, and policies must
     * only bump attribution statistics once. */
    bool firstCheck = true;
    /** Generation counter of the L1D's *content* (ticks whenever a
     * line is installed, evicted or flushed — never on an LRU-only
     * touch). A policy whose verdict reads l1dHit lists this in its
     * GateWake so blocked loads re-evaluate only when a probe result
     * could actually have changed. */
    const std::uint64_t *l1dContentGen = nullptr;
};

/**
 * What a Block verdict depends on — the wake-driven re-evaluation
 * contract. After gateLoad returns Block, the pipeline asks the
 * policy (gateWake) which inputs the verdict was computed from and
 * then elides the per-cycle re-invocation until one of them changes:
 *
 *  - the speculation horizon (an older control op resolving) is
 *    always an implicit wake source — it can flip `speculative`
 *    and STT taint, and it is the release condition at the VP;
 *  - each listed generation counter is compared against its value
 *    at the blocking call; any tick forces a real re-evaluation;
 *  - recheckAt forces one at a known future cycle (in-flight fill);
 *  - everyCycle (the default) disables elision entirely — unknown
 *    or stateful policies keep the exact legacy cadence.
 *
 * Elision must be invisible in the stats: a policy that bumps a
 * counter on *every* blocking call points blockedTally at it, and
 * the pipeline bumps the tally once per elided cycle, exactly as the
 * suppressed call would have. Over-waking is always safe (a real
 * re-evaluation bumps whatever the legacy call did); under-waking is
 * a correctness bug — list every input the verdict can read.
 */
struct GateWake
{
    /** Re-evaluate every cycle (legacy behaviour; the default). */
    bool everyCycle = true;

    static constexpr unsigned kMaxGens = 4;
    std::array<const std::uint64_t *, kMaxGens> gen{};
    unsigned numGens = 0;

    /** Cycle at which to force a re-evaluation regardless of the
     * generation counters (0 = none). */
    Cycle recheckAt = 0;

    /** Bumped once per elided cycle to preserve per-call counter
     * totals (may be null). Must stay valid while any load blocked
     * under this wake spec is in flight. */
    Counter *blockedTally = nullptr;

    /** Switch to input-driven wakes and add a generation source. */
    void
    depend(const std::uint64_t *g)
    {
        everyCycle = false;
        if (g && numGens < kMaxGens)
            gen[numGens++] = g;
    }

    /** Input-driven with no generation sources: the verdict can only
     * change with the speculation horizon (or recheckAt). */
    static GateWake
    untilInputs()
    {
        GateWake w;
        w.everyCycle = false;
        return w;
    }
};

/** Verdicts a policy can return for a speculative transmitter. */
enum class Gate : std::uint8_t
{
    Allow,          ///< execute now
    Block,          ///< re-evaluate next cycle (released at the VP)
    AllowInvisible, ///< execute without modifying the cache; the
                    ///< line installs at commit (InvisiSpec-style)
};

/**
 * Abstract defense scheme. gateLoad is re-invoked every cycle while an
 * instruction is blocked and still speculative; once the instruction
 * reaches its Visibility Point the pipeline stops asking and issues it.
 */
class SpeculationPolicy
{
  public:
    virtual ~SpeculationPolicy() = default;

    /** Decide whether the speculative transmitter may execute. */
    virtual Gate gateLoad(const SpecContext &ctx) = 0;

    /**
     * Describe what the Block verdict just returned by gateLoad
     * depends on (see GateWake). Called by the pipeline immediately
     * after a Block, with the same context. The default keeps the
     * legacy every-cycle re-evaluation, so policies that do not
     * implement the contract behave exactly as before.
     */
    virtual GateWake
    gateWake(const SpecContext &ctx)
    {
        (void)ctx;
        return {};
    }

    /** Scheme name used in reports. */
    virtual const char *name() const = 0;

    /** Extra front-end cycles charged when entering the kernel. */
    virtual Cycle kernelEntryCost() const { return 0; }

    /** Extra cycles charged when returning to userspace. */
    virtual Cycle kernelExitCost() const { return 0; }

    /**
     * When true, indirect calls are executed as retpolines: the BTB is
     * never consulted and fetch stalls until the target resolves.
     */
    virtual bool retpoline() const { return false; }

    /**
     * Speculative control-flow integrity check (SpecCFI/CET-style):
     * may the front end speculate into @p target from an indirect
     * call? Coarse-grained CFI labels every kernel function entry as
     * legal — which is exactly why CFI alone leaves a large passive
     * attack surface (Chapter 10).
     */
    virtual bool
    cfiAllowsIndirectTarget(FuncId target) const
    {
        (void)target;
        return true;
    }

    /**
     * When true, a hardware shadow stack provides return predictions
     * on RSB underflow instead of the (poisonable) BTB fallback.
     */
    virtual bool shadowStack() const { return false; }

    /**
     * May the core run a functional sampling phase right now
     * (PipelineParams::sampling, DESIGN §5.8)? Functional skip and
     * warm phases are non-speculative by construction and never
     * reach gateLoad, so the default is yes; a policy holding state
     * it wants re-examined on the detailed path (e.g. an open
     * deferred-revocation window) answers no until that state drains.
     */
    virtual bool allowFunctionalSkip() const { return true; }

    /**
     * Functional-warming hook (sampled simulation, DESIGN §5.8): the
     * pipeline's warming phase replays each committed kernel load
     * through this instead of gateLoad so scheme-owned lookup
     * structures (ISV/DSV caches) stay warm across skipped intervals.
     * Implementations must be *accounting-free* — no counters, no
     * histogram samples, no gate decisions, no wake bookkeeping —
     * and install fills as immediately ready: warming has no timeline
     * and must never perturb the statistics a detailed window
     * measures. The default (no scheme-owned state) does nothing.
     */
    virtual void warmAccess(const SpecContext &ctx) { (void)ctx; }

    /** Stats sink for fence-attribution counters. Virtual so schemes
     * can resolve cached Counter handles for their hot-path and
     * GateWake tally counters when the sink attaches. */
    virtual void setStats(StatSet *stats) { stats_ = stats; }

  protected:
    StatSet *stats_ = nullptr;
};

/** Baseline: never blocks anything. */
class UnsafePolicy : public SpeculationPolicy
{
  public:
    Gate gateLoad(const SpecContext &) override { return Gate::Allow; }
    const char *name() const override { return "unsafe"; }
};

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_POLICY_HH
