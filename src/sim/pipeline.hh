/**
 * @file
 * Out-of-order, speculative, cycle-approximate pipeline.
 *
 * The model implements the mechanisms transient-execution attacks and
 * their defenses actually interact with:
 *
 *  - in-order fetch along a *predicted* path (conditional predictor,
 *    BTB for indirect calls, RSB for returns), so wrong-path micro-ops
 *    really enter the window, really execute, and really disturb the
 *    cache before being squashed;
 *  - a reorder buffer with in-order commit and full squash/restore on
 *    misprediction (rename map, speculative call stack, predictor
 *    history and RSB checkpoints);
 *  - a Visibility Point rule (Section 6.2): an instruction is
 *    speculative while any older unresolved control-flow instruction
 *    could squash it; defenses may block transmitters until then;
 *  - STT-style taint: values produced by speculative loads are tainted
 *    and taint propagates through data flow until the producer load
 *    reaches its Visibility Point.
 *
 * Defense schemes plug in through sim::SpeculationPolicy.
 */

#ifndef PERSPECTIVE_SIM_PIPELINE_HH
#define PERSPECTIVE_SIM_PIPELINE_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "cache.hh"
#include "leakage.hh"
#include "memory.hh"
#include "policy.hh"
#include "predictor.hh"
#include "program.hh"
#include "sampling.hh"
#include "stats.hh"
#include "tlb.hh"
#include "trace.hh"
#include "types.hh"

namespace perspective::sim
{

/** Core configuration (defaults follow Table 7.1). */
struct PipelineParams
{
    unsigned width = 8;           ///< fetch/commit width
    unsigned robSize = 192;
    unsigned lqSize = 62;
    unsigned sqSize = 32;
    Cycle mispredictPenalty = 10; ///< front-end redirect cycles
    /** Minimum cycles between dispatch of a control-flow op and its
     * resolution, modeling the fetch-to-execute pipeline depth. This
     * is the length of the speculative window defenses fight over:
     * FENCE-style schemes stall loads for at least this long behind
     * every unresolved branch. */
    Cycle branchResolveDepth = 6;
    /** Baseline privilege-transition microcode cost (syscall/sysret,
     * swapgs), charged on every kernel entry/exit regardless of the
     * defense scheme. KPTI-style mitigations add on top. */
    Cycle kernelEntryCost = 40;
    Cycle kernelExitCost = 24;
    Cycle dramLatency = 100;      ///< 50 ns at 2 GHz
    Cycle maxCycles = 200'000'000;///< runaway guard
    /** Per-cycle distribution/time-series sampling (ROB occupancy
     * histogram, committed/fences time series). Off: zero per-cycle
     * telemetry cost; event-proportional samples (fence stalls,
     * squash depths, load waits) are always collected. */
    bool detailedTelemetry = true;
    /** Transient-leakage ledger (leakage.hh). Observation-only and
     * additionally gated on a classifier being installed; simulated
     * cycle counts are identical either way. */
    bool leakLedger = true;
    /** Sampled simulation (DESIGN §5.8): when enabled — and neither
     * per-cycle telemetry (detailedTelemetry) nor tracing needs the
     * detailed path — the core runs the periodic
     * functional-skip -> functional-warm -> detailed-window cycle and
     * estimates mean CPI with a confidence interval instead of
     * simulating every instruction cycle-accurately. Explicitly
     * statistical — cycle counts and most stats cover only the
     * detailed windows; callers extrapolate via sampler(). */
    SamplingParams sampling;
};

/** Outcome of one Pipeline::run invocation. */
struct RunResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0; ///< committed micro-ops
};

/**
 * The simulated core. One Pipeline owns its cache hierarchy,
 * predictors, TLBs and architectural state; the Program and the
 * backing Memory are shared with the kernel model and attack drivers.
 */
class Pipeline
{
  public:
    Pipeline(const Program &prog, Memory &mem,
             PipelineParams params = {});
    /** Stat handles point into the pipeline's own StatSet. */
    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** Install the active defense scheme (nullptr -> unsafe). */
    void setPolicy(SpeculationPolicy *policy);
    SpeculationPolicy *policy() const { return policy_; }

    /** Current address-space identifier (tags ISV cache et al.). */
    void setAsid(Asid asid) { asid_ = asid; }
    Asid asid() const { return asid_; }

    /** Kernel stack base used for call/return slot traffic. */
    void setKernelStackBase(Addr base) { stackBase_ = base; }
    Addr kernelStackBase() const { return stackBase_; }

    /** Architectural register access (drivers pass syscall args). */
    std::uint64_t regValue(unsigned r) const { return regs_[r]; }
    void setReg(unsigned r, std::uint64_t v) { regs_[r] = v; }

    /**
     * Execute @p entry to completion (its final return) and report the
     * cycles and committed micro-ops consumed. Microarchitectural
     * state (caches, predictors) persists across calls, which is what
     * lets an attacker mistrain structures in one call and exploit
     * them in the next.
     */
    RunResult run(FuncId entry);

    /**
     * Checkpoint of the core's full microarchitectural state between
     * runs: caches, TLB, predictors, architectural registers, stats
     * and the sequence/cycle clocks. Only valid at a quiescent point
     * (empty ROB — i.e. between run() calls); in-flight state is
     * deliberately not part of it.
     */
    struct Snapshot
    {
        CacheHierarchy caches;
        Tlb dtlb;
        CondPredictor cond;
        Btb btb;
        Rsb rsb;
        StatSet stats;
        std::array<std::uint64_t, kNumRegs> regs{};
        std::array<std::uint64_t, kNumRegs> renameMap{};
        std::array<bool, kNumRegs> renameValid{};
        std::uint64_t nextSeq = 0;
        Cycle now = 0;
        Cycle fetchStallUntil = 0;
        Asid asid = 0;
        Addr stackBase = 0;
        LeakLedger::Snapshot ledger;
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &s);

    /** Core cycle clock. The pointer stays valid for the pipeline's
     * lifetime — policies hold it to timestamp deferred updates
     * (PerspectivePolicy::setClock). */
    Cycle now() const { return now_; }
    const Cycle *cyclePtr() const { return &now_; }

    /**
     * Run @p fn at the first cycle >= @p when of a subsequent run()
     * — an asynchronous kernel-side event (ownership handoff, module
     * load, fleet flip) landing mid-run while loads are in flight.
     * Callbacks mutate semantic state, not pipeline internals.
     * Pending callbacks are dropped by restore(): a rewound
     * experiment re-schedules its own events.
     */
    void
    scheduleAt(Cycle when, std::function<void()> fn)
    {
        scheduled_.emplace_back(when, std::move(fn));
    }
    std::size_t pendingScheduled() const { return scheduled_.size(); }

    /** Transient-leakage ledger (observation-only; DESIGN §5.6).
     * Arm it with LeakLedger::setClassifier; the pipeline classifies
     * speculative loads and tracks taint only while armed. */
    LeakLedger &leakLedger() { return ledger_; }
    const LeakLedger &leakLedger() const { return ledger_; }

    /** @name Sampled simulation (DESIGN §5.8)
     * @{ */

    /** Per-window CPI estimator; meaningful after a sampled run. */
    const SamplingEstimator &sampler() const { return sampler_; }

    /** True when the most recent run() executed in sampled mode
     * (sampling enabled, detailedTelemetry off, tracing off). */
    bool sampledMode() const { return sampleMode_; }

    /**
     * Re-anchor the sampling phase machine and clear the estimator.
     * Experiment calls this at its warmup -> measured boundary (right
     * after clearing stats) so the measured phase starts with a fresh
     * detailed window and an empty estimate; restore() calls it
     * because the phase anchor (cumulative committed count) rewinds.
     */
    void resetSampling();

    /**
     * Fold an open, partially filled detailed window into the
     * estimator. Only used as a last resort on streams too short to
     * complete a single full window — partial windows carry the same
     * weight as full ones, so routine flushing would bias the mean.
     */
    void flushSampleWindow();

    /** @} */

    Memory &memory() { return mem_; }
    CacheHierarchy &caches() { return caches_; }
    CondPredictor &condPredictor() { return cond_; }
    Btb &btb() { return btb_; }
    Rsb &rsb() { return rsb_; }
    Tlb &dtlb() { return dtlb_; }
    StatSet &stats() { return stats_; }
    const Program &program() const { return prog_; }
    const PipelineParams &params() const { return params_; }

  private:
    /** A frame of the speculative call stack. */
    struct Frame
    {
        FuncId func = kNoFunc;
        std::uint32_t retIdx = 0;
        Addr slotVa = 0; ///< stack slot holding the return address
    };

    /**
     * Immutable, structurally shared call stack (a persistent cons
     * list). Every control op checkpoints the fetch path's stack into
     * its ROB entry (RobEntry::stackCkpt); with a plain vector that
     * deep-copied every frame per checkpoint and per squash restore.
     * Here checkpoint and restore are one shared_ptr copy, push is a
     * single node allocation sharing the whole tail, and pop is a
     * pointer step — nothing is ever cloned, and frozen snapshots
     * stay valid through any later mutation because nodes are
     * immutable once linked.
     */
    class CowStack
    {
      public:
        std::size_t size() const { return top_ ? top_->depth : 0; }
        bool empty() const { return !top_; }
        const Frame &back() const { return top_->frame; }

        void
        push_back(const Frame &f)
        {
            top_ = std::make_shared<const Node>(
                Node{f, top_, size() + 1});
        }

        void pop_back() { top_ = top_->prev; }

      private:
        struct Node
        {
            Frame frame;
            std::shared_ptr<const Node> prev;
            std::size_t depth;
        };

        /** Null = empty; depth is capped by real kernel call depth,
         * so chain destruction cannot recurse deeply. */
        std::shared_ptr<const Node> top_;
    };

    /** Front-end state: where fetch is and the path's call stack. */
    struct FetchState
    {
        FuncId func = kNoFunc;
        std::uint32_t idx = 0;
        CowStack stack;
        bool halted = false; ///< fetched past the outermost return
    };

    enum class EState : std::uint8_t
    {
        Waiting,   ///< operands not ready
        Blocked,   ///< transmitter gated by the policy
        Executing, ///< in an FU, completes at doneCycle
        Done,      ///< result available
    };

    struct RobEntry
    {
        std::uint64_t seq = 0;
        FuncId func = kNoFunc;
        std::uint32_t idx = 0;
        Addr pc = 0;
        const MicroOp *op = nullptr;
        bool kernel = false;

        EState state = EState::Waiting;
        Cycle doneCycle = 0;
        Cycle dispatchCycle = 0;
        Cycle issueCycle = 0;   ///< when the op entered an FU
        Cycle blockedSince = 0; ///< first policy-blocked cycle
        std::uint64_t result = 0;

        // Operand capture: producer seq (kNoSeq when the value came
        // from the architectural file at dispatch).
        static constexpr std::uint64_t kNoSeq = ~0ull;
        std::array<std::uint64_t, 2> srcProd = {kNoSeq, kNoSeq};
        /** Producer entries resolved at capture time (deque references
         * are stable), consumed by registerDispatch in the same cycle
         * so dispatch never searches the ROB by seq. */
        std::array<RobEntry *, 2> srcProdPtr = {nullptr, nullptr};
        std::array<std::uint64_t, 2> srcVal = {0, 0};
        std::array<bool, 2> srcReady = {true, true};
        std::array<RegId, 2> srcReg = {kNoReg, kNoReg};

        bool tainted = false;   ///< result taint (STT), memoized
        Cycle taintCycle = 0;   ///< cycle `tainted` was computed for
        bool counted = false;   ///< fence already counted for stats
        bool invisible = false; ///< executed without cache fills

        // Leakage-ledger taint (observation-only, independent of the
        // STT bit above): which live secret sources this entry's
        // result derives from, the per-operand captures, and — for a
        // secret-classified load — its own source slot.
        std::uint64_t leakTaint = 0;
        std::array<std::uint64_t, 2> srcLeakTaint = {0, 0};
        std::uint8_t leakSrcBit = LeakLedger::kNoSource;

        // Wake-driven gate re-evaluation (GateWake in policy.hh):
        // snapshot of the blocking verdict's inputs, captured when
        // the policy blocked this entry. While no wake condition
        // holds, the per-cycle re-gate is elided with the exact
        // accounting the suppressed call would have produced.
        bool wakeEvery = true;
        std::uint8_t wakeNumGens = 0;
        Cycle wakeRecheckAt = 0;
        std::uint64_t wakeHorizonGen = 0;
        std::array<const std::uint64_t *, GateWake::kMaxGens>
            wakeGen{};
        std::array<std::uint64_t, GateWake::kMaxGens> wakeGenSeen{};
        Counter *wakeTally = nullptr;

        /** memGen_ snapshot from the last issue attempt that failed
         * on the fence/store fronts; while it still matches, the
         * retry is elided (its outcome could not have changed). */
        std::uint64_t memGen = 0;

        /** Unready source-operand count; 0 = issue candidate. */
        std::uint8_t pendingSrcs = 0;
        /** One registered consumer wakeup. Ring slots are permanent,
         * so the pointer stays dereferenceable forever; `seq` is the
         * consumer's seq at registration and doubles as the liveness
         * check — a squashed consumer has its seq invalidated (see
         * squashAfter) and a recycled slot carries a different seq,
         * so `consumer->seq != seq` exactly replaces the old
         * ROB-search miss. Committed consumers cannot appear here:
         * an entry with a pending operand cannot complete, and its
         * producer fires the edge the moment it does. */
        struct WakeEdge
        {
            RobEntry *consumer;
            std::uint64_t seq;
            unsigned slot;
        };
        /** Consumers to wake when this entry completes. */
        std::vector<WakeEdge> wakeup;

        // Memory ops.
        Addr effAddr = 0;
        bool addrValid = false;

        // Control ops.
        bool isControl = false;
        bool resolved = false;
        bool predictedTaken = false;
        FuncId predTargetFunc = kNoFunc;
        std::uint32_t predTargetIdx = 0;
        std::uint64_t histCkpt = 0;
        Rsb::Checkpoint rsbCkpt{0, 0};
        CowStack stackCkpt; ///< stack before this op's effect
        bool sawHalt = false; ///< return with an empty correct stack

        /** Re-initialize a recycled ring slot for dispatch. Selective
         * on purpose — a full `*this = RobEntry{}` re-writes ~400
         * bytes per dispatched micro-op and dominated the fetch
         * stage. Skipped fields are written before they can be read
         * on every path:
         *  - seq/func/idx/pc/op/kernel/isControl/dispatchCycle: set
         *    by the dispatcher immediately after pushSlot();
         *  - srcProd/srcProdPtr/srcVal/srcReady/srcReg/srcLeakTaint:
         *    captureOperand covers both slots in every dispatch case
         *    (and zeroes the leak taint on architectural reads);
         *  - pendingSrcs: set by registerDispatch;
         *  - issueCycle/doneCycle/blockedSince/result: set at issue
         *    (blockedSince is only read under `counted`, reset here);
         *  - histCkpt/rsbCkpt/predTargetFunc/predTargetIdx: set at
         *    dispatch for exactly the control ops that resolve them;
         *  - wakeEvery/wakeNumGens/wakeGen/wakeGenSeen/wakeRecheckAt/
         *    wakeHorizonGen/wakeTally: set by captureGateWake, read
         *    only while state == Blocked, and Blocked is entered
         *    through captureGateWake. */
        void reset()
        {
            wakeup.clear();   // keeps its allocation
            stackCkpt = {};   // unpin the checkpointed stack nodes
            state = EState::Waiting;
            resolved = false;
            predictedTaken = false;
            sawHalt = false;
            counted = false;
            invisible = false;
            tainted = false;
            taintCycle = 0;
            memGen = 0;
            leakTaint = 0;
            leakSrcBit = LeakLedger::kNoSource;
            effAddr = 0;
            addrValid = false;
        }
    };

    /** Fixed-capacity ROB ring. The deque it replaces allocated one
     * chunk per entry (RobEntry is near the chunk threshold), i.e.
     * one malloc/free per dispatched micro-op; the ring's slots are
     * permanent, recycled in place, and their wakeup vectors keep
     * their capacity across reuse. Slot addresses never change, so
     * the pointer-stability contract renameProd_/srcProdPtr rely on
     * carries over unchanged. */
    class RobRing
    {
      public:
        void init(std::size_t capacity)
        {
            std::size_t cap = 1;
            while (cap < capacity)
                cap <<= 1;
            slots_.resize(cap);
            mask_ = cap - 1;
            head_ = 0;
            count_ = 0;
        }
        bool empty() const { return count_ == 0; }
        std::size_t size() const { return count_; }
        RobEntry &front() { return slots_[head_ & mask_]; }
        RobEntry &back()
        {
            return slots_[(head_ + count_ - 1) & mask_];
        }
        RobEntry &operator[](std::size_t i)
        {
            return slots_[(head_ + i) & mask_];
        }
        /** Append: recycle the tail slot in place and return it. */
        RobEntry &pushSlot()
        {
            assert(count_ <= mask_ && "ROB ring overflow");
            RobEntry &e = slots_[(head_ + count_) & mask_];
            ++count_;
            e.reset();
            return e;
        }
        void pop_front()
        {
            ++head_;
            --count_;
        }
        void pop_back() { --count_; }
        void clear()
        {
            head_ = 0;
            count_ = 0;
        }

      private:
        std::vector<RobEntry> slots_;
        std::size_t head_ = 0, mask_ = 0, count_ = 0;
    };

    // -- per-cycle stages ------------------------------------------------
    void doCommit();
    void doExecute();
    void doFetch();

    // -- helpers ---------------------------------------------------------
    RobEntry *findBySeq(std::uint64_t seq);
    bool isSpeculative(const RobEntry &e) const;
    bool addrTainted(RobEntry &e);
    bool taintOf(RobEntry &e);
    bool resolveControl(RobEntry &e);
    void registerDispatch(RobEntry &e);
    void enqueueReady(RobEntry &e);
    void onComplete(RobEntry &e);
    bool tryIssue(RobEntry &e);
    bool gateWakeDue(const RobEntry &e) const;
    void captureGateWake(RobEntry &e, const SpecContext &ctx,
                         SpeculationPolicy &pol);
    std::uint64_t horizonSeq();
    void squashAfter(std::uint64_t seq);
    void rebuildRenameMap();
    void captureOperand(RobEntry &e, unsigned slot, RegId reg);
    Cycle execLatency(const RobEntry &e);
    /** Demand data access through the hierarchy, counted in the
     * l1d./l2. stats; returns its latency. */
    Cycle dataAccess(Addr addr);
    bool tryIssueLoad(RobEntry &e);
    void applyCommit(RobEntry &e);
    void noteFenceStallEnd(const RobEntry &e);
    void recordSpan(trace::Flag flag, const RobEntry &e, Cycle start,
                    const char *suffix = nullptr);
    void sampleTelemetry();
    void runScheduled();
    std::uint64_t evalAlu(const RobEntry &e) const;
    bool evalBranch(const RobEntry &e) const;

    // -- sampled simulation (pipeline_sampling.cc, DESIGN §5.8) -----------
    /** Phase controller: called at the quiescent engagement point in
     * sampled mode. Runs functional skip/warm phases to their
     * instruction-count boundaries, records completed detailed
     * windows into sampler_, and returns with the machine either
     * inside a detailed window (the detailed loop proceeds) or
     * halted. */
    void samplingStep(SpeculationPolicy &pol);
    /** Architectural-only executor: commits up to @p budget micro-ops
     * with correct register/memory/control-flow semantics but no
     * timing (now_ does not advance) and, in the skip phase, no
     * microarchitectural updates at all. With @p warm set it drives
     * the L1/L2 caches, D-TLB, branch predictors, BTB, RSB and the
     * policy's warmAccess hook, so detailed windows open on the state
     * a continuously-detailed run would have. Only the committed-
     * micro-op counters advance; all other stats stay untouched. */
    void functionalAdvance(std::uint64_t budget, bool warm,
                           SpeculationPolicy &pol);

    const Program &prog_;
    Memory &mem_;
    PipelineParams params_;

    CacheHierarchy caches_;
    Tlb dtlb_;
    CondPredictor cond_;
    Btb btb_;
    Rsb rsb_;
    StatSet stats_;

    // Cached stat handles for the per-cycle/per-op hot paths (cold
    // paths keep the name-based StatSet::inc API). Handles survive
    // StatSet::clear(), so the warmup/measure reset keeps them live.
    Counter ctrCommitted_;
    Counter ctrCommittedKernel_;
    Counter ctrFetched_;
    Counter ctrLoads_;
    Counter ctrLoadsSpec_;
    Counter ctrLoadsInvisible_;
    Counter ctrBlockedCycles_;
    Counter ctrSquashedUops_;
    Counter ctrFences_;
    Counter ctrFencesKernel_;
    Counter ctrMispredicts_;
    Counter ctrSquashes_;
    Counter ctrGateChecks_; ///< real policy gateLoad invocations
    Counter ctrGateElided_; ///< per-cycle re-gates skipped by wakes

    // Per-event counters that only appear once something happens
    // (prefetches, L2 misses, a given mispredict kind), bound to
    // stats_ on first bump so the emitted key set is unchanged.
    LazyCounter ctrL1dAccesses_{"l1d.accesses", &stats_};
    LazyCounter ctrL1dMisses_{"l1d.misses", &stats_};
    LazyCounter ctrL1dPrefetches_{"l1d.prefetches", &stats_};
    LazyCounter ctrL2DataMisses_{"l2.data_misses", &stats_};
    LazyCounter ctrL1iAccesses_{"l1i.accesses", &stats_};
    LazyCounter ctrL1iMisses_{"l1i.misses", &stats_};
    LazyCounter ctrL1iPrefetches_{"l1i.prefetches", &stats_};
    LazyCounter ctrMispredBranch_{"mispredicts.branch", &stats_};
    LazyCounter ctrMispredIcall_{"mispredicts.icall", &stats_};
    LazyCounter ctrMispredRet_{"mispredicts.ret", &stats_};
    LazyCounter ctrKernelEntries_{"kernel_entries", &stats_};
    LazyCounter ctrRsbUnderflowBtb_{"rsb_underflow_btb", &stats_};

    // Distribution / time-series telemetry (registered once in the
    // constructor; pointees are stable map nodes inside stats_).
    Histogram *histRobOcc_ = nullptr;
    Histogram *histFenceStall_ = nullptr;
    Histogram *histSquashDepth_ = nullptr;
    Histogram *histLoadWait_ = nullptr;
    TimeSeries *tsRobOcc_ = nullptr;
    TimeSeries *tsCommitted_ = nullptr;
    TimeSeries *tsFences_ = nullptr;

    SpeculationPolicy *policy_ = nullptr;
    UnsafePolicy unsafe_;

    LeakLedger ledger_;
    /** params_.leakLedger && classifier installed, latched per run. */
    bool ledgerArmed_ = false;
    /** Syscall entry point of the current run (leak attribution). */
    FuncId entryFunc_ = kNoFunc;

    Asid asid_ = 0;
    Addr stackBase_ = 0;

    std::array<std::uint64_t, kNumRegs> regs_{};

    // ROB as a fixed-capacity ring (capacity = params_.robSize
    // rounded up to a power of two, set once in the constructor).
    RobRing rob_;
    std::uint64_t nextSeq_ = 0;
    std::array<std::uint64_t, kNumRegs> renameMap_{};
    /** Producer entry per renamed register (valid iff renameValid_);
     * deque references are stable until the entry commits or is
     * squashed, and both paths repair the map. */
    std::array<RobEntry *, kNumRegs> renameProd_{};
    std::array<bool, kNumRegs> renameValid_{};

    FetchState fetch_;
    Cycle now_ = 0;
    Cycle fetchStallUntil_ = 0;
    std::uint64_t fetchBlockedOnSeq_ = RobEntry::kNoSeq;
    Addr lastFetchLine_ = ~Addr{0};
    unsigned inflightLoads_ = 0;
    unsigned inflightStores_ = 0;
    bool halted_ = false;
    bool eventsOn_ = false; ///< structured-sink flag, cached per run

    // Smallest seq of an unresolved control op (the Visibility Point
    // horizon), recomputed once per cycle from unresolvedCtls_.
    std::uint64_t oldestUnresolvedCtl_ = RobEntry::kNoSeq;
    /** Ticks whenever oldestUnresolvedCtl_ changes: the implicit
     * wake source of every blocked load (VP release, `speculative`
     * flips, STT taint clears — all tied to horizon movement). */
    std::uint64_t horizonGen_ = 0;
    /** Ticks whenever the fence/store fronts can recede: a store
     * issues (leaves pendingStores_), a fence completes (leaves
     * pendingFences_), or a squash chops either deque. A load that
     * failed its front checks at generation g fails them at every
     * retry until memGen_ != g, so those retries are elided. Starts
     * at 1 so a fresh entry's memGen (0) never matches. */
    std::uint64_t memGen_ = 1;

    // Fetch fast path: the current function's descriptor, resolved
    // once per front-end redirect instead of per micro-op.
    FuncId fetchFuncCached_ = kNoFunc;
    const Function *fetchFuncPtr_ = nullptr;

    /** The next op to fetch starts a straight-line block: set after
     * every front-end redirect (taken branch, call, return, squash,
     * restore) and after every terminator, cleared once an op is
     * fetched. A block's first op, and any op starting a new 64-byte
     * line (pc % 64 == 0), consults the I-cache; later ops of the
     * line were preceded by an op on the same line. */
    bool fetchBlockStart_ = true;

    // Sampled-simulation controller state (pipeline_sampling.cc).
    // The phase machine anchors on the cumulative committed-micro-op
    // count, so phases span run() boundaries and request streams; it
    // is re-anchored only by resetSampling().
    enum class SamplePhase : std::uint8_t
    {
        Skip,    ///< functional, no microarchitectural updates
        Warm,    ///< functional, caches/predictors/views driven
        Detailed ///< cycle-accurate, contributes to the estimate
    };
    bool sampleMode_ = false; ///< sampling latched for this run
    bool sampleInit_ = false; ///< phase machine anchored
    bool sampleFirstSkip_ = true; ///< next skip takes the seed jitter
    SamplePhase samplePhase_ = SamplePhase::Detailed;
    std::uint64_t samplePhaseEnd_ = 0; ///< phase boundary (committed)
    std::uint64_t sampleWindowStartInsts_ = 0;
    Cycle sampleWindowStartCycle_ = 0;
    SamplingEstimator sampler_;

    // -- incremental scheduling structures --------------------------------
    // All are keyed/sorted by seq; RobEntry pointers are stable (the
    // deque never relocates survivors) and every structure drops its
    // suffix on squash and the affected front entries on commit, so
    // no structure ever holds a pointer to a popped entry.

    /** Issue candidates (Waiting with ready operands, or Blocked),
     * sorted by seq. Entries leave only by issuing or by squash;
     * conflict-stalled entries are re-attempted every cycle, exactly
     * like the full-ROB scan did. Policy-blocked entries are only
     * re-gated when a wake condition holds (see GateWake); elided
     * cycles replicate the suppressed call's accounting exactly. */
    std::vector<std::pair<std::uint64_t, RobEntry *>> readyQ_;

    /** Completion calendar: a ring of per-cycle seq buckets plus a
     * (practically unused) sorted overflow list for events beyond
     * the ring span. Execution latencies are bounded far below the
     * span, so push and drain are O(1) where the (cycle, seq)
     * min-heap this replaces paid O(log n) per event. Drain order is
     * the heap's exactly: cycles ascending, seqs ascending within a
     * cycle. Squashed entries' events are dropped lazily on pop. */
    class EventRing
    {
      public:
        /** One completion event: the issued entry's seq (liveness
         * check, same contract as RobEntry::WakeEdge) plus its
         * permanent ring slot, so firing never searches the ROB. */
        struct Ev
        {
            std::uint64_t seq;
            RobEntry *entry;
        };

        void emplace(Cycle c, std::uint64_t seq, RobEntry *entry)
        {
            assert(c >= base_ && "event scheduled in the past");
            if (c - base_ >= kSlots) {
                auto it = std::lower_bound(
                    overflow_.begin(), overflow_.end(), c,
                    [](const auto &p, Cycle cc) {
                        return p.first < cc;
                    });
                while (it != overflow_.end() && it->first == c &&
                       it->second.seq < seq)
                    ++it;
                overflow_.insert(it, {c, {seq, entry}});
                return;
            }
            auto &b = slots_[c & kMask];
            b.push_back({seq, entry});
            for (std::size_t j = b.size() - 1;
                 j > 0 && b[j - 1].seq > b[j].seq; --j)
                std::swap(b[j - 1], b[j]);
        }
        /** Pop every event with cycle <= now, in (cycle, seq) order. */
        template <class F> void drainUpTo(Cycle now, F &&f)
        {
            while (base_ <= now) {
                auto &b = slots_[base_ & kMask];
                for (const Ev &ev : b)
                    f(ev);
                b.clear();
                ++base_;
                while (!overflow_.empty() &&
                       overflow_.front().first - base_ < kSlots) {
                    auto [c, ev] = overflow_.front();
                    overflow_.erase(overflow_.begin());
                    slots_[c & kMask].push_back(ev);
                }
            }
        }
        /** Reset; the next drain starts at @p base (events are only
         * ever scheduled for cycles > now). */
        void clear(Cycle base)
        {
            for (auto &b : slots_)
                b.clear();
            overflow_.clear();
            base_ = base;
        }

      private:
        static constexpr std::size_t kSlots = 1024;
        static constexpr std::size_t kMask = kSlots - 1;
        std::array<std::vector<Ev>, kSlots> slots_{};
        std::vector<std::pair<Cycle, Ev>> overflow_;
        Cycle base_ = 0; ///< oldest undrained cycle
    };
    EventRing eventQ_;

    /** All in-flight stores (dispatch to commit), seq order. */
    std::deque<std::pair<std::uint64_t, RobEntry *>> storeQ_;
    /** Seqs of stores that have not issued yet (address unknown). */
    std::vector<std::uint64_t> pendingStores_;
    /** Seqs of fences that are not Done yet. */
    std::deque<std::uint64_t> pendingFences_;
    /** Dispatched control ops as (seq, permanent ring slot);
     * resolved/dead fronts are popped lazily by horizonSeq(), which
     * validates the slot by seq instead of searching the ROB. */
    std::deque<std::pair<std::uint64_t, RobEntry *>> unresolvedCtls_;

    /** Mid-run kernel events (scheduleAt), fired by the run loop
     * once now_ reaches their cycle. Unsorted — the list is tiny
     * (a scenario schedules a handful) and scanned only while
     * nonempty. */
    std::vector<std::pair<Cycle, std::function<void()>>> scheduled_;
};

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_PIPELINE_HH
