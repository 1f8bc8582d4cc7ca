/**
 * @file
 * The fast-forward engine (PipelineParams::fastForward, DESIGN §5.5):
 * two exact mechanisms that let the core sprint through work the
 * detailed out-of-order machinery would simulate one cycle at a time.
 *
 *  1. Idle-cycle skip (skipIdleCycles): when provably nothing can
 *     change — no due completion, empty ready queue, commit head not
 *     Done, front end stalled/blocked, no scheduled callback — now_
 *     jumps directly to the next bounding event. Kernel entry/exit
 *     microcode stalls, mispredict redirect penalties and DRAM-bound
 *     front-end stalls all collapse to O(1).
 *
 *  2. Quiescent-point region execution (fastForwardRegion): with the
 *     ROB empty and the front end clean, the upcoming straight-line
 *     run (no control ops, no fences — hence non-speculative by
 *     construction, no gate checks, no taint, no squashes) executes
 *     on a compact replica of the commit/execute/fetch phases. The
 *     replica observes the same caches, TLB and memory in the same
 *     per-cycle order, so every latency and counter is bit-identical;
 *     at the first terminator the in-flight suffix is materialized
 *     back into real ROB entries and the detailed path resumes
 *     mid-cycle with the remaining fetch width.
 *
 * Both mechanisms are timing-exact: a fastForward run reports the
 * same cycles, committed-op counts, stats and histogram samples as
 * the detailed run, which tests/sim/test_fastforward.cc enforces
 * differentially.
 */

#include "pipeline.hh"

#include <algorithm>
#include <cassert>
#include <limits>

namespace perspective::sim
{

void
Pipeline::skipIdleCycles()
{
    // All conditions below are monotone until one of the bounding
    // events, so cycles strictly between now_ and the bound perform
    // no state change at all (and sample no telemetry: fast-forward
    // mode requires detailedTelemetry off).
    if (!readyQ_.empty())
        return; // issue phase has work (or a blocked-elision count)
    if (!rob_.empty() && rob_.front().state == EState::Done)
        return; // commits next cycle
    bool fetchCan = !halted_ && !fetch_.halted &&
                    fetchBlockedOnSeq_ == RobEntry::kNoSeq &&
                    fetchStallUntil_ <= now_ + 1 &&
                    rob_.size() < params_.robSize;
    if (fetchCan)
        return;

    constexpr Cycle kNever = std::numeric_limits<Cycle>::max();
    Cycle bound = kNever;
    if (!eventQ_.empty())
        bound = std::min(bound, eventQ_.nextCycle());
    if (!halted_ && !fetch_.halted &&
        fetchBlockedOnSeq_ == RobEntry::kNoSeq)
        bound = std::min(bound, fetchStallUntil_);
    for (const auto &s : scheduled_)
        bound = std::min(bound, s.first);
    if (bound == kNever || bound <= now_ + 1)
        return; // unbounded (deadlock path: let maxCycles fire
                // exactly as the detailed loop would) or imminent
    ctrFfCycles_.inc(bound - 1 - now_);
    now_ = bound - 1; // the next ++now_ lands on the bounding event
}

unsigned
Pipeline::fastForwardRegion()
{
    // Entered from doFetch at a quiescent point: ROB (hence every
    // scheduling structure) empty, front end clean and unstalled, no
    // scheduled kernel events, ledger disarmed, policy consenting.
    // From here the machine is deterministic and non-speculative
    // until the next predictor-resolved control op or fence: Jump and
    // Call redirect fetch in the same cycle without entering the
    // predictors' resolution path, so regions chain across them (the
    // kernel-entry stall included). The replica below runs the same
    // commit -> complete -> issue -> fetch phases against the same
    // caches/TLB/memory in the same order, so every latency, counter
    // and histogram sample lands exactly as in the detailed loop.

    // A region holds straight-line ops plus the Jumps and Calls that
    // chain it; the first predictor-resolved control op, fence, or
    // the end of a body (which the detailed path asserts on) ends it.
    auto endsRegion = [](const Function &fn, std::uint32_t idx) {
        if (idx >= fn.body.size())
            return true;
        Op o = fn.body[idx].op;
        return o >= Op::Branch && o != Op::Jump && o != Op::Call;
    };
    if (fetch_.func != fetchFuncCached_) {
        fetchFuncCached_ = fetch_.func;
        fetchFuncPtr_ = &prog_.func(fetch_.func);
    }
    if (endsRegion(*fetchFuncPtr_, fetch_.idx))
        return 0; // a resolver-terminator is up next

    SpeculationPolicy *pol = policy_ ? policy_ : &unsafe_;
    FuncId curFunc = fetch_.func;
    const Function *curFn = fetchFuncPtr_;
    std::uint32_t curIdx = fetch_.idx;
    bool blockStart = fetchBlockStart_;
    const std::uint64_t seqBase = nextSeq_;
    const Cycle entryNow = now_;

    ffEnts_.clear();
    ffReady_.clear();
    ffHeap_.clear();
    ffStores_.clear();
    ffPendSt_.clear();
    ffWake_.clear();
    ffRegWriter_.fill(-1);

    std::size_t head = 0; ///< next region index to commit
    unsigned lds = 0, sts = 0; ///< uncommitted loads/stores
    unsigned fetched = 0; ///< ops dispatched in the current cycle
    bool ended = false;

    // captureOperand against region producers: the rename map is all
    // invalid at engagement (empty ROB), so a register reads its last
    // uncommitted region writer, else the architectural file (which
    // region commits keep up to date, exactly like applyCommit).
    auto capture = [&](FfEntry &e, unsigned slot, RegId reg) {
        if (reg == kNoReg)
            return; // defaults: ready, value 0, no producer
        e.srcReg[slot] = reg;
        std::int32_t w = ffRegWriter_[reg];
        if (w >= 0 && ffEnts_[w].state != 3) {
            e.srcProd[slot] = w;
            if (ffEnts_[w].state == 2)
                e.srcVal[slot] = ffEnts_[w].result;
            else
                e.srcReady[slot] = false;
        } else {
            e.srcVal[slot] = regs_[reg];
        }
    };

    auto heapPush = [&](Cycle c, std::uint32_t id) {
        ffHeap_.emplace_back(c, id);
        std::push_heap(ffHeap_.begin(), ffHeap_.end(),
                       std::greater<>{});
    };

    // One issue attempt, mirroring tryIssue/tryIssueLoad for the
    // non-speculative op classes a region can hold. No gate checks
    // (never speculative), no fence case (fences end regions).
    auto tryIssueFf = [&](FfEntry &e, std::uint32_t id) -> bool {
        switch (e.op->op) {
          case Op::Load: {
            if (!e.addrValid) {
                Addr base = e.op->src1 != kNoReg ? e.srcVal[0] : 0;
                e.effAddr =
                    base + static_cast<std::uint64_t>(e.op->imm);
                e.addrValid = true;
            }
            if (!ffPendSt_.empty() && ffPendSt_.front() < id)
                return false; // older store address unknown
            bool fwd = false;
            std::uint64_t fwdVal = 0;
            for (auto it = ffStores_.rbegin();
                 it != ffStores_.rend(); ++it) {
                if (*it >= id)
                    continue;
                if (ffEnts_[*it].effAddr == e.effAddr) {
                    fwd = true;
                    fwdVal = ffEnts_[*it].result;
                    break;
                }
            }
            Cycle lat;
            if (fwd) {
                lat = 1;
                e.result = fwdVal;
            } else {
                Cycle tlbLat = dtlb_.translate(e.effAddr, asid_);
                Cycle memLat = caches_.accessData(e.effAddr, &stats_);
                lat = memLat + (tlbLat > 1 ? tlbLat : 0);
                e.result = mem_.read(e.effAddr);
            }
            e.state = 1;
            e.issue = now_;
            e.done = now_ + lat;
            heapPush(e.done, id);
            histLoadWait_->sample(now_ - e.dispatch);
            ctrLoads_.inc();
            return true;
          }
          case Op::Store: {
            Addr base = e.op->src1 != kNoReg ? e.srcVal[0] : 0;
            e.effAddr = base + static_cast<std::uint64_t>(e.op->imm);
            e.addrValid = true;
            e.result = e.srcVal[1];
            auto it = std::lower_bound(ffPendSt_.begin(),
                                       ffPendSt_.end(), id);
            assert(it != ffPendSt_.end() && *it == id);
            ffPendSt_.erase(it);
            e.state = 1;
            e.issue = now_;
            e.done = now_ + 1;
            heapPush(e.done, id);
            return true;
          }
          case Op::Call: {
            // Return-address push: allocate the stack line.
            if (e.effAddr != 0)
                caches_.accessData(e.effAddr, &stats_);
            e.state = 1;
            e.issue = now_;
            e.done = now_ + 1;
            heapPush(e.done, id);
            return true;
          }
          case Op::IntMul: {
            std::uint64_t b =
                e.op->src2 != kNoReg
                    ? e.srcVal[1]
                    : static_cast<std::uint64_t>(e.op->imm);
            e.result = evalAluOp(*e.op, e.srcVal[0], b);
            e.state = 1;
            e.issue = now_;
            e.done = now_ + 3;
            heapPush(e.done, id);
            return true;
          }
          case Op::Nop:
          case Op::Jump: {
            e.state = 1;
            e.issue = now_;
            e.done = now_ + 1;
            heapPush(e.done, id);
            return true;
          }
          default: { // IntAlu
            std::uint64_t b =
                e.op->src2 != kNoReg
                    ? e.srcVal[1]
                    : static_cast<std::uint64_t>(e.op->imm);
            e.result = evalAluOp(*e.op, e.srcVal[0], b);
            e.state = 1;
            e.issue = now_;
            e.done = now_ + 1;
            heapPush(e.done, id);
            return true;
          }
        }
    };

    auto commitPhase = [&]() {
        unsigned n = 0;
        while (head < ffEnts_.size() && n < params_.width) {
            FfEntry &e = ffEnts_[head];
            if (e.state != 2)
                break;
            if (e.op->dst != kNoReg)
                regs_[e.op->dst] = e.result;
            if (e.op->op == Op::Store) {
                mem_.write(e.effAddr, e.srcVal[1]);
                caches_.accessData(e.effAddr, &stats_);
                assert(!ffStores_.empty() &&
                       ffStores_.front() == head);
                ffStores_.erase(ffStores_.begin());
                --sts;
            } else if (e.op->op == Op::Load) {
                --lds;
            }
            ctrCommitted_.inc();
            if (e.kernel)
                ctrCommittedKernel_.inc();
            ctrFfUops_.inc();
            e.state = 3;
            ++head;
            ++n;
        }
    };

    auto completePhase = [&]() {
        while (!ffHeap_.empty() && ffHeap_.front().first <= now_) {
            std::uint32_t id = ffHeap_.front().second;
            std::pop_heap(ffHeap_.begin(), ffHeap_.end(),
                          std::greater<>{});
            ffHeap_.pop_back();
            FfEntry &e = ffEnts_[id];
            e.state = 2;
            for (std::int32_t w = e.wakeHead; w >= 0;) {
                const FfWake &wn = ffWake_[w];
                FfEntry &c = ffEnts_[wn.cons];
                c.srcVal[wn.slot] = e.result;
                c.srcReady[wn.slot] = true;
                if (--c.pendingSrcs == 0) {
                    auto it = std::lower_bound(ffReady_.begin(),
                                               ffReady_.end(),
                                               wn.cons);
                    ffReady_.insert(it, wn.cons);
                }
                w = wn.next;
            }
            e.wakeHead = -1;
        }
    };

    auto issuePhase = [&]() {
        unsigned issues = 0;
        std::size_t keep = 0;
        for (std::size_t i = 0; i < ffReady_.size(); ++i) {
            std::uint32_t id = ffReady_[i];
            if (issues < params_.width &&
                tryIssueFf(ffEnts_[id], id)) {
                ++issues;
                continue;
            }
            ffReady_[keep++] = id;
        }
        ffReady_.resize(keep);
    };

    auto fetchPhase = [&]() {
        while (fetched < params_.width &&
               ffEnts_.size() - head < params_.robSize) {
            if (endsRegion(*curFn, curIdx)) {
                ended = true;
                return;
            }
            const MicroOp &op = curFn->body[curIdx];
            if (op.op == Op::Load && lds >= params_.lqSize)
                return;
            if (op.op == Op::Store && sts >= params_.sqSize)
                return;
            Addr pc = curFn->instAddr(curIdx);
            if (blockStart || pc % 64 == 0) {
                Addr line = pc / 64;
                if (line != lastFetchLine_) {
                    lastFetchLine_ = line;
                    Cycle lat = caches_.accessInst(pc, &stats_);
                    if (lat > caches_.l1i().params().hit_latency) {
                        fetchStallUntil_ = now_ + lat;
                        return;
                    }
                }
            }

            FfEntry e;
            e.op = &op;
            e.pc = pc;
            e.func = curFunc;
            e.idx = curIdx;
            e.kernel = curFn->kernel;
            e.dispatch = now_;
            switch (op.op) {
              case Op::IntAlu:
              case Op::IntMul:
              case Op::Store:
                capture(e, 0, op.src1);
                capture(e, 1, op.src2);
                break;
              case Op::Load:
                capture(e, 0, op.src1);
                break;
              default:
                break;
            }

            bool stopFetch = false;
            blockStart = op.op == Op::Jump || op.op == Op::Call;
            switch (op.op) {
              case Op::Jump:
                curIdx = op.target;
                break;
              case Op::Call: {
                Frame fr;
                fr.func = curFunc;
                fr.retIdx = curIdx + 1;
                fr.slotVa =
                    stackBase_ - 8 * (fetch_.stack.size() + 1);
                e.effAddr = fr.slotVa;
                fetch_.stack.push_back(fr);
                rsb_.push({fr.func, fr.retIdx});
                const Function &callee = prog_.func(op.callee);
                if (callee.kernel && !curFn->kernel) {
                    Cycle c = params_.kernelEntryCost +
                              pol->kernelEntryCost();
                    if (c > 0)
                        fetchStallUntil_ = now_ + c;
                    stats_.inc("kernel_entries");
                }
                curFunc = op.callee;
                curFn = &callee;
                curIdx = 0;
                stopFetch = fetchStallUntil_ > now_;
                break;
              }
              default:
                curIdx += 1;
                break;
            }

            std::uint32_t id =
                static_cast<std::uint32_t>(ffEnts_.size());
            e.pendingSrcs = static_cast<std::uint8_t>(
                unsigned{!e.srcReady[0]} + unsigned{!e.srcReady[1]});
            ffEnts_.push_back(e);
            for (unsigned s = 0; s < 2; ++s) {
                if (!ffEnts_[id].srcReady[s]) {
                    FfEntry &p = ffEnts_[ffEnts_[id].srcProd[s]];
                    ffWake_.push_back(
                        {id, static_cast<std::uint8_t>(s),
                         p.wakeHead});
                    p.wakeHead =
                        static_cast<std::int32_t>(ffWake_.size()) - 1;
                }
            }
            if (ffEnts_[id].pendingSrcs == 0)
                ffReady_.push_back(id); // youngest: append keeps order
            if (op.dst != kNoReg)
                ffRegWriter_[op.dst] = static_cast<std::int32_t>(id);
            if (op.op == Op::Load) {
                ++lds;
            } else if (op.op == Op::Store) {
                ffStores_.push_back(id);
                ffPendSt_.push_back(id);
                ++sts;
            }
            ctrFetched_.inc();
            ++fetched;
            if (stopFetch)
                return;
        }
    };

    // The engagement cycle's remaining fetch phase (commit/execute
    // already ran in the detailed loop this cycle), then full replica
    // cycles until the region's terminator comes up for fetch.
    fetchPhase();
    while (!ended) {
        // Intra-region idle skip: same argument as skipIdleCycles.
        if (ffReady_.empty() &&
            (head == ffEnts_.size() || ffEnts_[head].state != 2)) {
            bool fetchCan =
                fetchStallUntil_ <= now_ + 1 &&
                ffEnts_.size() - head < params_.robSize;
            if (!fetchCan) {
                constexpr Cycle kNever =
                    std::numeric_limits<Cycle>::max();
                Cycle bound = kNever;
                if (!ffHeap_.empty())
                    bound = std::min(bound, ffHeap_.front().first);
                if (ffEnts_.size() - head < params_.robSize)
                    bound = std::min(bound, fetchStallUntil_);
                if (bound != kNever && bound > now_ + 1)
                    now_ = bound - 1;
            }
        }
        ++now_;
        commitPhase();
        completePhase();
        issuePhase();
        fetched = 0;
        if (now_ >= fetchStallUntil_)
            fetchPhase();
    }

    // Materialize the in-flight suffix back into the ROB and hand the
    // cycle's remaining fetch width to the detailed path, which will
    // dispatch the terminator itself.
    fetch_.func = curFunc;
    fetch_.idx = curIdx;
    fetchBlockStart_ = blockStart;
    nextSeq_ = seqBase + ffEnts_.size();
    ctrFfEntries_.inc();
    ctrFfCycles_.inc(now_ - entryNow);

    assert(rob_.empty() && readyQ_.empty() && storeQ_.empty() &&
           pendingStores_.empty() && pendingFences_.empty());
    for (std::size_t i = head; i < ffEnts_.size(); ++i) {
        const FfEntry &e = ffEnts_[i];
        RobEntry r;
        r.seq = seqBase + i;
        r.func = e.func;
        r.idx = e.idx;
        r.pc = e.pc;
        r.op = e.op;
        r.kernel = e.kernel;
        r.state = e.state == 0   ? EState::Waiting
                  : e.state == 1 ? EState::Executing
                                 : EState::Done;
        r.doneCycle = e.done;
        r.dispatchCycle = e.dispatch;
        r.issueCycle = e.issue;
        r.result = e.result;
        for (unsigned s = 0; s < 2; ++s) {
            r.srcProd[s] =
                e.srcProd[s] >= 0
                    ? seqBase +
                          static_cast<std::uint64_t>(e.srcProd[s])
                    : RobEntry::kNoSeq;
            r.srcVal[s] = e.srcVal[s];
            r.srcReady[s] = e.srcReady[s];
            r.srcReg[s] = e.srcReg[s];
        }
        r.pendingSrcs = e.pendingSrcs;
        r.effAddr = e.effAddr;
        r.addrValid = e.addrValid;
        rob_.pushSlot() = std::move(r);
    }
    for (std::size_t i = head; i < ffEnts_.size(); ++i) {
        const FfEntry &e = ffEnts_[i];
        RobEntry &r = rob_[i - head];
        if (r.op->dst != kNoReg) {
            renameMap_[r.op->dst] = r.seq;
            renameProd_[r.op->dst] = &r;
            renameValid_[r.op->dst] = true;
        }
        for (unsigned s = 0; s < 2; ++s) {
            if (!r.srcReady[s]) {
                RobEntry &p = rob_[static_cast<std::size_t>(
                                       e.srcProd[s]) -
                                   head];
                r.srcProdPtr[s] = &p;
                p.wakeup.push_back({&r, r.seq, s});
            }
        }
        if (r.state == EState::Waiting && r.pendingSrcs == 0)
            readyQ_.emplace_back(r.seq, &r);
        else if (r.state == EState::Executing)
            eventQ_.emplace(r.doneCycle, r.seq, &r);
        if (e.op->op == Op::Store) {
            storeQ_.emplace_back(r.seq, &r);
            if (!r.addrValid)
                pendingStores_.push_back(r.seq);
            ++inflightStores_;
        } else if (e.op->op == Op::Load) {
            ++inflightLoads_;
        }
    }
    return fetched;
}

namespace
{

/** splitmix64: mixes the sampling seed into the first-skip jitter. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

void
Pipeline::samplingStep(SpeculationPolicy &pol)
{
    // Called at the quiescent engagement point in sampled mode
    // (DESIGN §5.8). The phase machine anchors on the cumulative
    // committed-micro-op count so phases span run() boundaries; a
    // measured phase opens with a detailed window (Experiment calls
    // resetSampling at its warmup boundary), guaranteeing even short
    // streams contribute at least one observation, and the first skip
    // takes a seed-derived jitter so window alignment varies across
    // seeds while the period — the systematic-sampling invariant —
    // stays constant afterwards.
    const SamplingParams &sp = params_.sampling;
    if (!sampleInit_) {
        sampleInit_ = true;
        samplePhase_ = SamplePhase::Detailed;
        std::uint64_t committed = ctrCommitted_.value();
        sampleWindowStartInsts_ = committed;
        sampleWindowStartCycle_ = now_;
        samplePhaseEnd_ =
            sp.windowInsts == SamplingParams::kInfiniteWindow
                ? SamplingParams::kInfiniteWindow
                : committed + sp.windowInsts;
    }
    for (;;) {
        std::uint64_t committed = ctrCommitted_.value();
        if (committed < samplePhaseEnd_) {
            if (samplePhase_ == SamplePhase::Detailed)
                return; // the detailed/FF path runs the window
            functionalAdvance(samplePhaseEnd_ - committed,
                              samplePhase_ == SamplePhase::Warm, pol);
            if (halted_ || fetch_.halted)
                return;
            continue;
        }
        // Phase boundary (the detailed window may overshoot it: the
        // machine only re-engages at quiescent points, and windows
        // record their *actual* cycle and instruction counts).
        std::uint64_t skipBase =
            sp.periodInsts > sp.windowInsts + sp.warmingInsts
                ? sp.periodInsts - sp.windowInsts - sp.warmingInsts
                : 0;
        switch (samplePhase_) {
          case SamplePhase::Detailed: {
            sampler_.addWindow(now_ - sampleWindowStartCycle_,
                               committed - sampleWindowStartInsts_);
            std::uint64_t skip = skipBase;
            if (sampleFirstSkip_) {
                sampleFirstSkip_ = false;
                skip = mix64(sp.seed) % (skipBase + 1);
            }
            samplePhase_ = SamplePhase::Skip;
            samplePhaseEnd_ = committed + skip;
            break;
          }
          case SamplePhase::Skip:
            samplePhase_ = SamplePhase::Warm;
            samplePhaseEnd_ = committed + sp.warmingInsts;
            break;
          case SamplePhase::Warm:
            samplePhase_ = SamplePhase::Detailed;
            sampleWindowStartInsts_ = committed;
            sampleWindowStartCycle_ = now_;
            samplePhaseEnd_ = committed + sp.windowInsts;
            break;
        }
    }
}

void
Pipeline::functionalAdvance(std::uint64_t budget, bool warm,
                            SpeculationPolicy &pol)
{
    // Architectural-only execution for the functional sampling phases
    // (DESIGN §5.8): the machine is at a quiescent point, so
    // registers, memory and control flow advance with the same
    // semantics as kernel::Interpreter — no timing (now_ is frozen),
    // no speculation, no squashes, and like fast-forward regions
    // nothing here is ever classified by the leakage ledger
    // (classification requires speculation). In the warm phase the
    // structures a later detailed window reads through — L1I/L1D/L2,
    // D-TLB, conditional predictor, BTB, RSB, and the policy's view
    // caches via warmAccess — are driven with accounting-free
    // accesses; the skip phase touches nothing microarchitectural.
    // Only the committed-micro-op counters advance.
    fetchBlockStart_ = true; // the front end moves

    FuncId func = fetch_.func;
    std::uint32_t idx = fetch_.idx;
    const Function *fn = &prog_.func(func);
    bool blockStart = true;

    std::uint64_t done = 0;
    while (done < budget) {
        assert(idx < fn->body.size() &&
               "functional advance ran off a function body");
        const MicroOp &op = fn->body[idx];
        const Addr pc = fn->instAddr(idx);
        if (warm && (blockStart || pc % 64 == 0)) {
            Addr line = pc / 64;
            if (line != lastFetchLine_) {
                lastFetchLine_ = line;
                caches_.accessInst(pc, nullptr);
            }
        }
        blockStart = op.op >= Op::Branch;
        ++done;
        ctrCommitted_.inc();
        if (fn->kernel)
            ctrCommittedKernel_.inc();

        switch (op.op) {
          case Op::Load: {
            Addr ea = (op.src1 != kNoReg ? regs_[op.src1] : 0) +
                      static_cast<std::uint64_t>(op.imm);
            if (warm) {
                dtlb_.translate(ea, asid_);
                caches_.accessData(ea, nullptr);
                if (fn->kernel) {
                    SpecContext ctx;
                    ctx.pc = pc;
                    ctx.dataVa = ea;
                    ctx.func = func;
                    ctx.kernelMode = true;
                    ctx.asid = asid_;
                    ctx.now = now_;
                    pol.warmAccess(ctx);
                }
            }
            regs_[op.dst] = mem_.read(ea);
            ++idx;
            break;
          }
          case Op::Store: {
            Addr ea = (op.src1 != kNoReg ? regs_[op.src1] : 0) +
                      static_cast<std::uint64_t>(op.imm);
            mem_.write(ea, op.src2 != kNoReg ? regs_[op.src2] : 0);
            if (warm)
                caches_.accessData(ea, nullptr);
            ++idx;
            break;
          }
          case Op::Branch: {
            std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
            std::uint64_t b =
                op.src2 != kNoReg
                    ? regs_[op.src2]
                    : static_cast<std::uint64_t>(op.imm);
            bool taken = evalCondOp(op.cond, a, b);
            if (warm) {
                // Net architectural effect of a correctly predicted,
                // resolved branch: history advanced by the outcome,
                // tables trained against the pre-branch history.
                std::uint64_t h = cond_.history();
                cond_.speculate(taken);
                cond_.update(pc, taken, h);
            }
            idx = taken ? op.target : idx + 1;
            break;
          }
          case Op::Jump:
            idx = op.target;
            break;
          case Op::Call: {
            Frame fr;
            fr.func = func;
            fr.retIdx = idx + 1;
            fr.slotVa = stackBase_ - 8 * (fetch_.stack.size() + 1);
            fetch_.stack.push_back(fr);
            if (warm) {
                rsb_.push({fr.func, fr.retIdx});
                caches_.accessData(fr.slotVa, nullptr);
            }
            func = op.callee;
            fn = &prog_.func(func);
            idx = 0;
            break;
          }
          case Op::IndirectCall: {
            std::uint64_t raw =
                op.src1 != kNoReg ? regs_[op.src1] : 0;
            if (!validCallTarget(prog_, raw)) {
                // Wild pointer: architected no-op call.
                idx += 1;
                break;
            }
            if (warm)
                btb_.update(pc, static_cast<FuncId>(raw));
            Frame fr;
            fr.func = func;
            fr.retIdx = idx + 1;
            fr.slotVa = stackBase_ - 8 * (fetch_.stack.size() + 1);
            fetch_.stack.push_back(fr);
            if (warm) {
                rsb_.push({fr.func, fr.retIdx});
                caches_.accessData(fr.slotVa, nullptr);
            }
            func = static_cast<FuncId>(raw);
            fn = &prog_.func(func);
            idx = 0;
            break;
          }
          case Op::Return: {
            if (fetch_.stack.empty()) {
                // Outermost return: the run is over (the op counts,
                // exactly like the committing detailed return).
                fetch_.halted = true;
                halted_ = true;
                fetch_.func = func;
                fetch_.idx = idx;
                return;
            }
            Frame truth = fetch_.stack.back();
            fetch_.stack.pop_back();
            if (warm) {
                rsb_.pop();
                caches_.accessData(truth.slotVa, nullptr);
            }
            func = truth.func;
            fn = &prog_.func(func);
            idx = truth.retIdx;
            break;
          }
          case Op::Fence:
            // Architecturally a no-op; it only orders the detailed
            // machine, which is idle here.
            idx += 1;
            break;
          default: { // straight-line ALU ops (IntAlu, IntMul, Nop)
            if (op.dst != kNoReg) {
                std::uint64_t a =
                    op.src1 != kNoReg ? regs_[op.src1] : 0;
                std::uint64_t b =
                    op.src2 != kNoReg
                        ? regs_[op.src2]
                        : static_cast<std::uint64_t>(op.imm);
                regs_[op.dst] = evalAluOp(op, a, b);
            }
            ++idx;
            break;
          }
        }
    }

    fetch_.func = func;
    fetch_.idx = idx;
}

} // namespace perspective::sim
