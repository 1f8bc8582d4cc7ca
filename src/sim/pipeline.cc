#include "pipeline.hh"

#include "trace.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace perspective::sim
{

namespace
{

/** Default user-mode stack base when the driver sets none. */
constexpr Addr kDefaultStackBase = 0x0000'7fff'ff00'0000;

} // namespace

Pipeline::Pipeline(const Program &prog, Memory &mem,
                   PipelineParams params)
    : prog_(prog),
      mem_(mem),
      params_(params),
      caches_(defaultL1I(), defaultL1D(), defaultL2(),
              params.dramLatency),
      dtlb_(512, 4, 30),
      stackBase_(kDefaultStackBase)
{
    rob_.init(params_.robSize);
    renameValid_.fill(false);
    ledger_.setEnabled(params_.leakLedger);

    // Resolve hot-path stat names once; per-cycle code then bumps
    // through stable handles instead of string-keyed map lookups.
    ctrCommitted_ = stats_.counter("committed");
    ctrCommittedKernel_ = stats_.counter("committed.kernel");
    ctrFetched_ = stats_.counter("fetched");
    ctrLoads_ = stats_.counter("loads");
    ctrLoadsSpec_ = stats_.counter("loads.speculative");
    ctrLoadsInvisible_ = stats_.counter("loads.invisible");
    ctrBlockedCycles_ = stats_.counter("blocked_cycles");
    ctrSquashedUops_ = stats_.counter("squashed_uops");
    ctrFences_ = stats_.counter("fences");
    ctrFencesKernel_ = stats_.counter("fences.kernel");
    ctrMispredicts_ = stats_.counter("mispredicts");
    ctrSquashes_ = stats_.counter("squashes");
    ctrGateChecks_ = stats_.counter("gate.checks");
    ctrGateElided_ = stats_.counter("gate.elided");

    // Registered up front so every run — even one with no squash or
    // fence — reports the full set of distribution summaries.
    histRobOcc_ = &stats_.histogram("rob_occupancy");
    histFenceStall_ = &stats_.histogram("fence_stall_cycles");
    histSquashDepth_ = &stats_.histogram("squash_depth");
    histLoadWait_ = &stats_.histogram("load_issue_wait");
    tsRobOcc_ = &stats_.timeSeries("rob_occupancy");
    tsCommitted_ = &stats_.timeSeries("committed");
    tsFences_ = &stats_.timeSeries("fences");
}

void
Pipeline::recordSpan(trace::Flag flag, const RobEntry &e, Cycle start,
                     const char *suffix)
{
    trace::Event ev;
    ev.flag = flag;
    ev.start = start;
    ev.dur = now_ > start ? now_ - start : 0;
    ev.issue = e.issueCycle;
    ev.seq = e.seq;
    ev.kernel = e.kernel;
    ev.name = e.op->toString();
    if (suffix)
        ev.name += suffix;
    ev.func = prog_.func(e.func).name + "[" +
              std::to_string(e.idx) + "]";
    trace::eventLog()->record(std::move(ev));
}

void
Pipeline::noteFenceStallEnd(const RobEntry &e)
{
    if (!e.counted)
        return; // never blocked
    histFenceStall_->sample(now_ - e.blockedSince);
    if (eventsOn_)
        recordSpan(trace::Flag::Fence, e, e.blockedSince);
}

void
Pipeline::setPolicy(SpeculationPolicy *policy)
{
    policy_ = policy;
    if (policy_)
        policy_->setStats(&stats_);
}

Pipeline::RobEntry *
Pipeline::findBySeq(std::uint64_t seq)
{
    if (rob_.empty() || seq < rob_.front().seq ||
        seq > rob_.back().seq)
        return nullptr;
    // Seqs are dense except for squash holes (nextSeq_ never rewinds),
    // so seq - frontSeq is an upper bound on the index and exact when
    // no hole sits below — the overwhelmingly common case: one probe.
    std::size_t i =
        static_cast<std::size_t>(seq - rob_.front().seq);
    if (i >= rob_.size())
        i = rob_.size() - 1;
    // Walk down past squash holes; in a pathological squash storm the
    // hole count can exceed the ROB's depth budget, so bound the walk
    // and fall back to binary search over the remaining prefix.
    for (unsigned probes = 0; probes < 16; ++probes) {
        RobEntry &e = rob_[i];
        if (e.seq == seq)
            return &e;
        if (e.seq < seq || i == 0)
            return nullptr;
        --i;
    }
    std::size_t lo = 0, hi = i + 1; // seqs ascend over [0, i]
    while (lo < hi) {
        std::size_t mid = (lo + hi) / 2;
        if (rob_[mid].seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo <= i && rob_[lo].seq == seq)
        return &rob_[lo];
    return nullptr;
}

void
Pipeline::captureOperand(RobEntry &e, unsigned slot, RegId reg)
{
    e.srcReg[slot] = reg;
    if (reg == kNoReg) {
        e.srcReady[slot] = true;
        e.srcVal[slot] = 0;
        e.srcLeakTaint[slot] = 0;
        e.srcProd[slot] = RobEntry::kNoSeq;
        e.srcProdPtr[slot] = nullptr;
        return;
    }
    if (renameValid_[reg]) {
        std::uint64_t pseq = renameMap_[reg];
        RobEntry *p = renameProd_[reg];
        assert(p && p->seq == pseq &&
               "rename map points at a live entry");
        e.srcProd[slot] = pseq;
        e.srcProdPtr[slot] = p;
        if (p->state == EState::Done) {
            e.srcVal[slot] = p->result;
            e.srcLeakTaint[slot] = p->leakTaint;
            e.srcReady[slot] = true;
        } else {
            // Value and leak taint arrive via the producer's wakeup
            // edge; pre-clear the taint so a recycled slot cannot
            // smuggle a previous occupant's.
            e.srcLeakTaint[slot] = 0;
            e.srcReady[slot] = false;
        }
    } else {
        // Architectural-file read: committed values carry no live
        // leak taint (their sources retired at commit).
        e.srcVal[slot] = regs_[reg];
        e.srcLeakTaint[slot] = 0;
        e.srcReady[slot] = true;
        e.srcProd[slot] = RobEntry::kNoSeq;
        e.srcProdPtr[slot] = nullptr;
    }
}

void
Pipeline::registerDispatch(RobEntry &e)
{
    // Dependence wakeup lists: instead of every waiting entry polling
    // its producers each cycle, a completing producer pushes its
    // result to registered (consumer, slot) pairs. A producer always
    // reaches Done before it can commit, so consumers never need the
    // architectural-file fallback the polling scan had.
    e.pendingSrcs = 0;
    for (unsigned s = 0; s < 2; ++s) {
        if (e.srcReady[s])
            continue;
        ++e.pendingSrcs;
        RobEntry *p = e.srcProdPtr[s];
        assert(p && p->seq == e.srcProd[s] &&
               "unready operand has a live producer");
        p->wakeup.push_back({&e, e.seq, s});
    }
    if (e.pendingSrcs == 0)
        readyQ_.emplace_back(e.seq, &e); // youngest: append keeps order

    switch (e.op->op) {
      case Op::Store:
        storeQ_.emplace_back(e.seq, &e);
        pendingStores_.push_back(e.seq);
        break;
      case Op::Fence:
        pendingFences_.push_back(e.seq);
        break;
      default:
        break;
    }
    if (e.isControl)
        unresolvedCtls_.emplace_back(e.seq, &e);
}

void
Pipeline::enqueueReady(RobEntry &e)
{
    auto it = std::lower_bound(
        readyQ_.begin(), readyQ_.end(), e.seq,
        [](const auto &p, std::uint64_t s) { return p.first < s; });
    readyQ_.emplace(it, e.seq, &e);
}

void
Pipeline::onComplete(RobEntry &e)
{
    for (const RobEntry::WakeEdge &w : e.wakeup) {
        RobEntry *c = w.consumer;
        if (c->seq != w.seq || c->srcReady[w.slot])
            continue; // consumer squashed since registration
        c->srcVal[w.slot] = e.result;
        c->srcLeakTaint[w.slot] = e.leakTaint;
        c->srcReady[w.slot] = true;
        if (--c->pendingSrcs == 0)
            enqueueReady(*c);
    }
    e.wakeup.clear();
    if (e.op->op == Op::Fence) {
        auto it = std::lower_bound(pendingFences_.begin(),
                                   pendingFences_.end(), e.seq);
        if (it != pendingFences_.end() && *it == e.seq) {
            pendingFences_.erase(it);
            ++memGen_;
        }
    }
}

std::uint64_t
Pipeline::horizonSeq()
{
    while (!unresolvedCtls_.empty()) {
        auto [seq, e] = unresolvedCtls_.front();
        // Slot validation: a squashed ctl's seq was invalidated, a
        // recycled slot carries a different seq, and a committed ctl
        // keeps its seq but was necessarily resolved first.
        if (e->seq == seq && !e->resolved)
            return seq;
        unresolvedCtls_.pop_front(); // resolved, committed or dead
    }
    return RobEntry::kNoSeq;
}

bool
Pipeline::isSpeculative(const RobEntry &e) const
{
    return oldestUnresolvedCtl_ != RobEntry::kNoSeq &&
           oldestUnresolvedCtl_ < e.seq;
}

bool
Pipeline::addrTainted(RobEntry &e)
{
    if (e.srcProd[0] == RobEntry::kNoSeq)
        return false;
    // Captured producer slot, validated by seq. A recycled slot
    // (producer committed long ago) misses, matching the old
    // ROB-search null; a still-resident committed producer recomputes
    // to untainted (nothing older than every live control can be
    // speculative), which is what the old null meant.
    RobEntry *p = e.srcProdPtr[0];
    return p && p->seq == e.srcProd[0] && taintOf(*p);
}

bool
Pipeline::taintOf(RobEntry &e)
{
    // Demand-driven STT taint, memoized per cycle. ROB membership and
    // the speculation horizon are both fixed for the whole issue
    // phase (squashes and commits happen in earlier phases,
    // dispatches later), so walking producer chains here yields
    // exactly what the retired full-ROB oldest-to-youngest recompute
    // produced — only for the entries a gated load actually asks
    // about. Producer chains are a DAG ordered by seq, so the
    // recursion terminates; committed producers read as untainted.
    if (e.taintCycle == now_)
        return e.tainted;
    e.taintCycle = now_;
    bool t = false;
    switch (e.op->op) {
      case Op::Load:
        t = isSpeculative(e);
        break;
      case Op::IntAlu:
      case Op::IntMul:
        for (unsigned s = 0; s < 2 && !t; ++s) {
            if (e.srcProd[s] == RobEntry::kNoSeq)
                continue;
            RobEntry *p = e.srcProdPtr[s]; // see addrTainted
            t = p && p->seq == e.srcProd[s] && taintOf(*p);
        }
        break;
      default:
        break;
    }
    e.tainted = t;
    return t;
}

std::uint64_t
Pipeline::evalAlu(const RobEntry &e) const
{
    std::uint64_t b = e.op->src2 != kNoReg
                          ? e.srcVal[1]
                          : static_cast<std::uint64_t>(e.op->imm);
    return evalAluOp(*e.op, e.srcVal[0], b);
}

bool
Pipeline::evalBranch(const RobEntry &e) const
{
    std::uint64_t b = e.op->src2 != kNoReg
                          ? e.srcVal[1]
                          : static_cast<std::uint64_t>(e.op->imm);
    return evalCondOp(e.op->cond, e.srcVal[0], b);
}

Cycle
Pipeline::execLatency(const RobEntry &e)
{
    switch (e.op->op) {
      case Op::IntMul:
        return 3;
      case Op::Return:
        // The return-address load: a demand access to the stack slot.
        // An attacker who evicts this line widens the transient
        // window of a poisoned RSB prediction.
        if (!e.sawHalt && e.effAddr != 0)
            return dataAccess(e.effAddr);
        return 1;
      default:
        return 1;
    }
}

Cycle
Pipeline::dataAccess(Addr addr)
{
    CacheAccess a = caches_.accessData(addr);
    ctrL1dAccesses_.inc();
    if (a.l1Miss) {
        ctrL1dMisses_.inc();
        if (a.l2Miss)
            ctrL2DataMisses_.inc();
        if (a.prefetched)
            ctrL1dPrefetches_.inc();
    }
    return a.latency;
}

bool
Pipeline::tryIssueLoad(RobEntry &e)
{
    if (!e.addrValid) {
        Addr base = e.op->src1 != kNoReg ? e.srcVal[0] : 0;
        e.effAddr = base + static_cast<std::uint64_t>(e.op->imm);
        e.addrValid = true;
    }

    // Memory disambiguation (conservative) and fence ordering, O(1):
    // an older not-yet-Done fence or an older store whose address is
    // still unknown stalls the load. pendingFences_/pendingStores_
    // are seq-sorted, so the oldest blocker is at the front.
    if (!pendingFences_.empty() && pendingFences_.front() < e.seq) {
        e.memGen = memGen_;
        return false;
    }
    if (!pendingStores_.empty() && pendingStores_.front() < e.seq) {
        e.memGen = memGen_;
        return false;
    }

    // Store-to-load forwarding: every older store has a resolved
    // address now; the youngest same-address one (the last match the
    // full scan kept) forwards its value.
    bool forwarded = false;
    std::uint64_t fwd_val = 0;
    std::uint64_t fwd_taint = 0;
    auto it = std::lower_bound(
        storeQ_.begin(), storeQ_.end(), e.seq,
        [](const auto &p, std::uint64_t s) { return p.first < s; });
    while (it != storeQ_.begin()) {
        --it;
        if (it->second->effAddr == e.effAddr) {
            forwarded = true;
            fwd_val = it->second->result;
            fwd_taint = it->second->srcLeakTaint[1];
            break;
        }
    }

    bool spec = isSpeculative(e);
    if (spec) {
        SpecContext ctx;
        ctx.pc = e.pc;
        ctx.dataVa = e.effAddr;
        ctx.func = e.func;
        ctx.speculative = true;
        ctx.tainted = addrTainted(e);
        ctx.kernelMode = e.kernel;
        ctx.asid = asid_;
        ctx.l1dHit = caches_.probeL1D(e.effAddr);
        ctx.now = now_;
        ctx.firstCheck = !e.counted;
        ctx.l1dContentGen = caches_.l1d().contentGenPtr();
        SpeculationPolicy *pol = policy_ ? policy_ : &unsafe_;
        Gate g = pol->gateLoad(ctx);
        ctrGateChecks_.inc();
        if (g == Gate::Block) {
            if (!e.counted) {
                e.counted = true;
                e.blockedSince = now_;
                ctrFences_.inc();
                if (e.kernel)
                    ctrFencesKernel_.inc();
                if (trace::enabled(trace::Flag::Fence)) {
                    trace::log(trace::Flag::Fence, now_,
                               pol->name() +
                                   std::string(" blocks ") +
                                   prog_.func(e.func).name + "[" +
                                   std::to_string(e.idx) + "]");
                }
            }
            e.state = EState::Blocked;
            ctrBlockedCycles_.inc();
            captureGateWake(e, ctx, *pol);
            return false;
        }
        if (g == Gate::AllowInvisible)
            e.invisible = true;
    }
    noteFenceStallEnd(e);

    Cycle lat;
    Cycle tlb_lat = 1;  ///< >1 means the walk filled the TLB
    Cycle mem_lat = 0;  ///< normal-path hierarchy round trip
    if (forwarded) {
        lat = 1;
        e.result = fwd_val;
    } else if (e.invisible) {
        // Invisible speculation (InvisiSpec-style): read the data at
        // the latency the hierarchy would charge, but leave no trace;
        // the line is installed at commit if the load survives.
        tlb_lat = dtlb_.translate(e.effAddr, asid_);
        lat = caches_.probeLatency(e.effAddr) +
              (tlb_lat > 1 ? tlb_lat : 0);
        e.result = mem_.read(e.effAddr);
        ctrLoadsInvisible_.inc();
    } else {
        tlb_lat = dtlb_.translate(e.effAddr, asid_);
        mem_lat = dataAccess(e.effAddr);
        lat = mem_lat + (tlb_lat > 1 ? tlb_lat : 0);
        e.result = mem_.read(e.effAddr);
    }

    // Transient-leakage ledger (observation-only, DESIGN §5.6). A
    // tainted address reaching a durable uarch state change is a
    // transmission; a speculative load of ground-truth-secret data
    // opens a new taint source. Ordering matters: the transmission
    // uses the *address* operand's taint, the source taints the
    // *result*.
    if (ledgerArmed_) {
        const std::uint64_t addr_taint = e.srcLeakTaint[0];
        if (addr_taint != 0) {
            bool transmitted = false;
            if (tlb_lat > 1) {
                ledger_.noteTransmission(addr_taint,
                                         LeakChannel::TlbFill, e.pc,
                                         e.func);
                transmitted = true;
            }
            if (mem_lat > caches_.l1d().params().hit_latency) {
                ledger_.noteTransmission(addr_taint,
                                         LeakChannel::CacheInstall,
                                         e.pc, e.func);
                transmitted = true;
            }
            if (transmitted && eventsOn_)
                recordSpan(trace::Flag::Leak, e, now_, " (leak)");
        }
        std::uint64_t own = 0;
        // Ground truth is a kernel concept (ISV membership, DSV frame
        // ownership); user-mode speculation over the task's own pages
        // is not a kernel leak and is never classified.
        if (spec && e.kernel) {
            SecretVerdict v =
                ledger_.classify(e.effAddr, e.func, asid_, now_);
            if (v.secret) {
                e.leakSrcBit = ledger_.noteSecretLoad(
                    e.effAddr, e.pc, e.func, entryFunc_, v.window);
                own = std::uint64_t{1} << e.leakSrcBit;
            }
        }
        e.leakTaint = own | addr_taint | fwd_taint;
    }
    e.state = EState::Executing;
    e.issueCycle = now_;
    e.doneCycle = now_ + lat;
    eventQ_.emplace(e.doneCycle, e.seq, &e);
    histLoadWait_->sample(now_ - e.dispatchCycle);
    ctrLoads_.inc();
    if (spec)
        ctrLoadsSpec_.inc();
    return true;
}

void
Pipeline::rebuildRenameMap()
{
    renameValid_.fill(false);
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        RobEntry &e = rob_[i];
        if (e.op->dst != kNoReg) {
            renameMap_[e.op->dst] = e.seq;
            renameProd_[e.op->dst] = &e;
            renameValid_[e.op->dst] = true;
        }
    }
}

void
Pipeline::squashAfter(std::uint64_t seq)
{
    // The squash walk starts at the mispredicted entry's successors —
    // the ROB tail — so its cost is the number of squashed micro-ops,
    // never the ROB size. Each scheduling structure is seq-sorted, so
    // the squashed entries form an exact suffix of each.
    auto chopPairs = [seq](auto &c) {
        while (!c.empty() && c.back().first > seq)
            c.pop_back();
    };
    auto chopSeqs = [seq](auto &c) {
        while (!c.empty() && c.back() > seq)
            c.pop_back();
    };
    chopPairs(readyQ_);
    chopPairs(storeQ_);
    chopSeqs(pendingStores_);
    chopSeqs(pendingFences_);
    ++memGen_; // chopped fronts may have receded
    chopPairs(unresolvedCtls_);
    // eventQ_ entries for squashed seqs are dropped lazily on pop.

    std::uint64_t depth = 0;
    bool record = eventsOn_;
    while (!rob_.empty() && rob_.back().seq > seq) {
        RobEntry &victim = rob_.back();
        if (victim.op->op == Op::Load)
            --inflightLoads_;
        else if (victim.op->op == Op::Store)
            --inflightStores_;
        // A policy-blocked victim's stall ends here, by squash.
        if (victim.state == EState::Blocked)
            noteFenceStallEnd(victim);
        if (victim.leakSrcBit != LeakLedger::kNoSource)
            ledger_.retireSource(victim.leakSrcBit);
        if (record)
            recordSpan(trace::Flag::Squash, victim,
                       victim.dispatchCycle, " (squashed)");
        ctrSquashedUops_.inc();
        ++depth;
        // Invalidate the slot's seq so pointer-carrying references
        // (wakeup edges, events, unresolved-ctl fronts) read the
        // squash as a liveness miss until the slot is recycled.
        victim.seq = RobEntry::kNoSeq;
        rob_.pop_back();
    }
    histSquashDepth_->sample(depth);
    if (fetchBlockedOnSeq_ != RobEntry::kNoSeq &&
        fetchBlockedOnSeq_ > seq) {
        fetchBlockedOnSeq_ = RobEntry::kNoSeq;
    }
    rebuildRenameMap();
    lastFetchLine_ = ~Addr{0};
}

bool
Pipeline::resolveControl(RobEntry &e)
{
    bool mispredict = false;
    switch (e.op->op) {
      case Op::Branch: {
        bool taken = evalBranch(e);
        cond_.update(e.pc, taken, e.histCkpt);
        mispredict = taken != e.predictedTaken;
        if (mispredict) {
            squashAfter(e.seq);
            cond_.restoreHistory(e.histCkpt);
            cond_.speculate(taken);
            rsb_.restore(e.rsbCkpt);
            fetch_.func = e.func;
            fetch_.idx = taken ? e.op->target : e.idx + 1;
            fetch_.stack = e.stackCkpt;
            fetch_.halted = false;
        }
        break;
      }
      case Op::IndirectCall: {
        if (!validCallTarget(prog_, e.srcVal[0])) {
            // Wild pointer: architected no-op call (the rule shared
            // with the interpreter — see sim/program.hh). No
            // predictor learns the wild value and no frame is pushed;
            // whatever the front end did (followed a stale BTB target
            // or stalled) is undone and fetch resumes at fall-through.
            mispredict = true;
            squashAfter(e.seq);
            cond_.restoreHistory(e.histCkpt);
            rsb_.restore(e.rsbCkpt);
            fetch_.stack = e.stackCkpt;
            fetch_.func = e.func;
            fetch_.idx = e.idx + 1;
            fetch_.halted = false;
            if (fetchBlockedOnSeq_ == e.seq)
                fetchBlockedOnSeq_ = RobEntry::kNoSeq;
            break;
        }
        FuncId actual = static_cast<FuncId>(e.srcVal[0]);
        btb_.update(e.pc, actual);
        mispredict = e.predTargetFunc != actual;
        if (mispredict) {
            squashAfter(e.seq);
            cond_.restoreHistory(e.histCkpt);
            rsb_.restore(e.rsbCkpt);
            fetch_.stack = e.stackCkpt;
            Frame fr;
            fr.func = e.func;
            fr.retIdx = e.idx + 1;
            fr.slotVa =
                stackBase_ - 8 * (fetch_.stack.size() + 1);
            fetch_.stack.push_back(fr);
            rsb_.push({e.func, e.idx + 1});
            fetch_.func = actual;
            fetch_.idx = 0;
            fetch_.halted = false;
        }
        if (fetchBlockedOnSeq_ == e.seq)
            fetchBlockedOnSeq_ = RobEntry::kNoSeq;
        break;
      }
      case Op::Return: {
        if (e.sawHalt)
            break;
        const Frame &truth = e.stackCkpt.back();
        mispredict = e.predTargetFunc != truth.func ||
                     e.predTargetIdx != truth.retIdx;
        if (mispredict) {
            squashAfter(e.seq);
            cond_.restoreHistory(e.histCkpt);
            rsb_.restore(e.rsbCkpt);
            rsb_.pop();
            fetch_.stack = e.stackCkpt;
            fetch_.stack.pop_back();
            fetch_.func = truth.func;
            fetch_.idx = truth.retIdx;
            fetch_.halted = false;
        }
        break;
      }
      default:
        break;
    }
    e.resolved = true;
    if (mispredict) {
        if (trace::enabled(trace::Flag::Squash)) {
            trace::log(trace::Flag::Squash, now_,
                       "mispredict at " + prog_.func(e.func).name +
                           "[" + std::to_string(e.idx) +
                           "], redirect to " +
                           prog_.func(fetch_.func).name + "[" +
                           std::to_string(fetch_.idx) + "]");
        }
        if (eventsOn_)
            recordSpan(trace::Flag::Squash, e, now_, " (mispredict)");
        fetchBlockStart_ = true; // front-end redirect
        fetchStallUntil_ = now_ + params_.mispredictPenalty;
        ctrMispredicts_.inc();
        switch (e.op->op) {
          case Op::Branch: ctrMispredBranch_.inc(); break;
          case Op::IndirectCall: ctrMispredIcall_.inc(); break;
          case Op::Return: ctrMispredRet_.inc(); break;
          default: break;
        }
        ctrSquashes_.inc();
    }
    return mispredict;
}

void
Pipeline::doCommit()
{
    unsigned n = 0;
    while (!rob_.empty() && n < params_.width) {
        RobEntry &e = rob_.front();
        if (e.state != EState::Done)
            break;
        if (e.isControl && !e.resolved)
            break;
        applyCommit(e);
        bool halt = e.sawHalt;
        rob_.pop_front();
        ++n;
        if (halt) {
            halted_ = true;
            break;
        }
    }
}

void
Pipeline::applyCommit(RobEntry &e)
{
    if (e.op->dst != kNoReg) {
        regs_[e.op->dst] = e.result;
        if (renameValid_[e.op->dst] && renameMap_[e.op->dst] == e.seq)
            renameValid_[e.op->dst] = false;
    }
    if (e.op->op == Op::Store) {
        mem_.write(e.effAddr, e.srcVal[1]);
        dataAccess(e.effAddr);
        --inflightStores_;
        // In-order commit: this store is the oldest in flight.
        assert(!storeQ_.empty() && storeQ_.front().first == e.seq);
        storeQ_.pop_front();
    } else if (e.op->op == Op::Load) {
        // An invisibly-executed load becomes architecturally visible
        // at commit: install its line now (the InvisiSpec "expose").
        if (e.invisible)
            dataAccess(e.effAddr);
        --inflightLoads_;
    }
    if (e.leakSrcBit != LeakLedger::kNoSource)
        ledger_.retireSource(e.leakSrcBit);
    ctrCommitted_.inc();
    if (e.kernel)
        ctrCommittedKernel_.inc();
    // Structured commit span: the instruction's dispatch-to-commit
    // lifetime, with its issue cycle in the args.
    if (eventsOn_)
        recordSpan(trace::Flag::Commit, e, e.dispatchCycle);
    if (trace::enabled(trace::Flag::Commit)) {
        trace::log(trace::Flag::Commit, now_,
                   prog_.func(e.func).name + "[" +
                       std::to_string(e.idx) + "] " +
                       e.op->toString());
    }
}

void
Pipeline::captureGateWake(RobEntry &e, const SpecContext &ctx,
                          SpeculationPolicy &pol)
{
    GateWake w = pol.gateWake(ctx);
    e.wakeEvery = w.everyCycle;
    e.wakeNumGens = static_cast<std::uint8_t>(w.numGens);
    for (unsigned i = 0; i < w.numGens; ++i) {
        e.wakeGen[i] = w.gen[i];
        e.wakeGenSeen[i] = *w.gen[i];
    }
    e.wakeRecheckAt = w.recheckAt;
    e.wakeHorizonGen = horizonGen_;
    e.wakeTally = w.blockedTally;
}

bool
Pipeline::gateWakeDue(const RobEntry &e) const
{
    if (e.wakeEvery)
        return true;
    // The horizon is an implicit wake source for every blocked load:
    // its movement is what flips `speculative`, clears STT taint and
    // releases the load at its Visibility Point.
    if (e.wakeHorizonGen != horizonGen_)
        return true;
    if (e.wakeRecheckAt != 0 && now_ >= e.wakeRecheckAt)
        return true;
    for (unsigned i = 0; i < e.wakeNumGens; ++i) {
        if (*e.wakeGen[i] != e.wakeGenSeen[i])
            return true;
    }
    return false;
}

bool
Pipeline::tryIssue(RobEntry &e)
{
    // One issue attempt for an operand-ready entry, in seq order.
    // Returns true when the entry left the ready queue (it entered an
    // FU); a false return keeps it queued for a retry next cycle with
    // the same side effects (policy gate calls, counters) the
    // full-ROB scan produced.
    if (e.op->op == Op::Load)
        return tryIssueLoad(e);

    if (e.op->op == Op::Fence) {
        // Serializing: completes only at the head of the ROB.
        if (e.seq != rob_.front().seq)
            return false;
    }
    if (e.op->op == Op::Store) {
        Addr base = e.op->src1 != kNoReg ? e.srcVal[0] : 0;
        e.effAddr = base + static_cast<std::uint64_t>(e.op->imm);
        e.addrValid = true;
        e.result = e.srcVal[1];
        // Address now resolved: younger loads may disambiguate.
        auto it = std::lower_bound(pendingStores_.begin(),
                                   pendingStores_.end(), e.seq);
        assert(it != pendingStores_.end() && *it == e.seq);
        pendingStores_.erase(it);
        ++memGen_;
    } else if (e.op->op == Op::IntAlu || e.op->op == Op::IntMul) {
        e.result = evalAlu(e);
        e.leakTaint = e.srcLeakTaint[0] | e.srcLeakTaint[1];
    } else if (e.op->op == Op::IndirectCall) {
        e.result = e.srcVal[0];
        e.leakTaint = e.srcLeakTaint[0];
    } else if (e.op->op == Op::Call) {
        // Return-address push: allocate the stack line.
        if (e.effAddr != 0)
            dataAccess(e.effAddr);
    }
    e.state = EState::Executing;
    e.issueCycle = now_;
    e.doneCycle = now_ + execLatency(e);
    // Control flow resolves no earlier than the pipeline depth
    // past dispatch (fetch/decode/rename/issue stages).
    if (e.isControl) {
        e.doneCycle = std::max(
            e.doneCycle, e.dispatchCycle + params_.branchResolveDepth);
    }
    eventQ_.emplace(e.doneCycle, e.seq, &e);
    return true;
}

void
Pipeline::doExecute()
{
    // 1) Completions and control resolution, driven by the event
    // queue instead of a full-ROB rescan loop. The heap pops in
    // (cycle, seq) order; every live due event has doneCycle == now_
    // (nothing executes for zero cycles and completions drain every
    // cycle), so live entries complete in seq order — the order the
    // seq-sorted rescan processed them. Events whose entry was
    // squashed (lookup fails) are dropped; after a mispredict squash,
    // the remaining due events are exactly the squashed younger
    // entries the rescan would no longer find.
    eventQ_.drainUpTo(now_, [this](const EventRing::Ev &ev) {
        RobEntry *e = ev.entry;
        if (e->seq != ev.seq || e->state != EState::Executing)
            return; // squashed since issue (slot maybe recycled)
        e->state = EState::Done;
        onComplete(*e);
        if (e->isControl && !e->resolved)
            resolveControl(*e);
    });

    // The Visibility Point horizon for this cycle's issue decisions:
    // oldest still-unresolved control op. Lazy cursor, not a scan.
    // Any movement ticks the generation that wakes blocked loads.
    std::uint64_t h = horizonSeq();
    if (h != oldestUnresolvedCtl_) {
        oldestUnresolvedCtl_ = h;
        ++horizonGen_;
    }

    // 2) Issue: walk the ready queue (seq order, like the ROB scan)
    // and compact out the entries that issued. A policy-blocked
    // entry whose wake conditions all held still is not re-gated;
    // the elided call's accounting (blocked-cycle counter and the
    // policy's per-call tally) is replicated so the stats are
    // bit-identical to the every-cycle re-evaluation. Once the
    // issue width is consumed, nothing downstream is attempted —
    // the legacy scan short-circuited the same way.
    unsigned issues = 0;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < readyQ_.size(); ++i) {
        RobEntry &e = *readyQ_[i].second;
        if (issues < params_.width) {
            if (e.state == EState::Blocked && !gateWakeDue(e)) {
                if (e.wakeTally)
                    e.wakeTally->inc();
                ctrBlockedCycles_.inc();
                ctrGateElided_.inc();
                readyQ_[keep++] = readyQ_[i];
                continue;
            }
            if (e.memGen == memGen_) {
                // Still behind the same fence/store front. The front
                // checks precede every other issue consideration and
                // a failed front attempt has no side effects, so the
                // retry is pure: same fronts, same false result.
                readyQ_[keep++] = readyQ_[i];
                continue;
            }
            if (tryIssue(e)) {
                ++issues;
                continue;
            }
        }
        readyQ_[keep++] = readyQ_[i];
    }
    readyQ_.resize(keep);
}

void
Pipeline::doFetch()
{
    if (halted_ || fetch_.halted)
        return;
    if (now_ < fetchStallUntil_)
        return;
    if (fetchBlockedOnSeq_ != RobEntry::kNoSeq)
        return;

    SpeculationPolicy *pol = policy_ ? policy_ : &unsafe_;
    // Sampled mode: at a quiescent point (empty ROB, no scheduled
    // kernel events, policy consenting) the phase controller runs
    // functional skip/warm phases to their boundaries; the machine
    // returns inside a detailed window, or halted when the functional
    // phase reached the outermost return — then nothing is left to
    // fetch, and run() ends this cycle.
    if (sampleMode_ && rob_.empty() && scheduled_.empty() &&
        pol->allowFunctionalSkip()) {
        samplingStep(*pol);
        if (halted_ || fetch_.halted)
            return;
    }
    unsigned n = 0;
    while (n < params_.width && rob_.size() < params_.robSize) {
        // The function descriptor is resolved once per function
        // change, not per fetched micro-op; ops are read in place
        // from its body.
        if (fetch_.func != fetchFuncCached_) {
            fetchFuncCached_ = fetch_.func;
            fetchFuncPtr_ = &prog_.func(fetch_.func);
        }
        const Function &f = *fetchFuncPtr_;
        assert(fetch_.idx < f.body.size() &&
               "fetch ran off a function body; bodies must end in ret");
        const MicroOp &op = f.body[fetch_.idx];

        if (op.op == Op::Load && inflightLoads_ >= params_.lqSize)
            break;
        if (op.op == Op::Store && inflightStores_ >= params_.sqSize)
            break;

        Addr pc = f.instAddr(fetch_.idx);
        // Ops past the first of a line were always preceded (same
        // block) by an op on the same line, so only a block's first
        // op and line transitions consult the I-cache.
        if (fetchBlockStart_ || pc % 64 == 0) {
            Addr line = pc / 64;
            if (line != lastFetchLine_) {
                lastFetchLine_ = line;
                CacheAccess a = caches_.accessInst(pc);
                ctrL1iAccesses_.inc();
                if (a.l1Miss) {
                    ctrL1iMisses_.inc();
                    if (a.prefetched)
                        ctrL1iPrefetches_.inc();
                }
                if (a.latency > caches_.l1i().params().hit_latency) {
                    fetchStallUntil_ = now_ + a.latency;
                    break;
                }
            }
        }

        // Recycled ring slot, filled in place — no move, no malloc.
        RobEntry &e = rob_.pushSlot();
        e.seq = nextSeq_++;
        e.func = fetch_.func;
        e.idx = fetch_.idx;
        e.pc = pc;
        e.op = &op;
        e.kernel = f.kernel;
        e.isControl = op.isControl();
        e.dispatchCycle = now_;

        switch (op.op) {
          case Op::IntAlu:
          case Op::IntMul:
          case Op::Branch:
            captureOperand(e, 0, op.src1);
            captureOperand(e, 1, op.src2);
            break;
          case Op::Load:
            captureOperand(e, 0, op.src1);
            captureOperand(e, 1, kNoReg);
            break;
          case Op::Store:
            captureOperand(e, 0, op.src1);
            captureOperand(e, 1, op.src2);
            break;
          case Op::IndirectCall:
            captureOperand(e, 0, op.src1);
            captureOperand(e, 1, kNoReg);
            break;
          default:
            captureOperand(e, 0, kNoReg);
            captureOperand(e, 1, kNoReg);
            break;
        }

        bool stop_fetch = false;
        switch (op.op) {
          case Op::Jump:
            fetch_.idx = op.target;
            break;
          case Op::Branch: {
            e.histCkpt = cond_.history();
            e.rsbCkpt = rsb_.save();
            bool taken = cond_.predict(pc);
            cond_.speculate(taken);
            e.predictedTaken = taken;
            e.stackCkpt = fetch_.stack;
            fetch_.idx = taken ? op.target : fetch_.idx + 1;
            break;
          }
          case Op::Call: {
            Frame fr;
            fr.func = fetch_.func;
            fr.retIdx = fetch_.idx + 1;
            fr.slotVa = stackBase_ - 8 * (fetch_.stack.size() + 1);
            e.effAddr = fr.slotVa;
            fetch_.stack.push_back(fr);
            rsb_.push({fr.func, fr.retIdx});
            const Function &callee = prog_.func(op.callee);
            if (callee.kernel && !f.kernel) {
                Cycle c = params_.kernelEntryCost +
                          pol->kernelEntryCost();
                if (c > 0)
                    fetchStallUntil_ = now_ + c;
                ctrKernelEntries_.inc();
            }
            fetch_.func = op.callee;
            fetch_.idx = 0;
            stop_fetch = fetchStallUntil_ > now_;
            break;
          }
          case Op::IndirectCall: {
            e.histCkpt = cond_.history();
            e.stackCkpt = fetch_.stack;
            e.rsbCkpt = rsb_.save();
            FuncId pred =
                pol->retpoline() ? kNoFunc : btb_.predict(pc);
            if (pred != kNoFunc &&
                !pol->cfiAllowsIndirectTarget(pred)) {
                // CFI label check rejects the predicted target:
                // speculation stalls until the call resolves.
                pred = kNoFunc;
            }
            if (pred == kNoFunc) {
                e.predTargetFunc = kNoFunc;
                fetchBlockedOnSeq_ = e.seq;
                stop_fetch = true;
            } else {
                e.predTargetFunc = pred;
                Frame fr;
                fr.func = fetch_.func;
                fr.retIdx = fetch_.idx + 1;
                fr.slotVa =
                    stackBase_ - 8 * (fetch_.stack.size() + 1);
                e.effAddr = fr.slotVa;
                fetch_.stack.push_back(fr);
                rsb_.push({fr.func, fr.retIdx});
                fetch_.func = pred;
                fetch_.idx = 0;
            }
            break;
          }
          case Op::Return: {
            e.histCkpt = cond_.history();
            e.stackCkpt = fetch_.stack;
            e.rsbCkpt = rsb_.save();
            if (fetch_.stack.empty()) {
                e.sawHalt = true;
                fetch_.halted = true;
                stop_fetch = true;
                break;
            }
            const Frame &truth = fetch_.stack.back();
            e.effAddr = truth.slotVa;
            bool underflow = rsb_.depth() == 0;
            Rsb::Target pred = rsb_.pop();
            fetch_.stack.pop_back();
            if (underflow) {
                // RSB underflow: real cores fall back to the indirect
                // predictor, which is what Retbleed poisons. Note
                // that retpoline does NOT protect returns — exactly
                // the gap Retbleed (Table 4.1, row 7) exploits. A
                // hardware shadow stack closes it.
                FuncId alt =
                    pol->shadowStack() ? kNoFunc : btb_.predict(pc);
                if (alt != kNoFunc) {
                    pred.func = alt;
                    pred.idx = 0;
                    ctrRsbUnderflowBtb_.inc();
                } else {
                    pred.func = truth.func;
                    pred.idx = truth.retIdx;
                }
            } else if (pred.func == kNoFunc) {
                // Cold RSB slot: fall back to the in-order stack.
                pred.func = truth.func;
                pred.idx = truth.retIdx;
            }
            e.predTargetFunc = pred.func;
            e.predTargetIdx = pred.idx;
            if (f.kernel && !prog_.func(pred.func).kernel) {
                Cycle c = params_.kernelExitCost +
                          pol->kernelExitCost();
                if (c > 0)
                    fetchStallUntil_ = now_ + c;
            }
            fetch_.func = pred.func;
            fetch_.idx = pred.idx;
            stop_fetch = fetchStallUntil_ > now_;
            break;
          }
          default:
            fetch_.idx += 1;
            break;
        }

        // Any terminator (including a fence or an untaken-path
        // branch) ends the block.
        fetchBlockStart_ = op.op >= Op::Branch;

        if (op.op == Op::Load)
            ++inflightLoads_;
        else if (op.op == Op::Store)
            ++inflightStores_;

        if (trace::enabled(trace::Flag::Fetch)) {
            trace::log(trace::Flag::Fetch, now_,
                       prog_.func(e.func).name + "[" +
                           std::to_string(e.idx) + "] " +
                           op.toString());
        }
        if (op.dst != kNoReg) {
            renameMap_[op.dst] = e.seq;
            renameProd_[op.dst] = &e;
            renameValid_[op.dst] = true;
        }
        registerDispatch(e);
        ++n;
        ctrFetched_.inc();
        if (stop_fetch)
            break;
    }
}

void
Pipeline::sampleTelemetry()
{
    if (!params_.detailedTelemetry)
        return;
    histRobOcc_->sample(rob_.size());
    tsRobOcc_->tick(now_, rob_.size());
    tsCommitted_->tick(now_, ctrCommitted_.value());
    tsFences_->tick(now_, ctrFences_.value());
}

Pipeline::Snapshot
Pipeline::snapshot() const
{
    assert(rob_.empty() &&
           "pipeline snapshots are only valid between runs");
    return {caches_,      dtlb_,    cond_,
            btb_,         rsb_,     stats_,
            regs_,        renameMap_, renameValid_,
            nextSeq_,     now_,     fetchStallUntil_,
            asid_,        stackBase_, ledger_.snapshot()};
}

void
Pipeline::restore(const Snapshot &s)
{
    assert(rob_.empty() &&
           "pipeline restore is only valid between runs");
    caches_ = s.caches;
    dtlb_ = s.dtlb;
    cond_ = s.cond;
    btb_ = s.btb;
    rsb_ = s.rsb;
    // In place: cached Counter/Histogram/TimeSeries handles (both the
    // pipeline's own and the policies') must stay bound.
    stats_.assignFrom(s.stats);
    regs_ = s.regs;
    renameMap_ = s.renameMap;
    renameValid_ = s.renameValid;
    nextSeq_ = s.nextSeq;
    now_ = s.now;
    fetchStallUntil_ = s.fetchStallUntil;
    asid_ = s.asid;
    stackBase_ = s.stackBase;
    ledger_.restore(s.ledger);
    // Scheduled callbacks capture experiment state from before the
    // rewind; firing them against restored state would be a use of a
    // dead world. The rewound experiment re-schedules its own.
    scheduled_.clear();
    // The front-end position is rewound: a block starts afresh.
    fetchBlockStart_ = true;
    // The sampling phase machine anchors on the cumulative committed
    // count, which just rewound with the stats.
    resetSampling();
}

void
Pipeline::runScheduled()
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < scheduled_.size(); ++i) {
        if (scheduled_[i].first <= now_)
            scheduled_[i].second();
        else
            scheduled_[kept++] = std::move(scheduled_[i]);
    }
    scheduled_.resize(kept);
}

RunResult
Pipeline::run(FuncId entry)
{
    fetch_ = FetchState{};
    fetch_.func = entry;
    fetch_.idx = 0;
    halted_ = false;
    rob_.clear();
    readyQ_.clear();
    eventQ_.clear(now_ + 1); // first drain happens at now_ + 1
    storeQ_.clear();
    pendingStores_.clear();
    pendingFences_.clear();
    unresolvedCtls_.clear();
    oldestUnresolvedCtl_ = RobEntry::kNoSeq;
    renameValid_.fill(false);
    inflightLoads_ = 0;
    inflightStores_ = 0;
    fetchBlockedOnSeq_ = RobEntry::kNoSeq;
    fetchStallUntil_ = 0;
    lastFetchLine_ = ~Addr{0};
    fetchBlockStart_ = true;
    // Per-run latch: the structured event log is consulted once, not
    // per committed/squashed micro-op. Same for the leakage ledger's
    // armed state and the run's syscall entry point (attribution).
    eventsOn_ = trace::eventsEnabled();
    ledgerArmed_ = ledger_.armed();
    entryFunc_ = entry;
    // Sampling engages only when nothing needs the per-cycle
    // detailed path: no per-cycle telemetry, no structured events, no
    // text tracing. The policy is consulted again at each engagement
    // (its answer can change as dynamic-update state drains). The
    // armed leakage ledger does not disengage it: functional phases
    // are non-speculative by construction, so the ledger would
    // observe nothing there anyway and observes the detailed windows
    // as usual; leak *measurement* runs keep sampling off (DESIGN
    // §5.8).
    sampleMode_ = params_.sampling.enabled &&
                  !params_.detailedTelemetry && !eventsOn_ &&
                  !trace::anyEnabled();

    Cycle start = now_;
    std::uint64_t start_inst = ctrCommitted_.value();

    while (!halted_) {
        ++now_;
        if (!scheduled_.empty())
            runScheduled();
        doCommit();
        if (halted_)
            break;
        doExecute();
        doFetch();
        sampleTelemetry();
        if (now_ - start > params_.maxCycles) {
            throw std::runtime_error(
                "Pipeline::run exceeded maxCycles; likely deadlock");
        }
    }

    RunResult r;
    r.cycles = now_ - start;
    r.instructions = ctrCommitted_.value() - start_inst;
    return r;
}

} // namespace perspective::sim
