/**
 * @file
 * The pipeline's sampled-simulation driver (DESIGN §5.8): the phase
 * controller that cycles functional skip -> functional warm ->
 * detailed window at quiescent points, and the architectural-only
 * executor that carries the functional phases.
 */

#include "pipeline.hh"

#include <cassert>

namespace perspective::sim
{

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
Pipeline::resetSampling()
{
    sampler_.reset();
    sampleInit_ = false;
    sampleFirstSkip_ = true;
}

void
Pipeline::flushSampleWindow()
{
    if (!sampleMode_ || !sampleInit_ ||
        samplePhase_ != SamplePhase::Detailed)
        return;
    std::uint64_t committed = ctrCommitted_.value();
    if (committed > sampleWindowStartInsts_)
        sampler_.addWindow(now_ - sampleWindowStartCycle_,
                           committed - sampleWindowStartInsts_);
    sampleWindowStartInsts_ = committed;
    sampleWindowStartCycle_ = now_;
}

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
                return; // the detailed loop runs the window
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
    // no speculation, no squashes, so nothing here is ever
    // classified by the leakage ledger (classification requires
    // speculation). In the warm phase the
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
                caches_.accessInst(pc);
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
                caches_.accessData(ea);
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
                caches_.accessData(ea);
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
                caches_.accessData(fr.slotVa);
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
                caches_.accessData(fr.slotVa);
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
                caches_.accessData(truth.slotVa);
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
