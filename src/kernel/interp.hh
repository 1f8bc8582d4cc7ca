/**
 * @file
 * Architectural interpreter for the micro-op IR. Executes exactly the
 * committed-path semantics of the pipeline (no speculation, no
 * timing) and reports which functions run. It is the engine behind:
 *
 *  - the ftrace-style tracer that builds dynamic ISVs (Section 5.3),
 *  - the Kasper/Syzkaller-style fuzzing loop of the gadget scanner.
 *
 * The sampled pipeline's functional phases
 * (Pipeline::functionalAdvance) implement the same semantics over the
 * pipeline's own registers and stack; tests/sim/test_differential.cc
 * pins the two, and the detailed pipeline, to one result. A source
 * operand of kNoReg reads as 0 on every path.
 *
 * Dispatch is threaded straight over each Function::body (the op's
 * own Op/AluOp bytes pick the handler), so an interpreter decodes
 * nothing up front; the call stack persists across run() invocations
 * so steady-state tracing allocates nothing.
 */

#ifndef PERSPECTIVE_KERNEL_INTERP_HH
#define PERSPECTIVE_KERNEL_INTERP_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/memory.hh"
#include "sim/program.hh"
#include "types.hh"

namespace perspective::kernel
{

/** Architectural executor over a Program. */
class Interpreter
{
  public:
    Interpreter(const sim::Program &prog, sim::Memory &mem)
        : prog_(prog), mem_(mem)
    {
    }

    std::uint64_t regValue(unsigned r) const { return regs_[r]; }
    void setReg(unsigned r, std::uint64_t v) { regs_[r] = v; }

    /** When set, stores are discarded (fuzzing must not corrupt the
     * semantic kernel state). */
    void setDryStores(bool dry) { dryStores_ = dry; }

    /** Restore the freshly-constructed architectural state (all
     * registers zero, stores live) so one long-lived interpreter can
     * replace a construct-per-invocation pattern without behavioral
     * difference. */
    void
    reset()
    {
        regs_.fill(0);
        dryStores_ = false;
    }

    struct Result
    {
        std::uint64_t uops = 0;
        bool completed = false; ///< false when maxUops was hit
    };

    /**
     * Execute @p entry until its final return. @p on_func (optional)
     * fires on entry to every function, including @p entry itself.
     * A body that ends without a return returns to its caller (no
     * uop is charged for the missing op).
     */
    Result run(sim::FuncId entry, std::uint64_t max_uops = 1'000'000,
               const std::function<void(sim::FuncId)> &on_func = {});

  private:
    const sim::Program &prog_;
    sim::Memory &mem_;
    std::array<std::uint64_t, sim::kNumRegs> regs_{};
    bool dryStores_ = false;

    struct Frame
    {
        sim::FuncId func;
        std::uint32_t idx;
    };
    /** Persistent call stack: cleared, never reallocated, per run. */
    std::vector<Frame> stack_;
};

} // namespace perspective::kernel

#endif // PERSPECTIVE_KERNEL_INTERP_HH
