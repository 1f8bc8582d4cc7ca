#include "interp.hh"

namespace perspective::kernel
{

using namespace sim;

namespace
{

/** Handler index of an op: its Op byte, except that IntAlu unfolds
 * its AluOp into kAluBase + alu so every ALU sub-op has a handler of
 * its own and dispatch is a single indexed jump. */
constexpr unsigned kAluBase = static_cast<unsigned>(Op::Fence) + 1;
constexpr unsigned kNumHandlers =
    kAluBase + static_cast<unsigned>(AluOp::Mov) + 1;

inline unsigned
handlerOf(const MicroOp &op)
{
    unsigned o = static_cast<unsigned>(op.op);
    return o == static_cast<unsigned>(Op::IntAlu)
               ? kAluBase + static_cast<unsigned>(op.alu)
               : o;
}

} // namespace

/*
 * Dispatch is threaded (labels-as-values, GCC/Clang) directly over
 * Function::body: the hot loop is "execute handler, bump cursor,
 * indexed jump" with no decode step. The function's body bounds are
 * reloaded only when control enters another function; a body that
 * ends without a return reaches h_end, the ran-off-the-end rule.
 */
Interpreter::Result
Interpreter::run(FuncId entry, std::uint64_t max_uops,
                 const std::function<void(FuncId)> &on_func)
{
    stack_.clear();
    FuncId func = entry;
    std::uint32_t idx = 0;
    Result res;

    if (on_func)
        on_func(func);

    const MicroOp *body = nullptr;
    const MicroOp *end = nullptr;
    const MicroOp *cur = nullptr;

    // Index of the op `cur` points at.
#define PERSPECTIVE_CUR_IDX() static_cast<std::uint32_t>(cur - body)

    static const void *const kJump[kNumHandlers] = {
        // Op order (IntAlu's slot is never dispatched: handlerOf
        // unfolds it).
        &&h_nop,    &&h_add,    &&h_mul,  &&h_load,  &&h_store,
        &&h_branch, &&h_jump,   &&h_call, &&h_icall, &&h_return,
        &&h_fence,
        // AluOp order, from kAluBase.
        &&h_add,    &&h_sub,    &&h_and,  &&h_shl,   &&h_shr,
        &&h_movi,   &&h_mov,
    };

// Budget check precedes every dispatch, the end-of-body check
// included; real handlers count their own uop.
#define DISPATCH()                                                     \
    do {                                                               \
        if (res.uops >= max_uops) [[unlikely]]                         \
            return res;                                                \
        if (cur == end) [[unlikely]]                                   \
            goto h_end;                                                \
        goto *kJump[handlerOf(*cur)];                                  \
    } while (0)

enter_func: {
    const Function &f = prog_.func(func);
    body = f.body.data();
    end = body + f.body.size();
}
seek:
    // A start index at or past the end of the body lands on h_end.
    cur = idx < static_cast<std::size_t>(end - body) ? body + idx : end;
    DISPATCH();

h_nop:
    ++res.uops;
    ++cur;
    DISPATCH();

h_add: {
    ++res.uops;
    const MicroOp &op = *cur;
    std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
    regs_[op.dst] =
        op.src2 != kNoReg
            ? a + regs_[op.src2] + static_cast<std::uint64_t>(op.imm)
            : a + static_cast<std::uint64_t>(op.imm);
    ++cur;
    DISPATCH();
}

h_sub: {
    ++res.uops;
    const MicroOp &op = *cur;
    std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
    std::uint64_t b = op.src2 != kNoReg
                          ? regs_[op.src2]
                          : static_cast<std::uint64_t>(op.imm);
    regs_[op.dst] = a - b;
    ++cur;
    DISPATCH();
}

h_and: {
    ++res.uops;
    const MicroOp &op = *cur;
    std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
    regs_[op.dst] = a & static_cast<std::uint64_t>(op.imm);
    ++cur;
    DISPATCH();
}

h_shl: {
    ++res.uops;
    const MicroOp &op = *cur;
    std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
    regs_[op.dst] = a << (op.imm & 63);
    ++cur;
    DISPATCH();
}

h_shr: {
    ++res.uops;
    const MicroOp &op = *cur;
    std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
    regs_[op.dst] = a >> (op.imm & 63);
    ++cur;
    DISPATCH();
}

h_movi: {
    ++res.uops;
    const MicroOp &op = *cur;
    regs_[op.dst] = static_cast<std::uint64_t>(op.imm);
    ++cur;
    DISPATCH();
}

h_mov: {
    ++res.uops;
    const MicroOp &op = *cur;
    regs_[op.dst] = op.src1 != kNoReg ? regs_[op.src1] : 0;
    ++cur;
    DISPATCH();
}

h_mul: {
    // IntMul's value function is whatever its AluOp says (the stock
    // builder leaves AluOp::Add; only the pipeline charges multiply
    // latency), so defer to evalAluOp rather than multiplying.
    ++res.uops;
    const MicroOp &op = *cur;
    std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
    std::uint64_t b = op.src2 != kNoReg
                          ? regs_[op.src2]
                          : static_cast<std::uint64_t>(op.imm);
    regs_[op.dst] = evalAluOp(op, a, b);
    ++cur;
    DISPATCH();
}

h_load: {
    ++res.uops;
    const MicroOp &op = *cur;
    Addr ea = (op.src1 != kNoReg ? regs_[op.src1] : 0) +
              static_cast<std::uint64_t>(op.imm);
    regs_[op.dst] = mem_.read(ea);
    ++cur;
    DISPATCH();
}

h_store: {
    ++res.uops;
    const MicroOp &op = *cur;
    if (!dryStores_) {
        Addr ea = (op.src1 != kNoReg ? regs_[op.src1] : 0) +
                  static_cast<std::uint64_t>(op.imm);
        mem_.write(ea, op.src2 != kNoReg ? regs_[op.src2] : 0);
    }
    ++cur;
    DISPATCH();
}

h_branch: {
    ++res.uops;
    const MicroOp &op = *cur;
    std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
    std::uint64_t b = op.src2 != kNoReg
                          ? regs_[op.src2]
                          : static_cast<std::uint64_t>(op.imm);
    idx = evalCondOp(op.cond, a, b) ? op.target
                                    : PERSPECTIVE_CUR_IDX() + 1;
    goto seek;
}

h_jump:
    ++res.uops;
    idx = cur->target;
    goto seek;

h_call:
    ++res.uops;
    stack_.push_back({func, PERSPECTIVE_CUR_IDX() + 1});
    func = cur->callee;
    idx = 0;
    if (on_func)
        on_func(func);
    goto enter_func;

h_icall: {
    ++res.uops;
    std::uint64_t raw = cur->src1 != kNoReg ? regs_[cur->src1] : 0;
    if (!validCallTarget(prog_, raw)) {
        // Wild pointer: architected no-op call, fall through.
        ++cur;
        DISPATCH();
    }
    stack_.push_back({func, PERSPECTIVE_CUR_IDX() + 1});
    func = static_cast<FuncId>(raw);
    idx = 0;
    if (on_func)
        on_func(func);
    goto enter_func;
}

h_fence:
    ++res.uops;
    ++cur;
    DISPATCH();

h_return:
    ++res.uops;
    // Falls through: a return and running off the end of the body
    // unwind alike, but the latter is a defensive return that
    // charges no uop.
h_end:
    if (stack_.empty()) {
        res.completed = true;
        return res;
    }
    func = stack_.back().func;
    idx = stack_.back().idx;
    stack_.pop_back();
    goto enter_func;

#undef DISPATCH
#undef PERSPECTIVE_CUR_IDX
}

} // namespace perspective::kernel
