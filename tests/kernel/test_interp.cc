#include <gtest/gtest.h>

#include "kernel/interp.hh"
#include "sim/program.hh"

using namespace perspective::kernel;
using namespace perspective::sim;

TEST(Interp, ArithmeticAndMemory)
{
    Program prog;
    FuncId f = prog.addFunction("main", true);
    prog.func(f).body = {
        movImm(1, 21),
        shlImm(2, 1, 1),
        movImm(3, 0x9000),
        store(3, 0, 2),
        load(4, 3, 0),
        ret(),
    };
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    auto r = in.run(f);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(in.regValue(4), 42u);
    EXPECT_EQ(mem.read(0x9000), 42u);
}

TEST(Interp, BranchesAndLoops)
{
    Program prog;
    FuncId f = prog.addFunction("main", true);
    prog.func(f).body = {
        movImm(1, 0),
        movImm(2, 0),
        branchImm(Cond::Ge, 1, 5, 6),
        add(2, 2, 1),
        addImm(1, 1, 1),
        jump(2),
        ret(),
    };
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    in.run(f);
    EXPECT_EQ(in.regValue(2), 10u); // 0+1+2+3+4
}

TEST(Interp, IndirectCallThroughMemory)
{
    Program prog;
    FuncId callee = prog.addFunction("callee", true);
    FuncId f = prog.addFunction("main", true);
    prog.func(callee).body = {movImm(5, 77), ret()};
    prog.func(f).body = {
        loadAbs(1, 0xa000),
        indirectCall(1),
        ret(),
    };
    prog.layout();
    Memory mem;
    mem.write(0xa000, callee);
    Interpreter in(prog, mem);
    auto r = in.run(f);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(in.regValue(5), 77u);
}

TEST(Interp, OnFuncVisitorSeesCallChain)
{
    Program prog;
    FuncId leaf = prog.addFunction("leaf", true);
    FuncId mid = prog.addFunction("mid", true);
    FuncId top = prog.addFunction("top", true);
    prog.func(leaf).body = {ret()};
    prog.func(mid).body = {call(leaf), ret()};
    prog.func(top).body = {call(mid), ret()};
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    std::vector<FuncId> seen;
    in.run(top, 1000, [&](FuncId f) { seen.push_back(f); });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], top);
    EXPECT_EQ(seen[1], mid);
    EXPECT_EQ(seen[2], leaf);
}

TEST(Interp, DryStoresLeaveMemoryUntouched)
{
    Program prog;
    FuncId f = prog.addFunction("main", true);
    prog.func(f).body = {
        movImm(1, 0xb000),
        movImm(2, 5),
        store(1, 0, 2),
        ret(),
    };
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    in.setDryStores(true);
    in.run(f);
    EXPECT_EQ(mem.read(0xb000), 0u);
}

TEST(Interp, BudgetExhaustionReportsIncomplete)
{
    Program prog;
    FuncId f = prog.addFunction("main", true);
    prog.func(f).body = {jump(0)};
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    auto r = in.run(f, 100);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.uops, 100u);
}

TEST(Interp, WildIndirectTargetIsSkipped)
{
    Program prog;
    FuncId f = prog.addFunction("main", true);
    prog.func(f).body = {
        movImm(1, 0x7fffffff), // not a function id
        indirectCall(1),
        movImm(2, 1),
        ret(),
    };
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    auto r = in.run(f);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(in.regValue(2), 1u);
}

/**
 * Ran-off-the-end rule: a body that ends without a return unwinds
 * like a return — the caller resumes after its call — but the missing
 * op charges no uop. The rule needs no layout() (tests often assign
 * bodies without one).
 */
TEST(Interp, RanOffTheEndReturnsToCallerWithoutChargingAUop)
{
    Program prog;
    FuncId noRet = prog.addFunction("no_ret", true); // no ret
    FuncId empty = prog.addFunction("empty", true);  // no ops
    FuncId top = prog.addFunction("top", true);
    prog.func(noRet).body = {movImm(5, 7), addImm(5, 5, 1)};
    prog.func(top).body = {
        call(noRet),
        call(empty),
        addImm(6, 5, 1),
        ret(),
    };
    Memory mem;
    Interpreter in(prog, mem);
    std::vector<FuncId> seen;
    auto r = in.run(top, 1000, [&](FuncId f) { seen.push_back(f); });
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(in.regValue(6), 9u);
    // call, movImm, addImm, call, addImm, ret: nothing for the two
    // bodies that ran out.
    EXPECT_EQ(r.uops, 6u);
    EXPECT_EQ(seen, (std::vector<FuncId>{top, noRet, empty}));
}

TEST(Interp, RanOffTheEndOfTheEntryCompletesTheRun)
{
    Program prog;
    FuncId f = prog.addFunction("main", true);
    // The branch targets an index past the end of the body; the jump
    // is never reached.
    prog.func(f).body = {
        movImm(1, 3),
        branchImm(Cond::Eq, 1, 3, 9),
        jump(0),
    };
    Memory mem;
    Interpreter in(prog, mem);
    auto r = in.run(f);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.uops, 2u);

    // The budget check still precedes the end-of-body unwind.
    in.reset();
    auto cut = in.run(f, 2);
    EXPECT_FALSE(cut.completed);
    EXPECT_EQ(cut.uops, 2u);
}
