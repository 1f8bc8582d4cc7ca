#include <gtest/gtest.h>

#include "sim/memory.hh"
#include "sim/pipeline.hh"
#include "sim/program.hh"

using namespace perspective::sim;

namespace
{

struct Machine
{
    Program prog;
    Memory mem;
};

} // namespace

TEST(Pipeline, StraightLineArithmetic)
{
    Machine m;
    FuncId f = m.prog.addFunction("main", false);
    m.prog.func(f).body = {
        movImm(1, 7),
        movImm(2, 5),
        add(3, 1, 2),
        shlImm(4, 3, 4),
        ret(),
    };
    m.prog.layout();
    Pipeline cpu(m.prog, m.mem);
    auto r = cpu.run(f);
    EXPECT_EQ(cpu.regValue(3), 12u);
    EXPECT_EQ(cpu.regValue(4), 12u << 4);
    EXPECT_EQ(r.instructions, 5u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(Pipeline, StoreLoadRoundTrip)
{
    Machine m;
    FuncId f = m.prog.addFunction("main", false);
    Addr a = 0x100000;
    m.prog.func(f).body = {
        movImm(1, 0xabcd),
        movImm(2, static_cast<std::int64_t>(a)),
        store(2, 0, 1),
        load(3, 2, 0),
        ret(),
    };
    m.prog.layout();
    Pipeline cpu(m.prog, m.mem);
    cpu.run(f);
    EXPECT_EQ(cpu.regValue(3), 0xabcdu);
    EXPECT_EQ(m.mem.read(a), 0xabcdu);
}

TEST(Pipeline, LoadFromPreinitializedMemory)
{
    Machine m;
    Addr a = 0x200000;
    m.mem.write(a, 1234);
    FuncId f = m.prog.addFunction("main", false);
    m.prog.func(f).body = {loadAbs(5, a), ret()};
    m.prog.layout();
    Pipeline cpu(m.prog, m.mem);
    cpu.run(f);
    EXPECT_EQ(cpu.regValue(5), 1234u);
}

TEST(Pipeline, BranchLoopSumsCorrectly)
{
    // r1 = 0; r2 = 0; while (r1 < 10) { r2 += r1; r1 += 1; }
    Machine m;
    FuncId f = m.prog.addFunction("main", false);
    m.prog.func(f).body = {
        movImm(1, 0),                     // 0
        movImm(2, 0),                     // 1
        branchImm(Cond::Ge, 1, 10, 6),    // 2: exit loop
        add(2, 2, 1),                     // 3
        addImm(1, 1, 1),                  // 4
        jump(2),                          // 5
        ret(),                            // 6
    };
    m.prog.layout();
    Pipeline cpu(m.prog, m.mem);
    auto r = cpu.run(f);
    EXPECT_EQ(cpu.regValue(2), 45u);
    EXPECT_GT(r.instructions, 30u);
}

TEST(Pipeline, CallReturnAcrossFunctions)
{
    Machine m;
    FuncId callee = m.prog.addFunction("callee", false);
    FuncId caller = m.prog.addFunction("caller", false);
    m.prog.func(callee).body = {addImm(2, 1, 100), ret()};
    m.prog.func(caller).body = {
        movImm(1, 5),
        call(callee),
        addImm(3, 2, 1),
        ret(),
    };
    m.prog.layout();
    Pipeline cpu(m.prog, m.mem);
    cpu.run(caller);
    EXPECT_EQ(cpu.regValue(2), 105u);
    EXPECT_EQ(cpu.regValue(3), 106u);
}

TEST(Pipeline, NestedCalls)
{
    Machine m;
    FuncId leaf = m.prog.addFunction("leaf", false);
    FuncId mid = m.prog.addFunction("mid", false);
    FuncId top = m.prog.addFunction("top", false);
    m.prog.func(leaf).body = {addImm(1, 1, 1), ret()};
    m.prog.func(mid).body = {call(leaf), call(leaf), ret()};
    m.prog.func(top).body = {movImm(1, 0), call(mid), call(mid),
                             ret()};
    m.prog.layout();
    Pipeline cpu(m.prog, m.mem);
    cpu.run(top);
    EXPECT_EQ(cpu.regValue(1), 4u);
}

TEST(Pipeline, IndirectCallDispatchesThroughRegister)
{
    Machine m;
    FuncId t1 = m.prog.addFunction("t1", false);
    FuncId t2 = m.prog.addFunction("t2", false);
    FuncId main_f = m.prog.addFunction("main", false);
    m.prog.func(t1).body = {movImm(9, 111), ret()};
    m.prog.func(t2).body = {movImm(9, 222), ret()};
    m.prog.func(main_f).body = {
        movImm(1, static_cast<std::int64_t>(t2)),
        indirectCall(1),
        ret(),
    };
    m.prog.layout();
    Pipeline cpu(m.prog, m.mem);
    cpu.run(main_f);
    EXPECT_EQ(cpu.regValue(9), 222u);
    (void)t1;
}

TEST(Pipeline, MispredictedBranchSquashesWrongPath)
{
    // A data-dependent branch the predictor cannot know on first
    // sight: wrong-path writes must not commit.
    Machine m;
    Addr flag = 0x300000;
    m.mem.write(flag, 1);
    FuncId f = m.prog.addFunction("main", false);
    m.prog.func(f).body = {
        loadAbs(1, flag),
        branchImm(Cond::Eq, 1, 1, 4), // taken (flag==1)
        movImm(2, 666),               // must not commit if taken
        jump(5),
        movImm(2, 42),                // 4: taken path
        ret(),                        // 5
    };
    m.prog.layout();
    Pipeline cpu(m.prog, m.mem);
    cpu.setReg(2, 0);
    cpu.run(f);
    EXPECT_EQ(cpu.regValue(2), 42u);
}

TEST(Pipeline, RunsAccumulateMicroarchState)
{
    // Second identical run is faster: warm caches and predictors.
    Machine m;
    FuncId f = m.prog.addFunction("main", false);
    std::vector<MicroOp> body;
    body.push_back(movImm(1, 0));
    for (int i = 0; i < 64; ++i) {
        body.push_back(load(2, 1, 0x400000 + i * 64));
        body.push_back(add(3, 3, 2));
    }
    body.push_back(ret());
    m.prog.func(f).body = body;
    m.prog.layout();
    Pipeline cpu(m.prog, m.mem);
    auto cold = cpu.run(f);
    auto warm = cpu.run(f);
    EXPECT_LT(warm.cycles, cold.cycles);
}

TEST(Pipeline, FenceOrdersLoads)
{
    Machine m;
    FuncId f = m.prog.addFunction("main", false);
    m.prog.func(f).body = {
        movImm(1, 0x500000),
        fence(),
        load(2, 1, 0),
        ret(),
    };
    m.prog.layout();
    Pipeline cpu(m.prog, m.mem);
    auto r = cpu.run(f);
    EXPECT_EQ(r.instructions, 4u);
}

TEST(Pipeline, DeadlockGuardThrows)
{
    Machine m;
    FuncId f = m.prog.addFunction("main", false);
    m.prog.func(f).body = {jump(0)}; // infinite loop
    m.prog.layout();
    PipelineParams pp;
    pp.maxCycles = 10'000;
    Pipeline cpu(m.prog, m.mem, pp);
    EXPECT_THROW(cpu.run(f), std::runtime_error);
}

TEST(Pipeline, KernelEntryCostCharged)
{
    struct CostlyEntry : UnsafePolicy
    {
        Cycle kernelEntryCost() const override { return 500; }
    };

    Machine m;
    FuncId k = m.prog.addFunction("kfunc", true);
    FuncId u = m.prog.addFunction("main", false);
    m.prog.func(k).body = {nop(), ret()};
    m.prog.func(u).body = {call(k), ret()};
    m.prog.layout();

    Pipeline base(m.prog, m.mem);
    auto fast = base.run(u);

    Pipeline slow_cpu(m.prog, m.mem);
    CostlyEntry pol;
    slow_cpu.setPolicy(&pol);
    auto slow = slow_cpu.run(u);
    EXPECT_GE(slow.cycles, fast.cycles + 400);
}

namespace
{

/**
 * A dependent load chain over hand-placed lines, then one store:
 * A, A+64, A+4096, A again (each load's base is the previous
 * load's result, so the accesses happen in program order), and a
 * store to A+128 at commit. The code is 7 ops: one I-cache line.
 */
struct CacheScript
{
    static constexpr Addr kA = 0x100000;

    Machine m;
    FuncId f;

    CacheScript()
    {
        m.mem.write(kA, kA);
        m.mem.write(kA + 64, kA);
        m.mem.write(kA + 4096, kA);
        f = m.prog.addFunction("main", false);
        m.prog.func(f).body = {
            movImm(1, static_cast<std::int64_t>(kA)),
            load(2, 1, 0),    // A
            load(3, 2, 64),   // A+64
            load(4, 3, 4096), // A+4096
            load(5, 4, 0),    // A
            store(5, 128, 2), // A+128, at commit
            ret(),
        };
        m.prog.layout();
    }
};

struct CacheCounts
{
    std::uint64_t l1dAcc, l1dMiss, l2Miss, l1iAcc, l1iMiss;
};

void
expectCounts(const StatSet &st, const CacheCounts &c)
{
    EXPECT_EQ(st.get("l1d.accesses"), c.l1dAcc);
    EXPECT_EQ(st.get("l1d.misses"), c.l1dMiss);
    EXPECT_EQ(st.get("l2.data_misses"), c.l2Miss);
    EXPECT_EQ(st.get("l1i.accesses"), c.l1iAcc);
    EXPECT_EQ(st.get("l1i.misses"), c.l1iMiss);
}

} // namespace

TEST(PipelineStats, CacheCountersMatchHandCount)
{
    CacheScript s;
    Pipeline cpu(s.m.prog, s.m.mem);
    // Cold, prefetcher on: A misses both levels and prefetches A+64,
    // which then hits; A+4096 misses both (prefetching A+4160); A
    // hits; the store to A+128 misses both (prefetching A+192). The
    // code line misses both and prefetches the next line.
    cpu.run(s.f);
    expectCounts(cpu.stats(), {5, 3, 3, 1, 1});
    EXPECT_EQ(cpu.stats().get("l1d.prefetches"), 3u);
    EXPECT_EQ(cpu.stats().get("l1i.prefetches"), 1u);

    // L1D emptied, L2 kept: the same three L1 misses now hit the L2,
    // and each still prefetches its next line into the L1D.
    cpu.stats().clear();
    cpu.caches().l1d().flushAll();
    cpu.run(s.f);
    expectCounts(cpu.stats(), {5, 3, 0, 1, 0});
    EXPECT_EQ(cpu.stats().get("l1d.prefetches"), 3u);
    EXPECT_EQ(cpu.stats().get("l1i.prefetches"), 0u);
}

TEST(PipelineStats, PrefetchCountersStayAbsentWithPrefetcherOff)
{
    CacheScript s;
    Pipeline cpu(s.m.prog, s.m.mem);
    cpu.caches().setPrefetch(false);
    // Without the prefetcher A+64 misses too: four L1D misses.
    cpu.run(s.f);
    expectCounts(cpu.stats(), {5, 4, 4, 1, 1});
    const auto &all = cpu.stats().all();
    EXPECT_EQ(all.count("l1d.prefetches"), 0u);
    EXPECT_EQ(all.count("l1i.prefetches"), 0u);
    EXPECT_EQ(all.count("l1d.accesses"), 1u);
    // Counters that never fired are never created, not even as zero.
    EXPECT_EQ(all.count("mispredicts.branch"), 0u);
    EXPECT_EQ(all.count("kernel_entries"), 0u);
}

TEST(PipelineStats, CacheCountersSurviveClearAndRestore)
{
    CacheScript s;
    Pipeline cpu(s.m.prog, s.m.mem);
    cpu.run(s.f);
    Pipeline::Snapshot snap = cpu.snapshot();

    // Warm caches: every access hits.
    cpu.stats().clear();
    cpu.run(s.f);
    expectCounts(cpu.stats(), {5, 0, 0, 1, 0});

    // Restore rewinds the values (and the caches) but keeps every
    // bound handle live: the next run adds to the restored counts.
    cpu.restore(snap);
    expectCounts(cpu.stats(), {5, 3, 3, 1, 1});
    cpu.caches().l1d().flushAll();
    cpu.run(s.f);
    expectCounts(cpu.stats(), {10, 6, 3, 2, 1});
    EXPECT_EQ(cpu.stats().get("l1d.prefetches"), 6u);
}
