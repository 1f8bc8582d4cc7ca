/**
 * @file
 * Sampled simulation (DESIGN §5.8): the systematic-sampling
 * estimator's mean/CI math on synthetic known-variance streams, the
 * PERSPECTIVE_SAMPLE spec grammar, and three pipeline-level
 * guarantees — an infinite detailed window reproduces the detailed
 * run bit for bit (the sampling machinery adds nothing but the phase
 * check), a finite-window sampled run is architecturally
 * indistinguishable from the detailed one even though most
 * instructions retire through the functional path, and a functional
 * phase that ends the run charges no cycle after the halt.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "sim/pipeline.hh"
#include "sim/program.hh"
#include "sim/sampling.hh"

using namespace perspective;
using namespace perspective::sim;

namespace
{

PipelineParams
sampledParams(SamplingParams sp)
{
    PipelineParams pp;
    pp.detailedTelemetry = false;
    pp.sampling = sp;
    return pp;
}

void
seedMemory(Memory &mem)
{
    for (unsigned i = 0; i < 64; ++i)
        mem.write(0x100000 + i * 8, i * 3 + 1);
}

/**
 * A counted loop with memory traffic, data-dependent forward
 * branches and a call per iteration: long enough (~10k committed
 * uops) that a small-period sampled run cycles through several
 * skip -> warm -> detailed periods.
 */
Program
loopProgram(unsigned iters)
{
    Program prog;
    FuncId leaf = 1;
    FuncId f = prog.addFunction("main", false);
    prog.addFunction("leaf", true);

    auto &body = prog.func(f).body;
    RegId ctr = 7;
    body.push_back(movImm(ctr, 0));
    std::uint32_t head = static_cast<std::uint32_t>(body.size());
    body.push_back(branchImm(Cond::Ge, ctr,
                             static_cast<std::int64_t>(iters),
                             head + 10));
    body.push_back(loadAbs(2, 0x100000 + 8 * 3));
    body.push_back(add(3, 3, 2));
    body.push_back(store(kNoReg, 0x100200, 3));
    // Odd iterations skip the kernel call, so the branch predictor
    // and the call path both see data-dependent behaviour.
    body.push_back(andImm(8, ctr, 1));
    body.push_back(branchImm(Cond::Eq, 8, 1, head + 8));
    body.push_back(addImm(4, 4, 1));
    body.push_back(call(leaf));
    body.push_back(addImm(ctr, ctr, 1));
    body.push_back(jump(head));
    body.push_back(ret());

    auto &lf = prog.func(leaf).body;
    lf.push_back(loadAbs(5, 0x100000 + 8 * 5));
    lf.push_back(add(6, 6, 5));
    lf.push_back(ret());

    prog.layout();
    return prog;
}

} // namespace

// --------------------------------------------------------------------
// Estimator math

TEST(SamplingEstimator, MeanAndCiOnKnownVarianceStream)
{
    // Window CPIs 1, 2, 3, 4: mean 2.5, sample variance
    // ((1-2.5)^2 + ... + (4-2.5)^2) / 3 = 5/3.
    SamplingEstimator est;
    est.addWindow(100, 100);
    est.addWindow(200, 100);
    est.addWindow(300, 100);
    est.addWindow(400, 100);

    EXPECT_EQ(est.windows(), 4u);
    EXPECT_EQ(est.sampledInsts(), 400u);
    EXPECT_EQ(est.sampledCycles(), 1000u);
    EXPECT_DOUBLE_EQ(est.cpiMean(), 2.5);
    double expect_ci = 1.96 * std::sqrt((5.0 / 3.0) / 4.0);
    EXPECT_NEAR(est.cpiCi95(), expect_ci, 1e-12);
    EXPECT_NEAR(est.relError(), expect_ci / 2.5, 1e-12);
}

TEST(SamplingEstimator, ZeroVarianceStreamHasZeroCi)
{
    SamplingEstimator est;
    for (int i = 0; i < 8; ++i)
        est.addWindow(300, 100);
    EXPECT_DOUBLE_EQ(est.cpiMean(), 3.0);
    // The s^2 estimator is clamped at zero, so float cancellation
    // can never produce a negative variance (and a NaN ci).
    EXPECT_DOUBLE_EQ(est.cpiCi95(), 0.0);
}

TEST(SamplingEstimator, FewerThanTwoWindowsHaveNoCi)
{
    SamplingEstimator est;
    EXPECT_DOUBLE_EQ(est.cpiMean(), 0.0);
    EXPECT_DOUBLE_EQ(est.cpiCi95(), 0.0);
    est.addWindow(250, 100);
    EXPECT_EQ(est.windows(), 1u);
    EXPECT_DOUBLE_EQ(est.cpiMean(), 2.5);
    EXPECT_DOUBLE_EQ(est.cpiCi95(), 0.0); // variance not estimable
}

TEST(SamplingEstimator, IgnoresEmptyWindowsAndResets)
{
    SamplingEstimator est;
    est.addWindow(500, 0); // no instructions: no observation
    EXPECT_EQ(est.windows(), 0u);
    est.addWindow(100, 50);
    est.addWindow(300, 150);
    EXPECT_EQ(est.windows(), 2u);
    est.reset();
    EXPECT_EQ(est.windows(), 0u);
    EXPECT_EQ(est.sampledInsts(), 0u);
    EXPECT_DOUBLE_EQ(est.cpiMean(), 0.0);
}

// --------------------------------------------------------------------
// Spec grammar

TEST(SamplingParams, ParseAndSpecRoundTrip)
{
    EXPECT_FALSE(SamplingParams::parse("").enabled);
    EXPECT_FALSE(SamplingParams::parse("0").enabled);
    EXPECT_FALSE(SamplingParams::parse("off").enabled);
    EXPECT_EQ(SamplingParams::parse("off").spec(), "off");

    SamplingParams def = SamplingParams::parse("1");
    EXPECT_TRUE(def.enabled);
    EXPECT_EQ(def, SamplingParams::parse("on"));
    EXPECT_EQ(def, SamplingParams::parse("default"));
    EXPECT_EQ(def, SamplingParams::parse(def.spec()));

    SamplingParams p = SamplingParams::parse(
        "w=1000,warm=2000,period=9000,seed=7");
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.windowInsts, 1000u);
    EXPECT_EQ(p.warmingInsts, 2000u);
    EXPECT_EQ(p.periodInsts, 9000u);
    EXPECT_EQ(p.seed, 7u);
    EXPECT_EQ(SamplingParams::parse(p.spec()), p);

    SamplingParams inf = SamplingParams::parse("w=inf");
    EXPECT_EQ(inf.windowInsts, SamplingParams::kInfiniteWindow);
    EXPECT_EQ(SamplingParams::parse(inf.spec()), inf);
}

TEST(SamplingParams, ParseRejectsMalformedSpecs)
{
    EXPECT_THROW(SamplingParams::parse("bogus"),
                 std::invalid_argument);
    EXPECT_THROW(SamplingParams::parse("w="), std::invalid_argument);
    EXPECT_THROW(SamplingParams::parse("w=12x"),
                 std::invalid_argument);
    EXPECT_THROW(SamplingParams::parse("zzz=5"),
                 std::invalid_argument);
    EXPECT_THROW(SamplingParams::parse("w=0"), std::invalid_argument);
    // Period must fit a window plus its warming.
    EXPECT_THROW(
        SamplingParams::parse("w=5000,warm=6000,period=10000"),
        std::invalid_argument);
}

// --------------------------------------------------------------------
// Pipeline-level guarantees

/**
 * Warming equivalence: with an infinite detailed window the sampling
 * controller never leaves the detailed phase, so the run must be
 * indistinguishable from the plain detailed loop — identical cycles,
 * committed uops, architectural state, and every counter.
 */
TEST(SampledPipeline, InfiniteWindowMatchesDetailedExactly)
{
    Program prog = loopProgram(1500);

    Memory ref_mem;
    seedMemory(ref_mem);
    SamplingParams off;
    Pipeline ref(prog, ref_mem, sampledParams(off));
    auto ref_res = ref.run(0);
    EXPECT_FALSE(ref.sampledMode());

    Memory sm_mem;
    seedMemory(sm_mem);
    SamplingParams sp;
    sp.enabled = true;
    sp.windowInsts = SamplingParams::kInfiniteWindow;
    Pipeline sm(prog, sm_mem, sampledParams(sp));
    auto sm_res = sm.run(0);
    EXPECT_TRUE(sm.sampledMode());

    EXPECT_EQ(ref_res.cycles, sm_res.cycles);
    EXPECT_EQ(ref_res.instructions, sm_res.instructions);
    EXPECT_EQ(sm.sampler().windows(), 0u); // never left the window
    for (unsigned r = 1; r <= 9; ++r)
        EXPECT_EQ(ref.regValue(r), sm.regValue(r)) << "reg " << r;
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(ref_mem.read(0x100000 + i * 8),
                  sm_mem.read(0x100000 + i * 8))
            << "slot " << i;
    for (const auto &[name, value] : ref.stats().all())
        EXPECT_EQ(value, sm.stats().get(name)) << "counter " << name;
    for (const auto &[name, value] : sm.stats().all())
        EXPECT_EQ(ref.stats().get(name), value) << "counter " << name;
}

/**
 * Functional correctness under real sampling: the phase machine must
 * retire most instructions through the functional path (cheap) while
 * leaving architectural state — registers, memory, committed-uop
 * count — identical to the detailed run's. Timing is an estimate by
 * design and is not compared.
 */
TEST(SampledPipeline, FiniteWindowsPreserveArchitecturalState)
{
    Program prog = loopProgram(1500);

    Memory ref_mem;
    seedMemory(ref_mem);
    PipelineParams ref_pp;
    ref_pp.detailedTelemetry = false;
    Pipeline ref(prog, ref_mem, ref_pp);
    auto ref_res = ref.run(0);

    Memory sm_mem;
    seedMemory(sm_mem);
    SamplingParams sp;
    sp.enabled = true;
    sp.windowInsts = 400;
    sp.warmingInsts = 600;
    sp.periodInsts = 2500;
    Pipeline sm(prog, sm_mem, sampledParams(sp));
    auto sm_res = sm.run(0);
    ASSERT_TRUE(sm.sampledMode());

    EXPECT_EQ(ref_res.instructions, sm_res.instructions);
    for (unsigned r = 1; r <= 9; ++r)
        EXPECT_EQ(ref.regValue(r), sm.regValue(r)) << "reg " << r;
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(ref_mem.read(0x100000 + i * 8),
                  sm_mem.read(0x100000 + i * 8))
            << "slot " << i;
    EXPECT_EQ(ref_mem.read(0x100200), sm_mem.read(0x100200));

    // The estimator actually sampled: at least two windows closed,
    // and the detailed fraction is a strict subset of the stream.
    const SamplingEstimator &est = sm.sampler();
    EXPECT_GE(est.windows(), 2u);
    EXPECT_LT(est.sampledInsts(), sm_res.instructions);
    EXPECT_GT(est.cpiMean(), 0.0);

    // The CPI estimate lands near the truth for this uniform loop.
    double exact_cpi = static_cast<double>(ref_res.cycles) /
                       static_cast<double>(ref_res.instructions);
    EXPECT_NEAR(est.cpiMean(), exact_cpi, 0.25 * exact_cpi);
}

/**
 * A functional phase that reaches the outermost return ends the run
 * in the cycle it engaged: nothing is left to fetch or commit, so no
 * further cycle may be charged — not even up to the completion event
 * of a load squashed earlier in the run, which stays queued until it
 * is lazily dropped. The first measured run below leaves exactly such
 * an event behind (a wrong-path DRAM miss), closes its detailed
 * window once the mispredict redirect has drained the ROB, and halts
 * in the skip that follows; the second run is spent entirely in skip.
 */
TEST(SampledPipeline, FunctionalHaltChargesNoFurtherCycles)
{
    constexpr Addr kHit = 0x200000;  // warmed into L1, holds 0
    constexpr Addr kMiss = 0x300000; // cold: a DRAM access
    Program prog;
    FuncId main = prog.addFunction("main", false);
    FuncId warm = prog.addFunction("warm", false);
    FuncId kfn = prog.addFunction("kfn", true);
    prog.func(main).body = {
        loadAbs(1, kHit),
        // Not taken; the cold predictor says taken, so the wrong
        // path at 4 issues the missing load before the squash.
        branchImm(Cond::Ne, 1, 0, 4),
        call(kfn),
        ret(),
        loadAbs(2, kMiss),
        ret(),
    };
    prog.func(warm).body = {loadAbs(1, kHit), ret()};
    prog.func(kfn).body = {addImm(4, 4, 1), ret()};
    prog.layout();

    Memory mem;
    SamplingParams sp;
    sp.enabled = true;
    sp.windowInsts = 2;
    sp.warmingInsts = 1;
    sp.periodInsts = 1'000'000; // the skip outlasts both runs
    Pipeline cpu(prog, mem, sampledParams(sp));
    cpu.run(warm);
    cpu.resetSampling();
    cpu.stats().clear();

    // Window: the load and the branch (plus the squashed wrong
    // path); skip: the call, the kernel body and both returns,
    // ending in the halt.
    RunResult closing = cpu.run(main);
    ASSERT_TRUE(cpu.sampledMode());
    ASSERT_GT(cpu.stats().get("squashed_uops"), 0u)
        << "the wrong-path load must have been squashed";
    ASSERT_EQ(cpu.sampler().windows(), 1u);
    EXPECT_EQ(cpu.sampler().sampledInsts(), 2u);
    EXPECT_EQ(closing.instructions, 6u);
    // The window opened in the run's first cycle and closed in its
    // last: no cycle after the halt.
    EXPECT_EQ(closing.cycles, cpu.sampler().sampledCycles() + 1);

    RunResult skipped = cpu.run(main);
    EXPECT_EQ(skipped.instructions, 6u);
    EXPECT_EQ(skipped.cycles, 1u);
    EXPECT_EQ(cpu.sampler().windows(), 1u);
}
