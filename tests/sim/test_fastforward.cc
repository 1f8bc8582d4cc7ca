/**
 * @file
 * Differential validation of fast-forward execution (DESIGN §5.5):
 * for randomly generated programs — arithmetic, memory traffic,
 * branches, loops, calls across the user/kernel boundary, indirect
 * calls including wild targets — a pipeline running with
 * PipelineParams::fastForward enabled must be indistinguishable from
 * one running the detailed loop: identical cycle count, identical
 * committed-uop count, identical architectural state, identical
 * counters and histograms (the ff.* meta-counters excepted, which
 * exist precisely to report how much the replica covered).
 */

#include <gtest/gtest.h>

#include "defenses/schemes.hh"
#include "sim/pipeline.hh"
#include "sim/program.hh"

using namespace perspective;
using namespace perspective::sim;

namespace
{

/** Deterministic program generator (splitmix64-driven). */
class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed) : state_(seed * 37 + 11) {}

    std::uint64_t
    rnd(std::uint64_t bound)
    {
        state_ += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        return bound ? z % bound : z;
    }

    /**
     * Function 0 is a user entry; higher-numbered functions are
     * kernel, so call chains cross the privilege boundary and charge
     * entry/exit microcode stalls — both paths a fast-forward region
     * must reproduce cycle-exactly. Long straight-line stretches are
     * generated on purpose: regions only commit work when a block
     * outlives the first fetch window.
     */
    Program
    make(unsigned nfuncs)
    {
        Program prog;
        for (unsigned f = 0; f < nfuncs; ++f)
            prog.addFunction("f" + std::to_string(f), f != 0);
        for (unsigned f = 0; f < nfuncs; ++f) {
            auto &body = prog.func(f).body;
            unsigned n_ops = 8 + static_cast<unsigned>(rnd(24));
            for (unsigned i = 0; i < n_ops; ++i) {
                switch (rnd(8)) {
                  case 0:
                    body.push_back(movImm(
                        static_cast<RegId>(1 + rnd(6)),
                        static_cast<std::int64_t>(rnd(1000))));
                    break;
                  case 1:
                    body.push_back(add(
                        static_cast<RegId>(1 + rnd(6)),
                        static_cast<RegId>(1 + rnd(6)),
                        static_cast<RegId>(1 + rnd(6))));
                    break;
                  case 2:
                    body.push_back(store(
                        kNoReg,
                        static_cast<std::int64_t>(
                            0x100000 + rnd(64) * 8),
                        static_cast<RegId>(1 + rnd(6))));
                    break;
                  case 3:
                    body.push_back(loadAbs(
                        static_cast<RegId>(1 + rnd(6)),
                        0x100000 + rnd(64) * 8));
                    break;
                  case 4: {
                    // Forward branch over the next instruction.
                    std::uint32_t target =
                        static_cast<std::uint32_t>(body.size() + 2);
                    body.push_back(branchImm(
                        static_cast<Cond>(rnd(4)),
                        static_cast<RegId>(1 + rnd(6)),
                        static_cast<std::int64_t>(rnd(500)), target));
                    body.push_back(addImm(
                        static_cast<RegId>(1 + rnd(6)),
                        static_cast<RegId>(1 + rnd(6)), 1));
                    break;
                  }
                  case 5:
                    if (f + 1 < nfuncs) {
                        body.push_back(call(static_cast<FuncId>(
                            f + 1 + rnd(nfuncs - f - 1))));
                    } else {
                        body.push_back(nop());
                    }
                    break;
                  case 6:
                    // Indirect call: mostly a valid callee, sometimes
                    // a wild pointer (architected no-op call).
                    if (f + 1 < nfuncs && rnd(4) != 0) {
                        body.push_back(movImm(
                            9, static_cast<std::int64_t>(
                                   f + 1 + rnd(nfuncs - f - 1))));
                    } else {
                        body.push_back(
                            movImm(9, 0x7fffffff + rnd(100)));
                    }
                    body.push_back(indirectCall(9));
                    break;
                  default:
                    body.push_back(addImm(
                        static_cast<RegId>(1 + rnd(6)),
                        static_cast<RegId>(1 + rnd(6)),
                        static_cast<std::int64_t>(rnd(64))));
                    break;
                }
            }
            // A bounded counted loop at the end of some functions.
            if (rnd(2)) {
                RegId ctr = 7;
                std::uint32_t head =
                    static_cast<std::uint32_t>(body.size() + 1);
                body.push_back(movImm(ctr, 0));
                body.push_back(branchImm(
                    Cond::Ge, ctr,
                    static_cast<std::int64_t>(2 + rnd(12)),
                    static_cast<std::uint32_t>(body.size() + 4)));
                body.push_back(loadAbs(8, 0x100000 + rnd(64) * 8));
                body.push_back(addImm(ctr, ctr, 1));
                body.push_back(jump(head));
            }
            body.push_back(ret());
        }
        prog.layout();
        return prog;
    }

  private:
    std::uint64_t state_;
};

PipelineParams
quietParams(bool ff)
{
    PipelineParams pp;
    // Fast-forward only engages without per-cycle telemetry; the
    // reference runs with the same setting so every remaining stat
    // is comparable one-to-one.
    pp.detailedTelemetry = false;
    pp.fastForward = ff;
    return pp;
}

void
seedMemory(Memory &mem)
{
    for (unsigned i = 0; i < 64; ++i)
        mem.write(0x100000 + i * 8, i * 3 + 1);
}

/** Harness-side counters the two modes may legitimately disagree
 * on: ff.* (the replica's own accounting). */
bool
harnessCounter(const std::string &name)
{
    return name.rfind("ff.", 0) == 0;
}

/** Everything but the harness meta-counters must match exactly. */
void
expectSameStats(StatSet &ref, StatSet &ff, const char *scheme,
                std::uint64_t seed)
{
    for (const auto &[name, value] : ref.all()) {
        if (harnessCounter(name))
            continue;
        EXPECT_EQ(value, ff.get(name))
            << scheme << " seed " << seed << " counter " << name;
    }
    for (const auto &[name, value] : ff.all()) {
        if (harnessCounter(name))
            continue;
        EXPECT_EQ(ref.get(name), value)
            << scheme << " seed " << seed << " counter " << name;
    }
    for (const auto &[name, h] : ref.allHistograms()) {
        auto it = ff.allHistograms().find(name);
        ASSERT_NE(it, ff.allHistograms().end())
            << scheme << " seed " << seed << " histogram " << name;
        const Histogram &o = it->second;
        EXPECT_EQ(h.count(), o.count())
            << scheme << " seed " << seed << " histogram " << name;
        EXPECT_EQ(h.min(), o.min())
            << scheme << " seed " << seed << " histogram " << name;
        EXPECT_EQ(h.max(), o.max())
            << scheme << " seed " << seed << " histogram " << name;
        EXPECT_DOUBLE_EQ(h.mean(), o.mean())
            << scheme << " seed " << seed << " histogram " << name;
    }
}

struct FastForwardDifferential
    : ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(FastForwardDifferential, IndistinguishableUnderEveryScheme)
{
    std::uint64_t seed = GetParam();
    ProgramGen gen(seed);
    Program prog = gen.make(5 + seed % 4);

    defenses::FencePolicy fence;
    defenses::DomPolicy dom;
    defenses::SttPolicy stt;
    defenses::SpotMitigationPolicy spot;
    std::vector<std::pair<const char *, SpeculationPolicy *>>
        schemes = {{"unsafe", nullptr}, {"fence", &fence},
                   {"dom", &dom},       {"stt", &stt},
                   {"spot", &spot}};

    for (auto [name, policy] : schemes) {
        Memory ref_mem;
        seedMemory(ref_mem);
        Pipeline ref(prog, ref_mem, quietParams(false));
        ref.setPolicy(policy);
        auto ref_res = ref.run(0);

        Memory ff_mem;
        seedMemory(ff_mem);
        Pipeline ff(prog, ff_mem, quietParams(true));
        ff.setPolicy(policy);
        auto ff_res = ff.run(0);

        EXPECT_EQ(ref_res.cycles, ff_res.cycles)
            << name << " seed " << seed;
        EXPECT_EQ(ref_res.instructions, ff_res.instructions)
            << name << " seed " << seed;
        for (unsigned r = 1; r <= 9; ++r) {
            EXPECT_EQ(ref.regValue(r), ff.regValue(r))
                << name << " seed " << seed << " reg " << r;
        }
        for (unsigned i = 0; i < 64; ++i) {
            EXPECT_EQ(ref_mem.read(0x100000 + i * 8),
                      ff_mem.read(0x100000 + i * 8))
                << name << " seed " << seed << " slot " << i;
        }
        expectSameStats(ref.stats(), ff.stats(), name, seed);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FastForwardDifferential,
                         ::testing::Range<std::uint64_t>(1, 33));

/**
 * A long straight-line region must actually be executed by the
 * fast-forward replica (not just materialized at the first fetch
 * window) and still match the detailed loop bit for bit.
 */
TEST(FastForward, LongRegionCommitsThroughReplica)
{
    Program prog;
    FuncId f = prog.addFunction("main", false);
    auto &body = prog.func(f).body;
    body.push_back(movImm(1, 5));
    for (unsigned i = 0; i < 40; ++i) {
        body.push_back(addImm(1, 1, 3));
        if (i % 4 == 0)
            body.push_back(loadAbs(2, 0x100000 + (i % 8) * 8));
        if (i % 8 == 0)
            body.push_back(store(kNoReg, 0x100200 + i * 8, 1));
    }
    body.push_back(ret());
    prog.layout();

    Memory ref_mem, ff_mem;
    seedMemory(ref_mem);
    seedMemory(ff_mem);
    Pipeline ref(prog, ref_mem, quietParams(false));
    Pipeline ff(prog, ff_mem, quietParams(true));
    auto ref_res = ref.run(f);
    auto ff_res = ff.run(f);

    EXPECT_EQ(ref_res.cycles, ff_res.cycles);
    EXPECT_EQ(ref_res.instructions, ff_res.instructions);
    EXPECT_EQ(ref.regValue(1), ff.regValue(1));
    EXPECT_GT(ff.stats().get("ff.entries"), 0u);
    EXPECT_GT(ff.stats().get("ff.uops"), 0u)
        << "the replica should commit work for a 40-op block";
    expectSameStats(ref.stats(), ff.stats(), "unsafe", 0);
}

/**
 * Wild indirect-call targets resolve to an architected no-op call —
 * the rule shared between the interpreter and the pipeline
 * (sim/program.hh validCallTarget) — in both execution modes.
 */
TEST(FastForward, WildIndirectTargetMatchesAcrossModes)
{
    Program prog;
    FuncId f = prog.addFunction("main", false);
    prog.func(f).body = {
        movImm(1, 0x7fffffff), // not a function id
        indirectCall(1),
        movImm(2, 1),
        ret(),
    };
    prog.layout();

    Memory ref_mem, ff_mem;
    Pipeline ref(prog, ref_mem, quietParams(false));
    Pipeline ff(prog, ff_mem, quietParams(true));
    auto ref_res = ref.run(f);
    auto ff_res = ff.run(f);

    // The wild call architecturally skips to fall-through: the next
    // op commits in both modes, with identical timing.
    EXPECT_EQ(ref.regValue(2), 1u);
    EXPECT_EQ(ff.regValue(2), 1u);
    EXPECT_EQ(ref_res.cycles, ff_res.cycles);
    EXPECT_EQ(ref_res.instructions, ff_res.instructions);
}
