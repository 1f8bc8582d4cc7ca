/**
 * @file
 * Architectural differential across the repo's three executors of
 * committed-path semantics: the detailed out-of-order pipeline,
 * kernel::Interpreter, and a sampled pipeline whose tiny
 * window/warm/period settings make it alternate detailed windows with
 * functional fast-forwarding (Pipeline::functionalAdvance, both its
 * skip and its warm phase) several times per program. For randomly
 * generated programs — arithmetic, memory traffic, branches, loops,
 * calls across the user/kernel boundary, indirect calls including
 * wild targets, and source operands of kNoReg — all three must agree
 * on every register, the data memory and the committed-uop count,
 * under every scheme. Timing is not compared: the sampled pipeline
 * only estimates it, and the interpreter has none.
 */

#include <gtest/gtest.h>

#include "defenses/schemes.hh"
#include "kernel/interp.hh"
#include "sim/pipeline.hh"
#include "sim/program.hh"

using namespace perspective;
using namespace perspective::sim;

namespace
{

constexpr Addr kData = 0x100000; ///< 64 data slots of 8 bytes

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
     * Function 1 is the user entry; higher-numbered functions are
     * kernel, so call chains cross the privilege boundary. Direct
     * and valid indirect calls only go to higher ids, so every
     * program terminates. Function 0 is a kernel leaf: an indirect
     * call through kNoReg reads target 0 and lands there.
     */
    Program
    make(unsigned nfuncs)
    {
        Program prog;
        prog.addFunction("zero", true);
        for (unsigned f = 1; f < nfuncs; ++f)
            prog.addFunction("f" + std::to_string(f), f != 1);

        auto &zero = prog.func(0).body;
        zero.push_back(addImm(5, 5, 7));
        zero.push_back(
            store(kNoReg, static_cast<std::int64_t>(slot()), 5));
        zero.push_back(ret());

        for (unsigned f = 1; f < nfuncs; ++f) {
            auto &body = prog.func(f).body;
            unsigned n_ops = 8 + static_cast<unsigned>(rnd(24));
            for (unsigned i = 0; i < n_ops; ++i)
                emitOp(body, f, nfuncs);
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
                body.push_back(loadAbs(8, slot()));
                body.push_back(addImm(ctr, ctr, 1));
                body.push_back(jump(head));
            }
            body.push_back(ret());
        }
        prog.layout();
        return prog;
    }

  private:
    RegId reg() { return static_cast<RegId>(1 + rnd(6)); }
    Addr slot() { return kData + rnd(64) * 8; }

    /** Append one random op (or a short idiom) to @p body. */
    void
    emitOp(std::vector<MicroOp> &body, unsigned f, unsigned nfuncs)
    {
        const bool canCall = f + 1 < nfuncs;
        auto callee = [&] {
            return static_cast<FuncId>(f + 1 + rnd(nfuncs - f - 1));
        };
        switch (rnd(12)) {
          case 0:
            body.push_back(
                movImm(reg(), static_cast<std::int64_t>(rnd(1000))));
            break;
          case 1:
            body.push_back(add(reg(), reg(), reg()));
            break;
          case 2:
            body.push_back(store(kNoReg,
                                 static_cast<std::int64_t>(slot()),
                                 reg()));
            break;
          case 3:
            body.push_back(loadAbs(reg(), slot()));
            break;
          case 4: {
            // Forward branch over the next instruction.
            std::uint32_t target =
                static_cast<std::uint32_t>(body.size() + 2);
            body.push_back(branchImm(
                static_cast<Cond>(rnd(4)), reg(),
                static_cast<std::int64_t>(rnd(500)), target));
            body.push_back(addImm(reg(), reg(), 1));
            break;
          }
          case 5:
            body.push_back(canCall ? call(callee()) : nop());
            break;
          case 6:
            // Indirect call: mostly a valid callee, sometimes a wild
            // pointer (architected no-op call).
            if (canCall && rnd(4) != 0)
                body.push_back(
                    movImm(9, static_cast<std::int64_t>(callee())));
            else
                body.push_back(movImm(
                    9, static_cast<std::int64_t>(0x7fffffff +
                                                 rnd(100))));
            body.push_back(indirectCall(9));
            break;
          case 7:
            // A store whose value register is kNoReg stores 0.
            body.push_back(store(
                kNoReg, static_cast<std::int64_t>(slot()), kNoReg));
            break;
          case 8: {
            // A branch whose source register is kNoReg compares 0.
            std::uint32_t target =
                static_cast<std::uint32_t>(body.size() + 2);
            body.push_back(branchImm(
                static_cast<Cond>(rnd(4)), kNoReg,
                static_cast<std::int64_t>(rnd(3)), target));
            body.push_back(addImm(reg(), reg(), 1));
            break;
          }
          case 9:
            // An indirect call through kNoReg targets function 0.
            body.push_back(indirectCall(kNoReg));
            break;
          case 10:
            body.push_back(rnd(2) ? mul(reg(), reg(), reg())
                                  : fence());
            break;
          default:
            body.push_back(addImm(reg(), reg(),
                                  static_cast<std::int64_t>(rnd(64))));
            break;
        }
    }

    std::uint64_t state_;
};

constexpr FuncId kEntry = 1;

/** Each side runs the entry this many times back to back, carrying
 * registers and memory across runs (the sampling phase machine
 * spans them too), so even short programs pass quiescent points. */
constexpr unsigned kRuns = 3;

void
seedMemory(Memory &mem)
{
    for (unsigned i = 0; i < 64; ++i)
        mem.write(kData + i * 8, i * 3 + 1);
}

/** Small enough that every generated program passes through several
 * detailed windows, functional skips and functional warms. */
PipelineParams
sampledParams()
{
    PipelineParams pp;
    pp.detailedTelemetry = false; // sampling requires it off
    pp.sampling = SamplingParams::parse("w=6,warm=5,period=24");
    return pp;
}

/** Architectural outcome of one execution. */
struct ArchState
{
    std::array<std::uint64_t, kNumRegs> regs{};
    std::array<std::uint64_t, 64> data{};
    std::uint64_t uops = 0;
};

template <typename Exec>
ArchState
capture(const Exec &exec, const Memory &mem, std::uint64_t uops)
{
    ArchState s;
    for (unsigned r = 0; r < kNumRegs; ++r)
        s.regs[r] = exec.regValue(r);
    for (unsigned i = 0; i < 64; ++i)
        s.data[i] = mem.read(kData + i * 8);
    s.uops = uops;
    return s;
}

ArchState
runInterpreter(const Program &prog, FuncId entry)
{
    Memory mem;
    seedMemory(mem);
    kernel::Interpreter in(prog, mem);
    std::uint64_t uops = 0;
    for (unsigned i = 0; i < kRuns; ++i) {
        auto res = in.run(entry);
        EXPECT_TRUE(res.completed);
        uops += res.uops;
    }
    return capture(in, mem, uops);
}

/** Runs @p entry on a pipeline; @p sampled (optional) reports
 * whether the runs retired micro-ops through functional
 * fast-forwarding. */
ArchState
runPipeline(const Program &prog, FuncId entry, PipelineParams pp,
            SpeculationPolicy *policy, bool *sampled = nullptr)
{
    Memory mem;
    seedMemory(mem);
    Pipeline cpu(prog, mem, pp);
    cpu.setPolicy(policy);
    std::uint64_t uops = 0;
    for (unsigned i = 0; i < kRuns; ++i)
        uops += cpu.run(entry).instructions;
    if (sampled) {
        // Two closed windows bracket a functional skip and warm.
        *sampled = cpu.sampledMode() && cpu.sampler().windows() >= 2;
    }
    return capture(cpu, mem, uops);
}

void
expectSameArch(const ArchState &ref, const ArchState &got,
               const std::string &what)
{
    EXPECT_EQ(ref.uops, got.uops) << what << ": committed uops";
    EXPECT_EQ(ref.regs, got.regs) << what << ": registers";
    EXPECT_EQ(ref.data, got.data) << what << ": data slots";
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
    Program prog = gen.make(6 + seed % 4);

    const ArchState ref = runInterpreter(prog, kEntry);

    defenses::FencePolicy fence;
    defenses::DomPolicy dom;
    defenses::SttPolicy stt;
    defenses::SpotMitigationPolicy spot;
    std::vector<std::pair<const char *, SpeculationPolicy *>>
        schemes = {{"unsafe", nullptr}, {"fence", &fence},
                   {"dom", &dom},       {"stt", &stt},
                   {"spot", &spot}};

    for (auto [name, policy] : schemes) {
        const std::string tag =
            std::string(name) + " seed " + std::to_string(seed);
        expectSameArch(ref,
                       runPipeline(prog, kEntry, PipelineParams{},
                                   policy),
                       tag + " detailed");
        bool sampled = false;
        expectSameArch(ref,
                       runPipeline(prog, kEntry, sampledParams(),
                                   policy, &sampled),
                       tag + " sampled");
        EXPECT_TRUE(sampled)
            << tag << ": no functional phase ran; the sampled side "
            << "would only repeat the detailed one";
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FastForwardDifferential,
                         ::testing::Range<std::uint64_t>(1, 33));

/**
 * Wild indirect-call targets resolve to an architected no-op call —
 * the rule shared between the interpreter and the pipeline
 * (sim/program.hh validCallTarget) — on all three executors.
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

    const ArchState ref = runInterpreter(prog, f);
    // The wild call architecturally skips to fall-through, so the
    // next op commits.
    EXPECT_EQ(ref.regs[2], 1u);
    EXPECT_EQ(ref.uops, 4u * kRuns);
    expectSameArch(ref, runPipeline(prog, f, PipelineParams{}, nullptr),
                   "detailed");
    expectSameArch(ref, runPipeline(prog, f, sampledParams(), nullptr),
                   "sampled");
}
