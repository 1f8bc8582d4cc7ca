/**
 * @file
 * KernelImage: the IR half of the miniature kernel.
 *
 * The image synthesizes a Linux-scale kernel text — on the order of
 * 28 000 functions (Section 8.2: "the gadget search space is reduced
 * from 28K functions in Linux down to only 1.4K") — with a realistic
 * structure:
 *
 *  - a common syscall entry/exit chain (context tracking, seccomp,
 *    audit) shared by every system call;
 *  - per-subsystem cores (mm, fs, net, sched, security, time, ipc)
 *    cross-linked so that static reachability from any anchor pulls in
 *    the subsystem, while only the hot paths execute;
 *  - per-syscall private handler trees, including loop/copy workers
 *    that generate the memory traffic each syscall class is known for;
 *  - function-pointer dispatch (file ops, proto ops) whose targets are
 *    invisible to static call-graph analysis but observed by tracing —
 *    the static-vs-dynamic ISV gap of Section 5.3;
 *  - a large cold bulk of driver/crypto/sound modules where most
 *    transient-execution gadgets hide (Section 4.2: "deeply buried
 *    within infrequently used modules");
 *  - 1 533 planted transient-execution gadgets (805 MDS / 509 port /
 *    219 cache, the Kasper census) plus concrete, executable PoC
 *    gadgets for the CVE catalog of Table 4.1.
 *
 * Bodies follow fixed register conventions (kernel/process.hh): r10 is
 * the per-task context base, r11-r13 are syscall args, r14 is the
 * error-injection knob (always 0 in benign runs; fuzzers flip it to
 * reach error paths), r15 selects path variants, r16 is the per-cpu
 * base.
 */

#ifndef PERSPECTIVE_KERNEL_IMAGE_HH
#define PERSPECTIVE_KERNEL_IMAGE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/memory.hh"
#include "sim/program.hh"
#include "syscalls.hh"
#include "types.hh"

namespace perspective::kernel
{

/** Kernel subsystems (used for placement and reporting). */
enum class Subsystem : std::uint8_t
{
    Entry, Core, Lib, Security, Sched, Mm, Fs, Net, Time, Ipc,
    Driver, Crypto, Sound, Arch, Misc,
};

/** Covert-channel class of a planted gadget (the Kasper taxonomy). */
enum class GadgetKind : std::uint8_t
{
    Mds,   ///< microarchitectural-buffer channel
    Port,  ///< execution-port contention channel
    Cache, ///< cache-based channel
};

/** Per-function metadata kept alongside the Program. */
struct KFuncInfo
{
    Subsystem subsys = Subsystem::Misc;

    /** Direct call edges (derived from the body, like a disassembler
     * would). */
    std::vector<sim::FuncId> callees;

    /** Ground-truth runtime targets of indirect call sites in this
     * function (not visible to static analysis). */
    std::vector<sim::FuncId> indirectTargets;

    /** Gadgets planted in this function. */
    std::vector<GadgetKind> gadgets;
};

/** Generator configuration. */
struct ImageParams
{
    std::uint64_t seed = 42;
    /** Total kernel functions to synthesize (cold bulk pads to it). */
    unsigned targetFunctions = 28000;
    /** Kasper's gadget census. */
    unsigned mdsGadgets = 805;
    unsigned portGadgets = 509;
    unsigned cacheGadgets = 219;
    /** Probability that a generated load targets an unknown-domain
     * global / per-cpu variable (drives the DSV fence rate). */
    double globalLoadProb = 0.05;
    double perCpuLoadProb = 0.03;
};

/** Shared probe region (user VA) monitored by Flush+Reload PoCs. */
inline constexpr Addr kSharedProbeBase = 0x2000'0000;

/** Rodata frames holding fops/proto-ops tables (replicated domain). */
inline constexpr Pfn kRodataFirstPfn = 72;

/**
 * Builder and owner of the kernel Program plus its metadata. Workload
 * drivers append their user functions to program() afterwards; call
 * program().layout() once everything is in place.
 */
class KernelImage
{
  public:
    explicit KernelImage(sim::Memory &mem, ImageParams params = {});

    sim::Program &program() { return prog_; }
    const sim::Program &program() const { return prog_; }

    /** IR entry function of syscall @p s. */
    sim::FuncId entryOf(Sys s) const
    {
        return entries_[static_cast<unsigned>(s)];
    }

    const KFuncInfo &
    info(sim::FuncId f) const
    {
        return info_[f];
    }

    /** Number of kernel functions (== Linux's ~28K scale). */
    std::size_t numKernelFunctions() const { return info_.size(); }

    /** All functions containing at least one gadget, in id order
     * (collected once, at the end of construction). */
    const std::vector<sim::FuncId> &
    functionsWithGadgets() const
    {
        return gadgetFuncs_;
    }
    unsigned totalGadgets() const { return totalGadgets_; }

    /** @name Concrete PoC handles (Table 4.1 CVE analogues)
     * @{ */
    /** Spectre-v1 gadget in the USB driver, reachable from ioctl
     * (CVE-2022-27223 analogue). */
    sim::FuncId pocDriverGadget() const { return pocDriverGadget_; }
    /** Gadget on the ptrace path (CVE-2019-15902 analogue). */
    sim::FuncId pocPtraceGadget() const { return pocPtraceGadget_; }
    /** Verifier-injected gadget on the bpf path (eBPF CVE rows). */
    sim::FuncId pocBpfGadget() const { return pocBpfGadget_; }
    /** Cold gadget used as a speculative-control-flow hijack target
     * (Spectre v2 / Retbleed passive attacks). */
    sim::FuncId pocHijackGadget() const { return pocHijackGadget_; }
    /** Deep-recursion path walker that underflows the RSB. */
    sim::FuncId pathWalkRecursive() const { return pathWalk_; }
    /** Indirect-dispatch site (vfs read) whose BTB entry v2 poisons:
     * (function, micro-op index of the indirect call). */
    std::pair<sim::FuncId, std::uint32_t> vfsReadDispatch() const
    {
        return {vfsDispatch_[0], vfsDispatchIcallIdx_[0]};
    }
    /** @} */

    /** Offset of a task's secret within its context block (PoCs). */
    static constexpr std::int64_t kSecretCtxOff = 0x1888;
    /** Offset of the gadget-indexed table within the context block. */
    static constexpr std::int64_t kGadgetTableOff = 0x40;
    /** VA of the global holding the PoC gadget's bound (value 16). */
    Addr pocBoundGlobalVa() const { return pocBoundVa_; }

    const ImageParams &params() const { return params_; }

  public:
    /** Execution class a generated function falls into. */
    enum class FuncClass : std::uint8_t
    {
        Hot,  ///< on a benign hot path (ends up in dynamic ISVs)
        Warm, ///< statically reachable, dynamically dormant
        Cold, ///< unreachable from any modeled syscall
    };

    /** Class assigned to @p f during generation (ground truth used by
     * calibration tests; the ISV generators never look at it). */
    FuncClass classOf(sim::FuncId f) const { return class_[f]; }

  private:
    struct Assembler;
    struct BodyCfg;

    sim::FuncId newFunc(std::string name, Subsystem ss,
                        FuncClass cls);
    std::vector<sim::MicroOp> genBody(const BodyCfg &cfg);
    sim::FuncId genTree(const std::string &prefix, Subsystem ss,
                        unsigned depth, unsigned fanout,
                        double hot_fraction, FuncClass cls);
    void emitGadgetIr(Assembler &a, GadgetKind kind);
    void plantGadgetIr(sim::FuncId f, GadgetKind kind);
    std::vector<sim::FuncId> pickAnchors(Subsystem ss, unsigned n);
    void buildPools();
    void buildEntryExit();
    void buildCores();
    void buildCore(Subsystem ss, unsigned size);
    void buildIndirectImpls();
    void buildWorkers();
    void buildSyscallTrees();
    void buildColdBulk();
    void plantGadgets();
    void finalizeEdges();
    void writeRodataTables();
    std::uint64_t rnd(std::uint64_t bound);
    double rndReal();

    sim::Memory &mem_;
    ImageParams params_;
    sim::Program prog_;
    std::vector<KFuncInfo> info_;
    std::vector<FuncClass> class_;
    std::array<sim::FuncId, kNumSyscalls> entries_{};
    std::uint64_t rngState_;
    unsigned totalGadgets_ = 0;
    std::vector<sim::FuncId> gadgetFuncs_;

    // pools
    std::vector<sim::FuncId> libPool_;
    std::vector<sim::FuncId> errorPool_;
    std::vector<sim::FuncId> entryChain_;
    std::vector<sim::FuncId> exitChain_;
    std::vector<sim::FuncId> securityAnchors_;
    std::vector<std::vector<sim::FuncId>> coreAnchors_; // by subsystem
    std::vector<std::vector<sim::FuncId>> coreFuncs_;
    std::array<std::vector<sim::FuncId>, 4> fsImpls_;  // per fs type
    std::array<std::vector<sim::FuncId>, 3> netImpls_; // per proto
    std::vector<sim::FuncId> coldFuncs_;
    std::vector<sim::FuncId> hotTreeFuncs_; ///< executed on hot paths
    std::vector<sim::FuncId> warmTreeFuncs_;///< static-only reachable

    // workers
    sim::FuncId pollScanWorker_ = sim::kNoFunc;
    sim::FuncId copyWorker_ = sim::kNoFunc;
    sim::FuncId bigCopyWorker_ = sim::kNoFunc;
    sim::FuncId populateWorker_ = sim::kNoFunc;
    sim::FuncId forkCopyWorker_ = sim::kNoFunc;
    sim::FuncId pathWalk_ = sim::kNoFunc;

    // vfs/proto dispatch functions and their icall op index
    std::array<sim::FuncId, 6> vfsDispatch_{};
    std::array<std::uint32_t, 6> vfsDispatchIcallIdx_{};
    std::array<sim::FuncId, 5> netDispatch_{};

    // PoC handles
    sim::FuncId pocDriverGadget_ = sim::kNoFunc;
    sim::FuncId pocPtraceGadget_ = sim::kNoFunc;
    sim::FuncId pocBpfGadget_ = sim::kNoFunc;
    sim::FuncId pocHijackGadget_ = sim::kNoFunc;
    Addr pocBoundVa_ = 0;
};

/** VA of the ops-table slot for fs type @p t, operation @p slot. */
constexpr Addr
fopsSlotVa(unsigned t, unsigned slot)
{
    return directMapVa(kRodataFirstPfn) + Addr{t} * 0x100 +
           Addr{slot} * 8;
}

/** VA of the proto-ops slot for protocol @p p, operation @p slot. */
constexpr Addr
protoOpsSlotVa(unsigned p, unsigned slot)
{
    return directMapVa(kRodataFirstPfn + 4) + Addr{p} * 0x100 +
           Addr{slot} * 8;
}

} // namespace perspective::kernel

#endif // PERSPECTIVE_KERNEL_IMAGE_HH
