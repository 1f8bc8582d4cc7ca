/**
 * @file
 * Differential fuzz tests for the flat speculation-view structures.
 *
 * The production `Dsvmt` (index-addressed radix + MRU granule cache)
 * and `IsvView` (FuncId bitvector) were rewritten for the in-cell
 * fast path; the original hash-based implementations survive in
 * views_ref.hh as oracles. These tests drive long random operation
 * sequences through both sides with a fixed-seed mt19937 (fully
 * deterministic, no flaking) and assert identical observable
 * behaviour after every mutation batch: query results, walk levels,
 * footprint accounting, membership, epochs and region bits. A last
 * test checks the policy's DSVMT materialisation, which visits only
 * assigned frames, against a full scan of the frame table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/dsvmt.hh"
#include "core/isv.hh"
#include "core/perspective.hh"
#include "core/views_ref.hh"
#include "kernel/kstate.hh"
#include "sim/program.hh"

using namespace perspective::core;
using namespace perspective::sim;
using perspective::kernel::DomainId;
using perspective::kernel::kDomainReplicated;
using perspective::kernel::kDomainUnknown;
using perspective::kernel::KernelState;
using perspective::kernel::OwnershipMap;
using perspective::kernel::Pfn;

namespace
{

// >= 10k randomized ops per structure (acceptance floor).
constexpr unsigned kDsvmtOps = 20000;
constexpr unsigned kIsvOps = 12000;

/** PFN universe: a handful of 1 GB regions with a dense core, so
 * granule collisions (leaf vs 2M vs 1G precedence) actually occur. */
Pfn
randomPfn(std::mt19937_64 &rng)
{
    std::uint64_t gig = rng() % 3;
    std::uint64_t inner =
        rng() % 2 ? rng() % 4096 : rng() % (1ull << 18);
    return (gig << 18) | inner;
}

} // namespace

TEST(ViewsDiff, DsvmtRandomOpsMatchReference)
{
    std::mt19937_64 rng(0xd5f317);
    Dsvmt flat;
    DsvmtRef ref;

    auto expectSame = [&](Pfn pfn) {
        ASSERT_EQ(flat.queryPfn(pfn), ref.queryPfn(pfn))
            << "pfn " << pfn;
        ASSERT_EQ(flat.walkLevels(pfn), ref.walkLevels(pfn))
            << "pfn " << pfn;
    };

    for (unsigned op = 0; op < kDsvmtOps; ++op) {
        Pfn pfn = randomPfn(rng);
        bool val = rng() % 2;
        switch (rng() % 8) {
          case 0:
          case 1:
          case 2:
            flat.setPage(pfn, val);
            ref.setPage(pfn, val);
            break;
          case 3:
            flat.set2M(pfn & ~Pfn{511}, val);
            ref.set2M(pfn & ~Pfn{511}, val);
            break;
          case 4:
            flat.set1G(pfn & ~((Pfn{1} << 18) - 1), val);
            ref.set1G(pfn & ~((Pfn{1} << 18) - 1), val);
            break;
          case 5: {
            // Direct-map VA query, including out-of-map addresses.
            Addr va = rng() % 4 == 0
                          ? Addr{rng() % kDirectMapBase}
                          : perspective::kernel::directMapVa(pfn) +
                                rng() % 4096;
            ASSERT_EQ(flat.queryVa(va), ref.queryVa(va));
            break;
          }
          case 6:
            // Repeat queries into one granule to exercise MRU hits.
            for (unsigned i = 0; i < 8; ++i)
                expectSame((pfn & ~Pfn{511}) | (rng() % 512));
            break;
          default:
            expectSame(pfn);
            break;
        }
        // Footprint accounting must agree op-for-op: same leaf
        // materialization, huge-entry counts and byte units.
        ASSERT_EQ(flat.memoryBytes(), ref.memoryBytes())
            << "after op " << op;
        if (op % 997 == 0) {
            // Sweep a granule boundary straddle.
            Pfn base = (pfn & ~Pfn{511}) > 2 ? (pfn & ~Pfn{511}) - 2
                                             : 0;
            for (Pfn q = base; q < base + 5; ++q)
                expectSame(q);
        }
    }

    EXPECT_GT(flat.mruLookups(), 0u);
    EXPECT_GT(flat.mruHits(), 0u); // case 6 guarantees same-granule runs

    flat.clear();
    ref.clear();
    EXPECT_EQ(flat.memoryBytes(), 0u);
    EXPECT_EQ(flat.memoryBytes(), ref.memoryBytes());
    EXPECT_EQ(flat.queryPfn(0), ref.queryPfn(0));
}

TEST(ViewsDiff, DsvmtLeafReuseAfterPromote)
{
    // set2M drops a materialized leaf; a later setPage in the same
    // granule must re-materialize a fresh all-zero leaf (pool reuse
    // path), exactly like the reference's erase + operator[].
    std::mt19937_64 rng(42);
    Dsvmt flat;
    DsvmtRef ref;
    for (unsigned round = 0; round < 2000; ++round) {
        Pfn base = (rng() % 64) << 9;
        Pfn page = base + rng() % 512;
        flat.setPage(page, true);
        ref.setPage(page, true);
        bool v = rng() % 2;
        flat.set2M(base, v);
        ref.set2M(base, v);
        flat.setPage(page, false);
        ref.setPage(page, false);
        for (Pfn q = base; q < base + 512; q += 61) {
            ASSERT_EQ(flat.queryPfn(q), ref.queryPfn(q));
            ASSERT_EQ(flat.walkLevels(q), ref.walkLevels(q));
        }
        ASSERT_EQ(flat.memoryBytes(), ref.memoryBytes());
    }
}

TEST(ViewsDiff, IsvRandomOpsMatchReference)
{
    // A synthetic kernel program with enough functions that the
    // bitvector spans several words.
    Program prog;
    std::vector<FuncId> ids;
    for (unsigned i = 0; i < 200; ++i) {
        FuncId f =
            prog.addFunction("k" + std::to_string(i), true);
        prog.func(f).body.assign(1 + i % 7, nop());
        prog.func(f).body.push_back(ret());
        ids.push_back(f);
    }
    prog.layout();

    std::mt19937_64 rng(0x15f);
    IsvView flat(prog);
    IsvFuncSetRef ref;

    auto checkAll = [&]() {
        ASSERT_EQ(flat.numFunctions(), ref.size());
        ASSERT_EQ(flat.functions(), ref.sortedFunctions());
        for (FuncId f : ids) {
            ASSERT_EQ(flat.containsFunction(f), ref.contains(f));
            // Instruction bits must track membership exactly.
            ASSERT_EQ(flat.contains(prog.func(f).instAddr(0)),
                      ref.contains(f));
        }
    };

    std::uint64_t flatEpoch0 = flat.epoch();
    for (unsigned op = 0; op < kIsvOps; ++op) {
        FuncId f = ids[rng() % ids.size()];
        if (rng() % 2) {
            flat.includeFunction(f);
            ref.include(f);
        } else {
            flat.excludeFunction(f);
            ref.exclude(f);
        }
        if (op % 256 == 0)
            checkAll();
    }
    checkAll();
    // Epoch contract: exactly one bump per effective mutation on
    // both sides (started from a fresh reference).
    EXPECT_EQ(flat.epoch() - flatEpoch0, ref.epoch());
}

TEST(ViewsDiff, IsvSetAlgebraMatchesReference)
{
    Program prog;
    std::vector<FuncId> ids;
    for (unsigned i = 0; i < 150; ++i) {
        FuncId f =
            prog.addFunction("f" + std::to_string(i), true);
        prog.func(f).body = {nop(), ret()};
        ids.push_back(f);
    }
    prog.layout();

    std::mt19937_64 rng(7);
    for (unsigned round = 0; round < 120; ++round) {
        IsvView a(prog), b(prog);
        IsvFuncSetRef ra, rb;
        for (FuncId f : ids) {
            if (rng() % 2) {
                a.includeFunction(f);
                ra.include(f);
            }
            if (rng() % 2) {
                b.includeFunction(f);
                rb.include(f);
            }
        }
        if (round % 2) {
            a.intersectWith(b);
            ra.intersectWith(rb);
        } else {
            a.unionWith(b);
            ra.unionWith(rb);
        }
        ASSERT_EQ(a.numFunctions(), ra.size());
        ASSERT_EQ(a.functions(), ra.sortedFunctions());
        for (FuncId f : ids)
            ASSERT_EQ(a.contains(prog.func(f).instAddr(0)),
                      ra.contains(f));
    }
}

TEST(ViewsDiff, DsvmtMemoryBytesPinned)
{
    // Pins the unit-corrected footprint: huge entries are 8-byte
    // descriptors, leaves are 64-byte bitmaps. The pre-fix
    // accounting summed raw entry *counts* for the huge maps.
    Dsvmt t;
    EXPECT_EQ(t.memoryBytes(), 0u);

    t.setPage(100, true); // one leaf (gig 0)
    EXPECT_EQ(t.memoryBytes(), 64u);

    t.set2M(512 * 7, true); // + one 2M entry (gig 0)
    EXPECT_EQ(t.memoryBytes(), 64u + 8u);

    t.setPage((Pfn{1} << 18) + 3, true); // survivor leaf in gig 1
    EXPECT_EQ(t.memoryBytes(), 64u + 8u + 64u);

    // The region install replaces everything beneath it in gig 0:
    // the leaf and 2M entry die, one 1G descriptor appears. Gig 1 is
    // untouched.
    t.set1G(0, false);
    EXPECT_EQ(t.memoryBytes(), 8u + 64u);

    // A later setPage re-demotes: a fresh all-zero leaf refines the
    // region entry.
    t.setPage(100, true);
    EXPECT_EQ(t.memoryBytes(), 8u + 64u + 64u);

    t.set2M(512 * 7, false); // fresh 2M entry (old one was dropped)
    EXPECT_EQ(t.memoryBytes(), 8u + 64u + 64u + 8u);

    // Promoting the leaf's granule drops the leaf again.
    t.set2M(0, true); // granule 0 holds pfn 100's leaf
    EXPECT_EQ(t.memoryBytes(), 8u + 64u + 8u + 8u);

    DsvmtRef ref;
    ref.setPage(100, true);
    ref.set2M(512 * 7, true);
    ref.setPage((Pfn{1} << 18) + 3, true);
    ref.set1G(0, false);
    ref.setPage(100, true);
    ref.set2M(512 * 7, false);
    ref.set2M(0, true);
    EXPECT_EQ(ref.memoryBytes(), t.memoryBytes());

    t.clear();
    EXPECT_EQ(t.memoryBytes(), 0u);
}

TEST(ViewsDiff, DsvmtHugePrecedencePinned)
{
    // Pins the newest-installation-wins contract for overlapping
    // mappings. Pre-fix, set1G/set2M after setPage left the stale
    // leaf in place, silently shadowing the newer region verdict.
    Dsvmt t;
    DsvmtRef ref;
    auto step = [&](Pfn pfn, bool want, unsigned want_levels) {
        ASSERT_EQ(t.queryPfn(pfn), want) << "pfn " << pfn;
        ASSERT_EQ(ref.queryPfn(pfn), want) << "pfn " << pfn;
        ASSERT_EQ(t.walkLevels(pfn), want_levels) << "pfn " << pfn;
        ASSERT_EQ(ref.walkLevels(pfn), want_levels) << "pfn " << pfn;
    };

    t.setPage(5, true);
    ref.setPage(5, true);
    t.set2M(512 * 3, true);
    ref.set2M(512 * 3, true);
    step(5, true, 3);
    step(512 * 3 + 17, true, 2);

    // Region install maps the whole gig out: nothing stale shadows.
    t.set1G(0, false);
    ref.set1G(0, false);
    step(5, false, 1);
    step(512 * 3 + 17, false, 1);

    // Flip the region in: same walk depth, opposite verdict.
    t.set1G(0, true);
    ref.set1G(0, true);
    step(5, true, 1);
    step(512 * 3 + 17, true, 1);

    // Later finer-grained ops re-demote their granules. A demoting
    // setPage materializes an all-zero leaf, so its whole granule
    // reads out-of-DSV (leaf precedence — the documented model).
    t.setPage(5, false);
    ref.setPage(5, false);
    step(5, false, 3);
    step(6, false, 3);
    step(512, true, 1); // neighbouring granule still rides the 1G

    t.set2M(512 * 3, false);
    ref.set2M(512 * 3, false);
    step(512 * 3 + 17, false, 2);
    step(512 * 4, true, 1);

    ASSERT_EQ(t.memoryBytes(), ref.memoryBytes());
}

TEST(ViewsDiff, DsvmtOverlappingHugeOpsMatchReference)
{
    // Differential fuzz concentrated on overlap: every op lands in
    // two gigs with a dense granule core, and 1G installs are as
    // frequent as leaf writes, so promote-over-leaf, demote-under-1G
    // and 2M-vs-1G interleavings occur by the thousands.
    std::mt19937_64 rng(0xc0ffee);
    Dsvmt flat;
    DsvmtRef ref;

    auto expectSame = [&](Pfn pfn) {
        ASSERT_EQ(flat.queryPfn(pfn), ref.queryPfn(pfn))
            << "pfn " << pfn;
        ASSERT_EQ(flat.walkLevels(pfn), ref.walkLevels(pfn))
            << "pfn " << pfn;
    };

    for (unsigned op = 0; op < 12000; ++op) {
        std::uint64_t gig = rng() % 2;
        Pfn pfn = (gig << 18) | (rng() % 8 << 9) | (rng() % 512);
        bool val = rng() % 2;
        switch (rng() % 6) {
          case 0:
          case 1:
            flat.setPage(pfn, val);
            ref.setPage(pfn, val);
            break;
          case 2:
          case 3:
            flat.set2M(pfn & ~Pfn{511}, val);
            ref.set2M(pfn & ~Pfn{511}, val);
            break;
          default:
            flat.set1G(pfn & ~((Pfn{1} << 18) - 1), val);
            ref.set1G(pfn & ~((Pfn{1} << 18) - 1), val);
            break;
        }
        expectSame(pfn);
        // Sweep the mutated granule plus its neighbours, both sides
        // of the 2M boundary.
        Pfn base = pfn & ~Pfn{511};
        for (Pfn q = base; q < base + 512; q += 97)
            expectSame(q);
        if (base >= 512)
            expectSame(base - 1);
        expectSame(base + 512);
        ASSERT_EQ(flat.memoryBytes(), ref.memoryBytes())
            << "after op " << op;
    }
}

namespace
{

/** Scatter random ownership over the whole frame table: single frames
 * and runs of up to 300, owned by dynamic domains 2..5, replicated,
 * or released; the first and last frame always get an owner, and one
 * long run is cleared so the table has wide unassigned gaps. */
void
scatterOwnership(OwnershipMap &own, std::mt19937_64 &rng, unsigned runs)
{
    const Pfn n = own.numFrames();
    auto randomOwner = [&]() -> DomainId {
        switch (rng() % 8) {
          case 0: return kDomainReplicated;
          case 1: return kDomainUnknown;
          default: return static_cast<DomainId>(2 + rng() % 4);
        }
    };
    for (unsigned i = 0; i < runs; ++i) {
        Pfn start = rng() % n;
        Pfn len = rng() % 2 ? 1 : 1 + rng() % 300;
        own.assignRange(start, std::min(len, n - start), randomOwner());
    }
    Pfn gap = rng() % (n / 2);
    for (Pfn p = gap; p < gap + n / 8; ++p)
        own.release(p);
    own.assign(0, static_cast<DomainId>(2 + rng() % 4));
    own.assign(n - 1, kDomainReplicated);
}

/** A freshly registered context's DSVMT must give every frame the
 * verdict of a DsvmtRef built by scanning the whole frame table. */
void
expectMaterialisedLikeFullScan(OwnershipMap &own, DomainId domain)
{
    PerspectivePolicy pol(own);
    pol.registerContext(1, domain, nullptr);
    const Dsvmt &tree = pol.dsvmtOf(domain);
    DsvmtRef ref;
    for (Pfn p = 0; p < own.numFrames(); ++p) {
        DomainId owner = own.ownerOf(p);
        if (owner == domain || owner == kDomainReplicated)
            ref.setPage(p, true);
    }
    for (Pfn p = 0; p < own.numFrames(); ++p)
        ASSERT_EQ(tree.queryPfn(p), ref.queryPfn(p))
            << "domain " << domain << " pfn " << p;
    ASSERT_EQ(tree.memoryBytes(), ref.memoryBytes())
        << "domain " << domain;
}

} // namespace

TEST(ViewsDiff, DsvmtMaterialisationMatchesFullScan)
{
    Memory mem;
    KernelState ks{mem};
    OwnershipMap &own = ks.ownership();
    ASSERT_EQ(own.numFrames(), Pfn{1} << 18);
    std::mt19937_64 rng(0xd5f7a7);

    scatterOwnership(own, rng, 3000);
    ASSERT_NE(own.ownerOf(0), kDomainUnknown);
    ASSERT_EQ(own.ownerOf(own.numFrames() - 1), kDomainReplicated);
    for (DomainId d = 2; d < 6; ++d)
        expectMaterialisedLikeFullScan(own, d);

    // Reassignment after a restore: the snapshot's ownership (and
    // nothing assigned after it) is what a new context must see, plus
    // whatever is assigned after the restore.
    KernelState::Snapshot snap = ks.snapshot();
    scatterOwnership(own, rng, 3000);
    ks.restore(snap);
    for (DomainId d = 2; d < 6; ++d)
        expectMaterialisedLikeFullScan(own, d);
    scatterOwnership(own, rng, 500);
    own.release(0);
    own.assign(own.numFrames() - 1, 3);
    for (DomainId d = 2; d < 6; ++d)
        expectMaterialisedLikeFullScan(own, d);
}
