#include "perspective.hh"

#include <cassert>
#include <stdexcept>

#include "kernel/fleet.hh"
#include "sim/trace.hh"

namespace perspective::core
{

using kernel::DomainId;
using kernel::kDomainReplicated;
using kernel::kDomainUnknown;
using sim::Gate;
using sim::SpecContext;

PerspectivePolicy::PerspectivePolicy(kernel::OwnershipMap &ownership,
                                     PerspectiveConfig cfg,
                                     std::string name)
    : ownership_(ownership),
      cfg_(cfg),
      name_(std::move(name)),
      isvCache_(cfg.isvCacheEntries, cfg.cacheAssoc),
      dsvCache_(cfg.dsvCacheEntries, cfg.cacheAssoc)
{
    // Ownership changes shoot down stale DSV cache entries and the
    // per-domain DSVMT mirrors, the software/hardware contract of
    // Section 6.1. With a clock and a nonzero revocationLatency the
    // shootdown is deferred instead: the kernel has already moved the
    // frame, but the hardware keeps the old verdict until the
    // pending revocation drains — the mid-flight window.
    listenerId_ = ownership_.addListener([this](kernel::Pfn pfn) {
        if (clock_ && cfg_.revocationLatency > 0) {
            pending_.push_back(
                {pfn, *clock_, *clock_ + cfg_.revocationLatency});
            return;
        }
        dsvCache_.invalidatePage(kernel::directMapVa(pfn));
        DomainId owner = ownership_.ownerOf(pfn);
        for (auto &[domain, tree] : dsvmts_) {
            tree.setPage(pfn, owner == domain ||
                                  owner == kDomainReplicated);
        }
    });
}

PerspectivePolicy::~PerspectivePolicy()
{
    ownership_.removeListener(listenerId_);
}

void
PerspectivePolicy::registerContext(sim::Asid asid, DomainId domain,
                                   const IsvView *isv)
{
    assert(domain != kDomainUnknown &&
           "a context belongs to a real ownership domain");
    Context c;
    c.domain = domain;
    c.isv = isv;
    c.isvEpochSeen = isv ? isv->epoch() : 0;
    c.fleetSeen = fleetGen_;
    contexts_[asid] = c;
    ctxMruCtx_ = nullptr;
    ctxMruTree_ = nullptr;
    ++contextsGen_;

    // Materialize the domain's DSVMT from current ownership (the OS
    // builds the in-memory table when the context is created); the
    // listener keeps it in sync afterwards. Only assigned frames can
    // be in the view, so only they are visited.
    auto [it, fresh] = dsvmts_.try_emplace(domain);
    if (fresh) {
        Dsvmt &tree = it->second;
        ownership_.forEachAssigned(
            [&](kernel::Pfn pfn, DomainId owner) {
                if (owner == domain || owner == kDomainReplicated)
                    tree.setPage(pfn, true);
            });
    }
}

bool
PerspectivePolicy::inDsv(sim::Addr va, DomainId domain) const
{
    DomainId owner = ownership_.ownerOfVa(va);
    if (owner == kDomainReplicated)
        return true;
    if (owner == kDomainUnknown)
        return !cfg_.blockUnknown;
    return owner == domain;
}

sim::LeakWindow
PerspectivePolicy::updateWindow(sim::Addr va, sim::Asid asid) const
{
    // Priority: a pending revocation covering the frame is the most
    // specific explanation for a stale allow, then the coarser
    // context-wide windows.
    if (kernel::inDirectMap(va)) {
        kernel::Pfn pfn = kernel::directMapPfn(va);
        for (const PendingRevocation &r : pending_) {
            if (r.pfn == pfn)
                return sim::LeakWindow::Revocation;
        }
    }
    auto it = contexts_.find(asid);
    if (it != contexts_.end()) {
        const Context &c = it->second;
        if (fleetGen_ != 0 && c.fleetSeen != fleetGen_)
            return sim::LeakWindow::FleetFlip;
        if (c.isv && c.isvEpochSeen != c.isv->epoch())
            return sim::LeakWindow::ModuleLoad;
    }
    return sim::LeakWindow::Baseline;
}

const Dsvmt &
PerspectivePolicy::dsvmtOf(DomainId domain) const
{
    auto it = dsvmts_.find(domain);
    if (it == dsvmts_.end()) {
        throw std::out_of_range(
            name_ + ": dsvmtOf(" + std::to_string(domain) +
            "): no context was registered for this domain");
    }
    return it->second;
}

sim::Cycle
PerspectivePolicy::fleetTighten(std::uint32_t aspect_bits,
                                const IsvView *admin_isv)
{
    fleetBits_ |= aspect_bits;
    if (admin_isv)
        adminIsv_ = admin_isv;
    ++fleetGen_;
    sim::Cycle now = clock_ ? *clock_ : 0;
    sim::Cycle lat =
        kFleetFlipBase +
        kFleetFlipPerContext * static_cast<sim::Cycle>(contexts_.size());
    fleetFlipAt_ = now;
    fleetVisibleAt_ = now + lat;
    // Wake anything blocked under a pre-flip verdict; it re-gates and
    // picks up the tightened value once past fleetVisibleAt_.
    ++contextsGen_;
    noteUpdateLatency(lat);
    if (sim::trace::eventsEnabled()) {
        sim::trace::Event ev;
        ev.flag = sim::trace::Flag::Window;
        ev.start = now;
        ev.dur = lat;
        ev.kernel = true;
        ev.name = "fleet-flip window";
        ev.func = name_;
        sim::trace::eventLog()->record(std::move(ev));
    }
    return lat;
}

void
PerspectivePolicy::noteUpdateLatency(sim::Cycle latency)
{
    if (stats_)
        stats_->histogram("update_latency").sample(latency);
}

void
PerspectivePolicy::applyRevocation(const PendingRevocation &r,
                                   sim::Cycle now)
{
    dsvCache_.invalidatePage(kernel::directMapVa(r.pfn));
    DomainId owner = ownership_.ownerOf(r.pfn);
    for (auto &[domain, tree] : dsvmts_) {
        tree.setPage(r.pfn,
                     owner == domain || owner == kDomainReplicated);
    }
    if (stats_) {
        stats_->histogram("transient_gap_cycles")
            .sample(now >= r.revokedAt ? now - r.revokedAt : 0);
    }
    // Structured span for the realized window, rendered in Perfetto
    // next to the pipeline lanes (leak events land inside it).
    if (sim::trace::eventsEnabled()) {
        sim::trace::Event ev;
        ev.flag = sim::trace::Flag::Window;
        ev.start = r.revokedAt;
        ev.dur = now >= r.revokedAt ? now - r.revokedAt : 0;
        ev.seq = r.pfn;
        ev.kernel = true;
        ev.name = "revocation window";
        ev.func = "pfn[" + std::to_string(r.pfn) + "]";
        sim::trace::eventLog()->record(std::move(ev));
    }
}

void
PerspectivePolicy::drainRevocations(sim::Cycle now)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].applyAt <= now)
            applyRevocation(pending_[i], now);
        else
            pending_[kept++] = pending_[i];
    }
    pending_.resize(kept);
}

void
PerspectivePolicy::flushPendingRevocations()
{
    for (const PendingRevocation &r : pending_)
        applyRevocation(r, clock_ ? *clock_ : r.applyAt);
    pending_.clear();
}

std::uint64_t
PerspectivePolicy::dsvmtMruHits() const
{
    std::uint64_t n = 0;
    for (const auto &[domain, tree] : dsvmts_)
        n += tree.mruHits();
    return n;
}

std::uint64_t
PerspectivePolicy::dsvmtMruLookups() const
{
    std::uint64_t n = 0;
    for (const auto &[domain, tree] : dsvmts_)
        n += tree.mruLookups();
    return n;
}

void
PerspectivePolicy::resetDsvmtMruStats()
{
    for (auto &[domain, tree] : dsvmts_)
        tree.resetMruStats();
}

void
PerspectivePolicy::setStats(sim::StatSet *stats)
{
    SpeculationPolicy::setStats(stats);
    if (!stats)
        return;
    ctrUnregistered_ =
        stats->counter("perspective.fence.unregistered");
    ctrIsvFence_ = stats->counter("perspective.fence.isv");
    ctrIsvMiss_ = stats->counter("perspective.fence.isv_miss");
    ctrDsvFence_ = stats->counter("perspective.fence.dsv");
    ctrDsvMiss_ = stats->counter("perspective.fence.dsv_miss");
    // Dynamic-update metrics ("update_latency",
    // "transient_gap_cycles", "revocation.stale_allows") are created
    // lazily at event time: static configurations must emit exactly
    // the legacy stat set, bit for bit. The lazy handles below keep
    // that (and the miss-burst histograms' first-event creation).
    histIsvMissBurst_.bind(stats);
    histDsvMissBurst_.bind(stats);
    ctrStaleAllows_.bind(stats);
}

void
PerspectivePolicy::noteHit(std::uint64_t &run,
                           sim::LazyHistogram &hist)
{
    if (run == 0)
        return;
    // A hit ends a consecutive-miss burst: record its length so the
    // cache-behaviour analyses can tell scattered misses (capacity)
    // from bursts (cold regions / view reconfigurations).
    if (stats_)
        hist.sample(run);
    run = 0;
}

bool
PerspectivePolicy::effBlockUnknown(const Context &c) const
{
    if (cfg_.blockUnknown)
        return true;
    return fleetGen_ != 0 && c.fleetSeen == fleetGen_ &&
           (fleetBits_ & kernel::kFleetBlockUnknown) != 0;
}

Gate
PerspectivePolicy::gateLoad(const SpecContext &ctx)
{
    // Land any revocation whose shootdown latency has elapsed before
    // this check reads the caches (empty in static configurations).
    if (!pending_.empty())
        drainRevocations(ctx.now);

    // Perspective protects kernel execution; userspace speculation
    // and non-speculative accesses proceed unimpeded.
    if (!ctx.kernelMode || !ctx.speculative)
        return Gate::Allow;

    bool flush_on_switch =
        cfg_.flushOnContextSwitch ||
        ((fleetBits_ & kernel::kFleetFlushOnSwitch) != 0 &&
         ctx.now >= fleetVisibleAt_);
    if (flush_on_switch && ctx.asid != lastAsid_) {
        // Untagged hardware would have to flush on every switch.
        isvCache_.invalidateAll();
        dsvCache_.invalidateAll();
    }
    lastAsid_ = ctx.asid;

    // Every load of a run resolves the same ASID: a one-entry MRU
    // makes the common case pointer-stable and hash-free
    // (unordered_map node addresses survive rehashing; the MRU is
    // dropped whenever contexts_/dsvmts_ can change).
    Context *c;
    if (ctxMruCtx_ && ctxMruAsid_ == ctx.asid) {
        c = ctxMruCtx_;
    } else {
        auto it = contexts_.find(ctx.asid);
        if (it == contexts_.end()) {
            // Unregistered context: conservatively block. The
            // verdict only changes if the context gets registered.
            if (stats_)
                ctrUnregistered_.inc();
            lastWake_ = sim::GateWake::untilInputs();
            lastWake_.depend(&contextsGen_);
            lastWake_.blockedTally =
                stats_ ? &ctrUnregistered_ : nullptr;
            noteBlock(ctx);
            return Gate::Block;
        }
        ctxMruAsid_ = ctx.asid;
        ctxMruCtx_ = &it->second;
        auto tit = dsvmts_.find(it->second.domain);
        ctxMruTree_ = tit == dsvmts_.end() ? nullptr : &tit->second;
        c = ctxMruCtx_;
    }

    // Fleet sync (DEXCR model): a task picks up a tightened
    // enforcement value at its first kernel gate check past the
    // flip's visibility point; its cached verdicts were computed
    // under the old value and are dropped.
    if (c->fleetSeen != fleetGen_ && ctx.now >= fleetVisibleAt_) {
        c->fleetSeen = fleetGen_;
        isvCache_.invalidateAsid(ctx.asid);
        dsvCache_.invalidateAll();
        if (stats_) {
            stats_->histogram("transient_gap_cycles")
                .sample(ctx.now >= fleetFlipAt_
                            ? ctx.now - fleetFlipAt_
                            : 0);
        }
    }

    // Any Block below is released by an ISV/DSV cache fill or
    // invalidation, an ISV reconfiguration (epoch tick), a context-
    // table change, or the speculation horizon (implicit); non-first
    // re-checks bump no counters, so no tally is needed.
    auto blockOnViews = [&](sim::Cycle recheck_at) {
        lastWake_ = sim::GateWake::untilInputs();
        lastWake_.depend(&contextsGen_);
        if (cfg_.enableIsv) {
            lastWake_.depend(isvCache_.genPtr());
            if (c->isv)
                lastWake_.depend(c->isv->epochPtr());
        }
        if (cfg_.enableDsv)
            lastWake_.depend(dsvCache_.genPtr());
        lastWake_.recheckAt = recheck_at;
        noteBlock(ctx);
        return Gate::Block;
    };

    if (cfg_.enableIsv && c->isv) {
        // A reconfigured view invalidates this context's entries.
        if (c->isvEpochSeen != c->isv->epoch()) {
            isvCache_.invalidateAsid(ctx.asid);
            c->isvEpochSeen = c->isv->epoch();
        }
        HwLookup look = isvCache_.lookup(ctx.pc, ctx.asid, true,
                                         ctx.now, ctx.firstCheck);
        if (!look.hit) {
            if (ctx.firstCheck) {
                IsvRegionBits bits;
                bits.bits = c->isv->regionBits(
                    ctx.pc, IsvCache::kRegionBytes);
                if (adminIsv_ && c->fleetSeen == fleetGen_ &&
                    (fleetBits_ & kernel::kFleetRestrictIsv) != 0) {
                    // Admin restriction composes by intersection:
                    // no tenant view may widen past the fleet view.
                    auto admin = adminIsv_->regionBits(
                        ctx.pc, IsvCache::kRegionBytes);
                    bits.bits[0] &= admin[0];
                    bits.bits[1] &= admin[1];
                }
                isvCache_.fill(ctx.pc, ctx.asid, bits,
                               ctx.now + cfg_.fillLatency);
                noteMiss(isvMissRun_);
                if (stats_) {
                    ctrIsvFence_.inc();
                    ctrIsvMiss_.inc();
                }
                return blockOnViews(ctx.now + cfg_.fillLatency);
            }
            return blockOnViews(look.readyAt);
        }
        if (ctx.firstCheck)
            noteHit(isvMissRun_, histIsvMissBurst_);
        if (!look.allow) {
            if (stats_ && ctx.firstCheck)
                ctrIsvFence_.inc();
            return blockOnViews(0);
        }
    }

    if (cfg_.enableDsv && kernel::inDirectMap(ctx.dataVa)) {
        HwLookup look = dsvCache_.lookup(ctx.dataVa, ctx.asid, true,
                                         ctx.now, ctx.firstCheck);
        if (!look.hit) {
            if (ctx.firstCheck) {
                dsvCache_.fill(ctx.dataVa, ctx.asid,
                               dsvFillValue(ctx.dataVa, *c),
                               ctx.now + cfg_.fillLatency);
                noteMiss(dsvMissRun_);
                if (stats_) {
                    ctrDsvFence_.inc();
                    ctrDsvMiss_.inc();
                }
                return blockOnViews(ctx.now + cfg_.fillLatency);
            }
            return blockOnViews(look.readyAt);
        }
        if (ctx.firstCheck)
            noteHit(dsvMissRun_, histDsvMissBurst_);
        if (!look.allow) {
            if (stats_ && ctx.firstCheck)
                ctrDsvFence_.inc();
            return blockOnViews(0);
        }

        // The verdict says Allow — but is it stale? If a pending
        // revocation covers this page and ground truth now denies it,
        // this load is reading through the open transient window.
        // (No firstCheck gate: a load that missed the DSV cache gets
        // its Allow on a recheck, and Allow ends the recheck loop, so
        // this fires once per resolved load either way.)
        if (!pending_.empty()) {
            kernel::Pfn pfn = kernel::directMapPfn(ctx.dataVa);
            for (const PendingRevocation &r : pending_) {
                if (r.pfn == pfn &&
                    !inDsv(ctx.dataVa, c->domain)) {
                    if (stats_)
                        ctrStaleAllows_.inc();
                    break;
                }
            }
        }
    }

    return Gate::Allow;
}

void
PerspectivePolicy::warmAccess(const SpecContext &ctx)
{
    // Functional warming (DESIGN §5.8): replay a committed kernel
    // load against the ISV/DSV caches so sampled detailed windows
    // start with the lookup state a continuously-detailed run would
    // have. Everything here must stay accounting-free: no counters,
    // no burst runs, no histogram samples, no wake-slot writes —
    // warming has no timeline, so fills land immediately ready and
    // deferred-LRU is off. The pipeline only warms while
    // allowFunctionalSkip() holds, so no revocation window is open.
    if (!ctx.kernelMode)
        return;

    Context *c;
    if (ctxMruCtx_ && ctxMruAsid_ == ctx.asid) {
        c = ctxMruCtx_;
    } else {
        auto it = contexts_.find(ctx.asid);
        if (it == contexts_.end())
            return; // unregistered: nothing to warm
        ctxMruAsid_ = ctx.asid;
        ctxMruCtx_ = &it->second;
        auto tit = dsvmts_.find(it->second.domain);
        ctxMruTree_ = tit == dsvmts_.end() ? nullptr : &tit->second;
        c = ctxMruCtx_;
    }

    if (cfg_.enableIsv && c->isv) {
        if (c->isvEpochSeen != c->isv->epoch()) {
            isvCache_.invalidateAsid(ctx.asid);
            c->isvEpochSeen = c->isv->epoch();
        }
        HwLookup look = isvCache_.lookup(ctx.pc, ctx.asid, false,
                                         ctx.now, false);
        if (!look.hit) {
            IsvRegionBits bits;
            bits.bits =
                c->isv->regionBits(ctx.pc, IsvCache::kRegionBytes);
            if (adminIsv_ && c->fleetSeen == fleetGen_ &&
                (fleetBits_ & kernel::kFleetRestrictIsv) != 0) {
                auto admin = adminIsv_->regionBits(
                    ctx.pc, IsvCache::kRegionBytes);
                bits.bits[0] &= admin[0];
                bits.bits[1] &= admin[1];
            }
            isvCache_.fill(ctx.pc, ctx.asid, bits, 0);
        }
    }

    if (cfg_.enableDsv && kernel::inDirectMap(ctx.dataVa)) {
        HwLookup look = dsvCache_.lookup(ctx.dataVa, ctx.asid, false,
                                         ctx.now, false);
        if (!look.hit)
            dsvCache_.fill(ctx.dataVa, ctx.asid,
                           dsvFillValue(ctx.dataVa, *c), 0);
    }
}

bool
PerspectivePolicy::dsvFillValue(sim::Addr va, const Context &c)
{
    // The hardware DSV-cache refill walks the domain's in-memory
    // DSVMT (the flat radix mirror — this is where the walk MRU
    // earns its keep). Unknown-provenance frames have no per-domain
    // entry; their verdict is the blockUnknown policy bit, exactly
    // the inDsv predicate. During an open revocation window the
    // mirror still holds the pre-handoff bit — by design.
    bool block_unknown = effBlockUnknown(c);
    if (ctxMruTree_) {
        bool v = ctxMruTree_->queryVa(va);
        if (v)
            return true;
        if (!block_unknown)
            return ownership_.ownerOfVa(va) == kDomainUnknown;
        return false;
    }
    DomainId owner = ownership_.ownerOfVa(va);
    if (owner == kDomainReplicated)
        return true;
    if (owner == kDomainUnknown)
        return !block_unknown;
    return owner == c.domain;
}

sim::GateWake
PerspectivePolicy::gateWake(const SpecContext &ctx)
{
    // The single-slot contract: this call must pair with the Block
    // gateLoad just returned for the same instruction. A mismatch
    // means some interleaved gate check overwrote lastWake_ and a
    // blocked load is about to sleep on the wrong inputs.
    assert(wakePairingMatches(ctx) &&
           "gateWake unpaired with the preceding Block verdict");
    (void)ctx;
    wakeArmed_ = false;
    return lastWake_;
}

} // namespace perspective::core
