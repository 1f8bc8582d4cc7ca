#include "program.hh"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace perspective::sim
{

FuncId
Program::addFunction(std::string name, bool kernel)
{
    FuncId id = static_cast<FuncId>(funcs_.size());
    Function f;
    f.name = std::move(name);
    f.id = id;
    f.kernel = kernel;
    byName_.emplace(f.name, id);
    funcs_.push_back(std::move(f));
    laidOut_ = false;
    return id;
}

FuncId
Program::findByName(const std::string &name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? kNoFunc : it->second;
}

void
Program::layout()
{
    Addr kernel_cursor = kKernelTextBase;
    Addr user_cursor = kUserBase;
    layoutIndex_.clear();
    layoutIndex_.reserve(funcs_.size());

    for (auto &f : funcs_) {
        Addr &cursor = f.kernel ? kernel_cursor : user_cursor;
        f.base = cursor;
        cursor += Addr{f.body.size()} * kInstBytes;
        // Align the next function so none spans a page boundary more
        // than necessary and layout stays deterministic.
        cursor = (cursor + kInstBytes - 1) & ~(kInstBytes - 1);
        layoutIndex_.emplace_back(f.base, f.id);
    }
    kernelTextEnd_ = kernel_cursor;
    std::sort(layoutIndex_.begin(), layoutIndex_.end());

    // Page-granular resolve acceleration over the kernel text span
    // (the only region resolve() is hot for).
    kernelPageIdx_.clear();
    if (kernelTextEnd_ > kKernelTextBase) {
        std::size_t pages = static_cast<std::size_t>(
            (kernelTextEnd_ - kKernelTextBase + kPageSize - 1) >>
            kPageShift);
        kernelPageIdx_.resize(pages);
        for (std::size_t p = 0; p < pages; ++p) {
            Addr page_va = kKernelTextBase + (Addr{p} << kPageShift);
            auto it = std::upper_bound(
                layoutIndex_.begin(), layoutIndex_.end(),
                std::make_pair(page_va, kNoFunc));
            std::size_t idx =
                it == layoutIndex_.begin()
                    ? 0
                    : static_cast<std::size_t>(
                          it - layoutIndex_.begin()) - 1;
            kernelPageIdx_[p] = static_cast<std::uint32_t>(idx);
        }
    }
    laidOut_ = true;
}

std::pair<FuncId, std::uint32_t>
Program::resolve(Addr va) const
{
    assert(laidOut_);
    std::size_t idx;
    if (va >= kKernelTextBase && va < kernelTextEnd_ &&
        !kernelPageIdx_.empty()) {
        // Direct page-indexed lookup: jump to the last function at
        // or below the page start, then walk the handful of
        // functions packed into the page.
        std::size_t slot = static_cast<std::size_t>(
            (va - kKernelTextBase) >> kPageShift);
        idx = kernelPageIdx_[slot];
        while (idx + 1 < layoutIndex_.size() &&
               layoutIndex_[idx + 1].first <= va)
            ++idx;
    } else {
        auto it = std::upper_bound(layoutIndex_.begin(),
                                   layoutIndex_.end(),
                                   std::make_pair(va, kNoFunc));
        if (it == layoutIndex_.begin())
            return {kNoFunc, 0};
        idx = static_cast<std::size_t>(it - layoutIndex_.begin()) - 1;
    }
    const Function &f = funcs_[layoutIndex_[idx].second];
    Addr end = f.base + Addr{f.body.size()} * kInstBytes;
    if (va < f.base || va >= end)
        return {kNoFunc, 0};
    return {f.id, static_cast<std::uint32_t>((va - f.base) / kInstBytes)};
}

std::string
Program::disassemble(FuncId id) const
{
    const Function &f = funcs_[id];
    std::ostringstream os;
    os << f.name << ":  ; " << (f.kernel ? "kernel" : "user")
       << ", base 0x" << std::hex << f.base << std::dec << "\n";
    for (std::uint32_t i = 0; i < f.body.size(); ++i)
        os << "  " << i << ": " << f.body[i].toString() << "\n";
    return os.str();
}

std::size_t
Program::totalOps() const
{
    std::size_t n = 0;
    for (const auto &f : funcs_)
        n += f.body.size();
    return n;
}

} // namespace perspective::sim
