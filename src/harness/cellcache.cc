#include "cellcache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "sweep.hh" // buildGitDescribe

namespace perspective::harness
{

namespace fs = std::filesystem;

namespace
{

/** FNV-1a 64 of @p parts with a field separator, as 16 hex digits
 * (same construction as cellConfigHash). */
std::string
fnvHex(std::initializer_list<std::string> parts)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const std::string &s : parts) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        h ^= 0x1f;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

std::string
codeFingerprint(unsigned epoch)
{
    return fnvHex({buildGitDescribe(), std::to_string(epoch)});
}

CellCache::CellCache(std::string dir, std::string fingerprint)
    : dir_(std::move(dir)), fp_(std::move(fingerprint))
{
    if (!persistent())
        return;
    std::error_code ec;
    fs::create_directories(fs::path(dir_) / fp_, ec);
    fs::create_directories(fs::path(dir_) / "costs", ec);
    if (ec) {
        std::fprintf(stderr,
                     "cellcache: cannot create '%s' (%s); caching "
                     "disabled\n",
                     dir_.c_str(), ec.message().c_str());
        dir_.clear();
    }
}

std::string
CellCache::cellPath(const std::string &configHash) const
{
    return (fs::path(dir_) / fp_ / (configHash + ".json")).string();
}

std::string
CellCache::costPath(const std::string &costKey) const
{
    return (fs::path(dir_) / "costs" / costKey).string();
}

namespace
{

/** Cost-table key: the config hash plus an explicit execution-mode
 * suffix. The mode is also mixed into the config hash itself, but
 * the suffix keeps the cost files self-describing and guards the
 * timing estimates if the hash recipe ever stops covering the mode
 * (costs are epoch-independent, so they outlive hash changes). */
std::string
costKeyOf(const std::string &configHash, ExecMode mode)
{
    return mode == ExecMode::Sampled ? configHash + "-sampled"
                                     : configHash;
}

} // namespace

std::optional<Json>
CellCache::load(const std::string &configHash)
{
    if (!persistent())
        return std::nullopt;
    auto miss = [this]() -> std::optional<Json> {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.misses;
        return std::nullopt;
    };
    std::ifstream is(cellPath(configHash));
    if (!is)
        return miss();
    std::ostringstream buf;
    buf << is.rdbuf();
    try {
        Json cell = Json::parse(buf.str());
        if (!cell.isObject())
            return miss();
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.hits;
        return cell;
    } catch (const std::exception &) {
        // Corrupt entry (interrupted non-atomic writer, disk fault):
        // a miss, and the re-run's store() will repair it.
        return miss();
    }
}

bool
CellCache::atomicWrite(const std::string &path,
                       const std::string &contents)
{
    std::uint64_t n;
    {
        std::lock_guard<std::mutex> lk(mu_);
        n = tmpCounter_++;
    }
    // Unique per (process, store call): concurrent CI jobs sharing
    // the directory never collide on the temp name, and rename() is
    // atomic within a filesystem, so readers see old-or-new, never
    // partial.
    std::string tmp = path + ".tmp." +
                      std::to_string(::getpid()) + "." +
                      std::to_string(n);
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return false;
        os << contents;
        if (!os.flush())
            return false;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

bool
CellCache::store(const std::string &configHash, const Json &cell)
{
    if (!persistent())
        return false;
    if (!atomicWrite(cellPath(configHash), cell.dump(2)))
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.stores;
    return true;
}

std::optional<double>
CellCache::loadCost(const std::string &configHash, ExecMode mode)
{
    const std::string key = costKeyOf(configHash, mode);
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = memCosts_.find(key);
        if (it != memCosts_.end())
            return it->second;
    }
    if (!persistent())
        return std::nullopt;
    std::ifstream is(costPath(key));
    double secs = 0;
    if (!(is >> secs) || secs < 0)
        return std::nullopt;
    std::lock_guard<std::mutex> lk(mu_);
    memCosts_.emplace(key, secs);
    return secs;
}

void
CellCache::storeCost(const std::string &configHash, ExecMode mode,
                     double seconds)
{
    const std::string key = costKeyOf(configHash, mode);
    {
        std::lock_guard<std::mutex> lk(mu_);
        memCosts_[key] = seconds;
    }
    if (!persistent())
        return;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g\n", seconds);
    atomicWrite(costPath(key), buf);
}

CellCache::Stats
CellCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

} // namespace perspective::harness
