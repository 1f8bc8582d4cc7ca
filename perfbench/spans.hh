/**
 * @file
 * Host-time spans for the benchmark's traced runs.
 *
 * A span is one call into a module's public function, recorded by the
 * benchmark around that call: name ("<layer>.<what>"), start, end,
 * parent span, the cell it belongs to, and the thread lane that ran
 * it. Spans stay in memory until the run ends; the per-layer metrics
 * are computed from them and they are written once, as Chrome
 * trace_event JSON.
 *
 * A layer's self time is its span's duration minus the part of that
 * interval its child spans cover (children that overlap each other,
 * as parallel sweep cells do, are counted once).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/json.hh"

namespace perfbench
{

/** Steady-clock nanoseconds since an arbitrary epoch. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name = ""; ///< static string "<layer>.<what>"
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1; ///< index in the same log; -1 = root
    std::uint32_t cell = 0;   ///< shared by every span of one cell
    std::uint32_t lane = 0;   ///< recording thread
};

/**
 * Spans of one thread of work. open()/close() nest like a call stack;
 * the index open() returns is the span's id within this log.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::uint32_t lane = 0) : lane_(lane) {}

    void setCell(std::uint32_t cell) { cell_ = cell; }

    std::int32_t
    open(const char *name)
    {
        auto id = static_cast<std::int32_t>(spans_.size());
        spans_.push_back({name, nowNs(), 0,
                          stack_.empty() ? -1 : stack_.back(), cell_,
                          lane_});
        stack_.push_back(id);
        return id;
    }

    void
    close()
    {
        spans_[stack_.back()].end = nowNs();
        stack_.pop_back();
    }

    /** Move every span of @p other into this log; its root spans
     * become children of @p parent. */
    void
    absorb(const SpanLog &other, std::int32_t parent)
    {
        auto base = static_cast<std::int32_t>(spans_.size());
        for (Span s : other.spans_) {
            s.parent = s.parent < 0 ? parent : s.parent + base;
            spans_.push_back(s);
        }
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
    std::uint32_t cell_ = 0;
    std::uint32_t lane_ = 0;
};

/** Records a span for its lifetime; does nothing without a log (the
 * untraced runs pass nullptr). */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name) : log_(log)
    {
        if (log_)
            log_->open(name);
    }
    ~Scope()
    {
        if (log_)
            log_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *log_;
};

/** Total length of the union of half-open intervals. */
inline std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0, curStart = 0, curEnd = 0;
    bool open = false;
    for (auto [s, e] : iv) {
        if (e <= s)
            continue;
        if (!open || s > curEnd) {
            if (open)
                total += curEnd - curStart;
            curStart = s;
            curEnd = e;
            open = true;
        } else {
            curEnd = std::max(curEnd, e);
        }
    }
    if (open)
        total += curEnd - curStart;
    return total;
}

/** Self time of every span (ns): duration minus the part of the
 * span's interval its children cover. */
inline std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.start, s.end);
    std::vector<std::int64_t> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        for (auto &[s, e] : kids[i]) {
            s = std::clamp(s, p.start, p.end);
            e = std::clamp(e, p.start, p.end);
        }
        out[i] = (p.end - p.start) - unionLength(std::move(kids[i]));
    }
    return out;
}

/** Chrome trace_event document: one "X" event per span, microsecond
 * timestamps relative to the earliest span, lanes as tids. */
inline perspective::harness::Json
chromeTrace(const std::vector<Span> &spans)
{
    using perspective::harness::Json;
    std::int64_t t0 = 0;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (i == 0 || spans[i].start < t0)
            t0 = spans[i].start;
    Json::Array events;
    events.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::string name = s.name;
        Json::Object o;
        o["name"] = name;
        o["cat"] = name.substr(0, name.find('.'));
        o["ph"] = "X";
        o["pid"] = std::uint64_t{1};
        o["tid"] = static_cast<std::uint64_t>(s.lane + 1);
        o["ts"] = static_cast<double>(s.start - t0) / 1e3;
        o["dur"] = static_cast<double>(s.end - s.start) / 1e3;
        Json::Object args;
        args["id"] = static_cast<std::uint64_t>(i);
        args["cell"] = static_cast<std::uint64_t>(s.cell);
        if (s.parent >= 0)
            args["parent"] = static_cast<std::uint64_t>(s.parent);
        o["args"] = std::move(args);
        events.emplace_back(std::move(o));
    }
    Json::Object doc;
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    Json::Object other;
    other["clock"] = "host steady clock, 1 trace us == 1 us";
    doc["otherData"] = std::move(other);
    return Json(std::move(doc));
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
