/**
 * @file
 * Debug tracing, in the spirit of gem5's debug flags, with two sinks:
 *
 *  - a text sink: named categories that can be switched on at runtime
 *    (or through the PERSPECTIVE_TRACE environment variable,
 *    comma-separated), each emitting one line per event to a
 *    configurable stream;
 *  - a structured sink (EventLog): when installed, the pipeline
 *    records typed span/instant events (fetch-to-commit spans,
 *    squashes, fence stalls) that the harness can serialize as Chrome
 *    trace_event JSON for chrome://tracing / Perfetto.
 *
 * All logging is compiled in but costs a single branch when disabled.
 */

#ifndef PERSPECTIVE_SIM_TRACE_HH
#define PERSPECTIVE_SIM_TRACE_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "types.hh"

namespace perspective::sim::trace
{

/** Trace categories. */
enum class Flag : std::uint32_t
{
    Fetch = 1u << 0,   ///< micro-ops entering the ROB
    Commit = 1u << 1,  ///< micro-ops retiring
    Squash = 1u << 2,  ///< mispredictions and their redirects
    Fence = 1u << 3,   ///< policy-blocked transmitters
    Predict = 1u << 4, ///< BTB/RSB/conditional predictions
    Leak = 1u << 5,    ///< transient-leakage transmissions (DESIGN §5.6)
    Window = 1u << 6,  ///< dynamic-update (revocation/flip) windows
};

/** Lower-case name of @p f ("fetch", "commit", ...). */
const char *flagName(Flag f);

/** Enable one category. */
void enable(Flag f);

/** Disable one category. */
void disable(Flag f);

/**
 * Disable everything and restore the default stream. The outgoing
 * stream is flushed (under the emission lock) before being dropped so
 * short traced runs never lose buffered tail lines.
 */
void reset();

/** True when @p f is enabled (the fast-path check). */
bool enabled(Flag f);

/** True when any text-trace category is enabled (sampled simulation
 * stays off then: its functional phases skip per-op log sites). */
bool anyEnabled();

/**
 * Parse a comma-separated flag list ("commit,squash"); unknown names
 * are ignored. Returns the number of flags enabled.
 */
unsigned enableFromString(const std::string &spec);

/** Read PERSPECTIVE_TRACE from the environment, if set. */
void enableFromEnvironment();

/** Redirect trace output (defaults to std::cerr). */
void setStream(std::ostream *os);

/** Emit one line: "<cycle>: <tag>: <message>". */
void log(Flag f, Cycle cycle, const std::string &message);

// ---- structured event sink -----------------------------------------

/**
 * One structured trace event. @p dur == 0 marks an instant event
 * (a squash point); otherwise the event is a [start, start+dur) span
 * in simulated cycles (an instruction's dispatch-to-commit lifetime
 * or a fence-stall window).
 */
struct Event
{
    Flag flag = Flag::Commit; ///< category
    Cycle start = 0;          ///< span start (simulated cycle)
    Cycle dur = 0;            ///< span length; 0 = instant event
    Cycle issue = 0;          ///< issue cycle within the span, if any
    std::uint64_t seq = 0;    ///< pipeline sequence number
    unsigned lane = 0;        ///< recording thread lane (sweep cells)
    bool kernel = false;
    std::string name;         ///< op or event description
    std::string func;         ///< containing simulated function
};

/**
 * A bounded, thread-safe collector of structured events. Each
 * recording thread is assigned a small stable lane id (Chrome trace
 * "tid"), so a parallel sweep's cells land on separate tracks. Past
 * @p capacity, events are dropped and counted rather than growing
 * without bound — a full lebench sweep commits tens of millions of
 * micro-ops.
 */
class EventLog
{
  public:
    static constexpr std::size_t kDefaultCapacity = 100'000;

    explicit EventLog(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity)
    {
    }

    /** Append @p ev (fills Event::lane); drops when full. */
    void record(Event ev);

    /** Copy of everything recorded so far. */
    std::vector<Event> snapshot() const;

    std::size_t size() const;
    std::uint64_t dropped() const;

    /**
     * Per-lane drop counts (index = lane id). Lanes that never
     * dropped report 0; the vector covers every lane ever assigned.
     * Silent truncation reads as "nothing happened" — surface this.
     */
    std::vector<std::uint64_t> droppedByLane() const;

    void clear();

  private:
    mutable std::mutex mu_;
    std::size_t capacity_;
    std::vector<Event> events_;
    std::uint64_t dropped_ = 0;
    std::vector<std::uint64_t> droppedByLane_;
    unsigned nextLane_ = 0;
};

/**
 * Install @p log as the global structured sink (nullptr detaches).
 * The caller keeps ownership and must outlive any traced run.
 */
void setEventLog(EventLog *log);

/** The installed sink, or nullptr. */
EventLog *eventLog();

/** Fast-path check: is a structured sink installed? */
bool eventsEnabled();

} // namespace perspective::sim::trace

#endif // PERSPECTIVE_SIM_TRACE_HH
