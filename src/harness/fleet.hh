/**
 * @file
 * Sweep fleet: a coordinator process that owns the grid and hands
 * out cells one at a time to worker processes over an AF_UNIX
 * socket (wire format: proto.hh). Idle workers pull the next cell,
 * so load balancing is work stealing by construction — no static
 * assignment exists to go stale when cell costs are skewed (detailed
 * vs sampled cells differ ~9x; leak-budget sweeps far more).
 *
 * Roles:
 *  - FleetCoordinator (bench run with --fleet N / --fleet-socket):
 *    listens, spawns N copies of its own binary as workers
 *    (`<bench> --connect PATH`), dispatches cell indices
 *    longest-estimated-first, collects result cells, and re-queues
 *    the in-flight cell of any worker that dies mid-cell — a crash
 *    degrades throughput, never correctness. The coordinator alone
 *    touches the cell-cache directory.
 *  - FleetWorker (bench run with --connect PATH): connects, serves
 *    cells through the ordinary in-process execution path, streams
 *    each result back, and stays warm across batches — its
 *    boot-snapshot cache (PR 3) persists, so every cell after the
 *    first of a seed restores copy-on-write instead of rebooting.
 *
 * Both roles are the *same bench binary* running the same main(), so
 * coordinator and workers construct identical cell grids; the wire
 * only ever carries cell indices and result JSON. A per-batch grid
 * hash plus the code fingerprint in the hello handshake reject a
 * mismatched worker before it can compute a wrong cell.
 *
 * Determinism: results land in slots indexed by grid position, so
 * output order is the grid order regardless of which worker finished
 * which cell when (same argument as the thread-pool runner).
 */

#ifndef PERSPECTIVE_HARNESS_FLEET_HH
#define PERSPECTIVE_HARNESS_FLEET_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "json.hh"

namespace perspective::harness
{

/** Fleet-schedule accounting, accumulated across batches; lands in
 * the sweep JSON as schedule.fleet{...}. */
struct FleetStats
{
    /** Distinct workers that completed the hello handshake. */
    unsigned workers = 0;
    /** Dispatches that deviated from the static longest-processing-
     * time plan computed at batch start — how much work stealing
     * actually moved relative to a static assignment. */
    std::uint64_t steals = 0;
    /** Cells re-queued because their worker died mid-cell. */
    std::uint64_t stragglersResent = 0;
    /** Cells completed per worker id. */
    std::vector<std::uint64_t> cellsPerWorker;
    /** Wall seconds of completed cells per worker id. */
    std::vector<double> busyPerWorker;
};

/** The grid-owning dispatcher; one per coordinator process. */
class FleetCoordinator
{
  public:
    struct Options
    {
        /** Workers to spawn (fork+exec of workerArgv + --connect).
         * 0 = rely on externally attached workers only. */
        unsigned spawnWorkers = 0;
        /** Listen path; empty synthesizes a per-process /tmp path. */
        std::string socketPath;
        /** argv (binary first) for spawned workers, without the
         * --connect flag (appended here). */
        std::vector<std::string> workerArgv;
        std::string benchName;
        /** Print per-cell progress to stderr. */
        bool verbose = false;
    };

    /** Binds + listens; worker spawning is deferred to the first
     * batch with work, so fully cached sweeps spawn nothing. */
    explicit FleetCoordinator(Options opts);
    ~FleetCoordinator();

    FleetCoordinator(const FleetCoordinator &) = delete;
    FleetCoordinator &operator=(const FleetCoordinator &) = delete;

    /** Completed cell: grid index, serving worker id, the cell's
     * result JSON (the worker's cellToJson output). */
    using ResultFn =
        std::function<void(std::size_t, unsigned, const Json &)>;

    /**
     * Dispatch one batch: @p queue holds cell indices in dispatch
     * order (longest-estimated-first), @p costs the matching cost
     * estimates (for the static-plan steal accounting). Blocks until
     * every queued cell has a result; @p onResult fires in
     * completion order. Throws std::runtime_error when the fleet
     * cannot finish (every worker died with cells outstanding).
     */
    void runBatch(std::uint64_t batch, const std::string &gridHash,
                  const std::vector<std::size_t> &queue,
                  const std::vector<double> &costs,
                  const ResultFn &onResult);

    const FleetStats &stats() const { return stats_; }
    const std::string &socketPath() const { return path_; }

  private:
    struct Conn
    {
        int fd = -1;
        int id = -1;          ///< worker id; -1 until first hello
        bool inBatch = false; ///< welcomed into the current batch
        bool waiting = false; ///< sent req; held for work/batch_done
        long assigned = -1;   ///< cell index in flight, -1 = none
    };

    void spawnWorkers();
    void reapChildren();
    /** Drop conns_[i]; re-queues its in-flight cell into @p queue. */
    void dropConn(std::size_t i, std::deque<std::size_t> &queue);

    Options opts_;
    std::string path_;
    int listenFd_ = -1;
    bool spawned_ = false;
    std::vector<Conn> conns_;
    std::vector<pid_t> children_;
    std::size_t childrenLive_ = 0;
    unsigned nextId_ = 0;
    FleetStats stats_;
    std::string fingerprint_;
    /** This process's sampling spec (PERSPECTIVE_SAMPLE); workers
     * whose hello reports a different spec are rejected — a sampled
     * coordinator mixing exact worker results (or vice versa) would
     * silently blend statistical and exact cells. */
    std::string sampling_;
};

/** The serving side; one per worker process. */
class FleetWorker
{
  public:
    explicit FleetWorker(std::string connectPath);
    ~FleetWorker();

    FleetWorker(const FleetWorker &) = delete;
    FleetWorker &operator=(const FleetWorker &) = delete;

    /** Execute grid cell @p index and return its result JSON. */
    using ExecFn = std::function<Json(std::size_t)>;

    /**
     * Serve one batch: hello, then pull cells until batch_done.
     * Returns the number of cells served. Returns 0 without serving
     * when the coordinator is already past @p batch (every cell was
     * cached, say) or has exited between batches — both mean this
     * worker's batch completed without it. Throws on a protocol
     * error, a rejected handshake, or a coordinator death mid-batch.
     */
    std::size_t serveBatch(std::uint64_t batch,
                           const std::string &gridHash,
                           const std::string &benchName,
                           const ExecFn &exec);

    /** Coordinator finished/closed; later batches serve nothing. */
    bool coordinatorGone() const { return gone_; }
    unsigned workerId() const { return id_; }

  private:
    void ensureConnected();

    std::string path_;
    int fd_ = -1;
    bool gone_ = false;
    unsigned id_ = 0;
    std::uint64_t cellsExecuted_ = 0;
    // Fault-injection hook (PERSPECTIVE_FLEET_CHAOS="ID:N"): worker
    // ID dies silently right before sending its Nth result, so CI
    // can rehearse the mid-cell requeue path deterministically.
    long chaosWorker_ = -1;
    std::uint64_t chaosAfter_ = 0;
};

} // namespace perspective::harness

#endif // PERSPECTIVE_HARNESS_FLEET_HH
