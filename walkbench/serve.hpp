/**
 * @file
 * The serve-mix workload: a picoeval_server child process with a
 * pre-filled persistent cache, driven closed-loop from this process,
 * every response checked against an in-process walk of the same
 * request.
 */

#ifndef WALKBENCH_SERVE_HPP
#define WALKBENCH_SERVE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "walk.hpp"

namespace walkbench
{

/** Entries pre-filled into the server's cache: the table size a
 *  long-lived server reaches (one full-table flush costs ~26 ms). */
inline constexpr size_t servedTableEntries = 10000;

// The request mix. No traffic record exists to take it from, so
// these are chosen to meet the workload's constraints: memo repeats
// a minority, and enough fresh and repeat walks that the median
// request is a walk (checked on every run).

/** Fresh requests (new machines: build, store, full-table flush):
 *  about a third, so each run has hundreds of flushes behind
 *  server.fresh_p50_ms and the tail. */
inline constexpr double freshShare = 0.35;
/** Memo repeats (same idempotency key): enough for a steady
 *  server.memo_rtt_ms, far from the half that would put the median
 *  on the memo. */
inline constexpr double memoShare = 0.15;
// The rest (0.50) are repeat walks under new keys: cache hits, the
// steady state of a long-lived server whose table is warm.

/** Requests on their own short-lived connection, as picoeval_ctl
 *  calls arrive: enough to open and reap a connection thread every
 *  few requests, few enough that connecting does not set the
 *  latency. */
inline constexpr double shortLivedShare = 0.2;
/** Closed-loop client connections: one more than the server's
 *  workers, so requests queue, and fewer than nproc (4), so the
 *  client process keeps a core. */
inline constexpr unsigned servedClients = 3;
inline constexpr unsigned serverWorkers = 2;

/** One served phase: server start, closed-loop load, drain. */
struct ServePhase
{
    std::vector<std::string> apps;
    double seconds = 10.0;
    uint64_t seed = 1;
    std::string serverBin;
    /** Server start-ups timed for setup_s (the last one serves). */
    int setupRounds = 3;
    /** Check walks through layeredWalk (traced runs). */
    bool layered = false;
    /** Self-test: corrupt one response before it is checked. */
    bool corrupt = false;
};

struct ServeOutcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;
    /** Client latency (ms) of completed requests, all and per kind. */
    std::vector<double> latencyMs, freshMs, repeatMs, memoMs;
    uint64_t requests = 0, shortLived = 0;
    /** The median request (by latency) was a memo hit. */
    bool medianIsMemo = false;
    double loadSeconds = 0;
    std::vector<double> setupS;
    uint64_t retries = 0;
    /** From the stats verb after the load. */
    double queuePeak = 0, shed = 0, cacheHits = 0, cacheMisses = 0;
    /** From /proc/<pid> after the load has drained. */
    double vmHwmMb = 0, vmSizeMb = 0, threads = 0, fds = 0;
    /** In-process check walks, one per distinct request, by stratum
     *  (app, trace budget, machine count). */
    std::map<std::string, std::vector<double>> checkWallS, checkCpuS;
    size_t checkWalks = 0;
    std::vector<LayerTimes> checkLayers;
    /** Untraced and spanned explore() runs of the first few check
     *  walks (traced runs). */
    std::vector<double> plainWallS;
    std::vector<SpanTimes> spans;
    std::vector<double> profileS;
};

ServeOutcome runServePhase(const ServePhase &phase);

/** server.* and dse.cache_hit_ratio metrics of a served phase. */
void addServerMetrics(MetricSet &m, const ServeOutcome &out);

/** dse.flush_ms and dse.cache_load_s at the served table size. */
void cacheProbes(MetricSet &m);

/** Run serve-mix; returns the process exit code. */
int runServe(const RunArgs &args);

} // namespace walkbench

#endif // WALKBENCH_SERVE_HPP
