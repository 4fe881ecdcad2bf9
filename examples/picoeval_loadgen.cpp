/**
 * @file
 * Load generator for picoeval_server: Zipf-distributed request
 * popularity, closed- or think-time-loop clients, full-jitter retry,
 * and a machine-readable latency/throughput/shedding report
 * (BENCH_server_load.json) that CI gates on.
 *
 * Usage: picoeval_loadgen --socket PATH [--clients N] [--requests N]
 *            [--apps a,b,...] [--machines m1,m2,...] [--zipf S]
 *            [--deadline-ms N] [--trace-blocks N] [--think-ms N]
 *            [--max-attempts N] [--seed N] [--stats-interval MS]
 *            [--json-out FILE]
 *
 *   --clients N      concurrent client threads (default 4)
 *   --requests N     requests per client (default 25)
 *   --apps LIST      app pool (default rasta,epic)
 *   --machines LIST  machine pool; each request draws one machine
 *                    (default 1111,2111,2211,3221)
 *   --zipf S         popularity skew of the request pool (default
 *                    1.8); hot requests repeat, exercising the memo
 *                    and the cache's single-flight path
 *   --deadline-ms N  per-request deadline (default 0 = none)
 *   --trace-blocks N per-request walk budget (default 2000)
 *   --think-ms N     think time between a client's requests
 *                    (default 0 = closed loop)
 *   --max-attempts N retry budget per request (default 8)
 *   --seed N         experiment seed; retry jitter and request
 *                    draws are reproducible from it (default 1)
 *   --stats-interval MS  sample the server's stats and health verbs
 *                    every MS ms *while the load runs*, verifying
 *                    the counters only ever grow; sample counts land
 *                    in the report (default 0 = off)
 *
 * Retries are counted separately from fresh requests (split by
 * cause: shed vs transport), so the reported throughput and request
 * totals are not inflated by the retry path. The final report
 * reconciles the server's counters against the client-side tally:
 * every attempt that reached the server must be accounted for as
 * exactly one of memo-hit/shed/completed/deadline/failed.
 *
 * Exit codes: 0 = every request reached a terminal answer; 1 =
 * protocol violation (bad_request/undecodable), lost requests,
 * non-monotonic mid-run stats, or a reconciliation failure; 2 = bad
 * usage, reported before any client thread starts (--help: 0).
 */

#include <algorithm>
#include <atomic>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/BenchCommon.hpp"
#include "server/Client.hpp"
#include "support/Backoff.hpp"
#include "support/Flags.hpp"
#include "support/Metrics.hpp"
#include "support/Random.hpp"

using namespace pico;

namespace
{

/** Per-client tally, merged after the join. */
struct ClientTally
{
    std::vector<double> okLatencyMs;
    uint64_t ok = 0;
    uint64_t shed = 0;
    uint64_t deadline = 0;
    uint64_t failed = 0;
    uint64_t badRequest = 0;
    uint64_t retries = 0;
    uint64_t retriesShed = 0;
    uint64_t retriesTransport = 0;
    uint64_t transportFailures = 0;
    uint64_t shedResponses = 0;
};

/** Mid-run stats/health sampler outcome. */
struct SamplerTally
{
    uint64_t samples = 0;
    uint64_t failures = 0;
    /** Counters observed moving backwards (must stay 0). */
    uint64_t violations = 0;
};

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    auto idx = static_cast<size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_out = bench::extractJsonOutArg(argc, argv);
    std::string socket_path;
    uint64_t clients = 4, requests = 25, deadline_ms = 0;
    uint64_t trace_blocks = 2000, think_ms = 0, seed = 1;
    uint64_t max_attempts = 8, stats_interval_ms = 0;
    double zipf_s = 1.8;
    std::vector<std::string> apps = {"rasta", "epic"};
    std::vector<std::string> machines = {"1111", "2111", "2211",
                                         "3221"};
    support::Flags flags(
        "picoeval_loadgen",
        "usage: picoeval_loadgen --socket PATH [--clients N] "
        "[--requests N] [--apps a,b,...] [--machines m1,m2,...] "
        "[--zipf S] [--deadline-ms N] [--trace-blocks N] "
        "[--think-ms N] [--max-attempts N] [--seed N] "
        "[--stats-interval MS] [--json-out FILE]");
    flags.text("--socket", &socket_path);
    // One thread per client: the bound is checked before any starts.
    flags.count("--clients", &clients, 1, support::maxThreadsFlag);
    flags.count("--requests", &requests, 1);
    flags.list("--apps", &apps);
    flags.list("--machines", &machines);
    flags.number("--zipf", &zipf_s);
    flags.count("--deadline-ms", &deadline_ms);
    flags.count("--trace-blocks", &trace_blocks);
    flags.count("--think-ms", &think_ms);
    // The client needs at least one attempt and counts them in 32 bits.
    flags.count("--max-attempts", &max_attempts, 1, UINT32_MAX);
    flags.count("--seed", &seed);
    flags.count("--stats-interval", &stats_interval_ms);
    flags.parse(argc, argv);
    if (socket_path.empty())
        flags.fail("--socket is required");
    if (apps.empty() || machines.empty())
        flags.fail("--apps and --machines need at least one item");

    // The request pool: app x machine combinations, drawn with Zipf
    // popularity so a few requests are hot (hitting the server's
    // memo and the cache's single-flight path) while the tail keeps
    // generating fresh work.
    struct PoolEntry
    {
        std::string app;
        std::string machine;
    };
    std::vector<PoolEntry> pool;
    for (const auto &app : apps)
        for (const auto &m : machines)
            pool.push_back({app, m});

    std::vector<ClientTally> tallies(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    uint64_t run_start = support::monotonicNowNs();

    // Mid-run observability sampler: hammer the stats and health
    // verbs *while* the eval load runs, and verify every monotonic
    // counter only ever grows between samples. An overloaded server
    // that cannot answer its introspection verbs fails here.
    std::atomic<bool> sampler_stop{false};
    SamplerTally sampler_tally;
    std::thread sampler;
    if (stats_interval_ms != 0) {
        sampler = std::thread([&] {
            server::ClientOptions copts;
            copts.socketPath = socket_path;
            copts.seed = seed;
            copts.stream = clients + 1; // own jitter stream
            server::Client client(copts);
            static const char *const monotonic[] = {
                "requests.total", "accepted",  "shed",
                "completed",      "deadline",  "failed",
                "memo_hits",      "queue.peak"};
            std::map<std::string, double> prev;
            while (!sampler_stop.load(std::memory_order_relaxed)) {
                server::Request stats_req;
                stats_req.type = "stats";
                auto stats = client.call(stats_req);
                server::Request health_req;
                health_req.type = "health";
                auto health = client.call(health_req);
                if (stats.status != server::Status::Ok ||
                    health.status != server::Status::Ok) {
                    ++sampler_tally.failures;
                } else {
                    for (const char *key : monotonic) {
                        auto it = prev.find(key);
                        if (it != prev.end() &&
                            stats.values[key] < it->second)
                            ++sampler_tally.violations;
                        prev[key] = stats.values[key];
                    }
                }
                ++sampler_tally.samples;
                support::sleepForMs(stats_interval_ms);
            }
        });
    }
    for (uint64_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            server::ClientOptions copts;
            copts.socketPath = socket_path;
            copts.seed = seed;
            copts.stream = c;
            copts.maxAttempts =
                static_cast<uint32_t>(max_attempts);
            server::Client client(copts);
            // Separate stream for the workload draw so adding
            // retries never perturbs which requests are issued.
            Rng draw = Rng::forStream(seed, 1000 + c);
            auto &tally = tallies[c];
            for (uint64_t r = 0; r < requests; ++r) {
                const auto &entry =
                    pool[draw.zipf(pool.size(), zipf_s)];
                server::Request req;
                req.app = entry.app;
                req.machines = entry.machine;
                req.traceBlocks = trace_blocks;
                req.deadlineMs = deadline_ms;
                uint64_t t0 = support::monotonicNowNs();
                server::Response resp = client.call(req);
                double ms =
                    static_cast<double>(support::monotonicNowNs() -
                                        t0) /
                    1e6;
                switch (resp.status) {
                case server::Status::Ok:
                    ++tally.ok;
                    tally.okLatencyMs.push_back(ms);
                    break;
                case server::Status::Shed:
                    ++tally.shed;
                    break;
                case server::Status::DeadlineExceeded:
                    ++tally.deadline;
                    break;
                case server::Status::Failed:
                    ++tally.failed;
                    break;
                case server::Status::BadRequest:
                    ++tally.badRequest;
                    break;
                }
                if (think_ms != 0)
                    support::sleepForMs(think_ms);
            }
            tally.retries = client.retries();
            tally.retriesShed = client.retriesShed();
            tally.retriesTransport = client.retriesTransport();
            tally.transportFailures = client.transportFailures();
            tally.shedResponses = client.shedSeen();
        });
    }
    for (auto &t : threads)
        t.join();
    double wall_s = static_cast<double>(support::monotonicNowNs() -
                                        run_start) /
                    1e9;
    if (sampler.joinable()) {
        sampler_stop.store(true, std::memory_order_relaxed);
        sampler.join();
    }

    ClientTally sum;
    for (const auto &t : tallies) {
        sum.ok += t.ok;
        sum.shed += t.shed;
        sum.deadline += t.deadline;
        sum.failed += t.failed;
        sum.badRequest += t.badRequest;
        sum.retries += t.retries;
        sum.retriesShed += t.retriesShed;
        sum.retriesTransport += t.retriesTransport;
        sum.transportFailures += t.transportFailures;
        sum.shedResponses += t.shedResponses;
        sum.okLatencyMs.insert(sum.okLatencyMs.end(),
                               t.okLatencyMs.begin(),
                               t.okLatencyMs.end());
    }
    uint64_t total = clients * requests;
    uint64_t answered =
        sum.ok + sum.shed + sum.deadline + sum.failed +
        sum.badRequest;
    uint64_t attempts = total + sum.retries;

    // Server-side queue observability: was backpressure honored?
    // Also the reconciliation source: the server's counters must
    // account for every attempt this process sent it.
    double queue_peak = 0.0, watermark = 1.0;
    bool server_counters_ok = true;
    bool reconciled = true;
    double server_total = 0.0;
    {
        server::ClientOptions copts;
        copts.socketPath = socket_path;
        copts.seed = seed;
        copts.stream = clients; // its own jitter stream
        server::Client stats_client(copts);
        server::Request stats_req;
        stats_req.type = "stats";
        auto stats = stats_client.call(stats_req);
        if (stats.status == server::Status::Ok) {
            queue_peak = stats.values["queue.peak"];
            if (stats.values["queue.watermark"] > 0)
                watermark = stats.values["queue.watermark"];
            server_total = stats.values["requests.total"];
            // Internal identity: every received eval request ended
            // as exactly one of these (no client is mid-call now).
            double accounted = stats.values["memo_hits"] +
                               stats.values["shed"] +
                               stats.values["completed"] +
                               stats.values["deadline"] +
                               stats.values["failed"];
            server_counters_ok = server_total == accounted;
            // Cross-check against our own tally: each attempt that
            // made it over the wire is one server-side request
            // (assumes this loadgen is the server's only client).
            double wire_attempts = static_cast<double>(
                attempts - sum.transportFailures);
            reconciled = server_total == wire_attempts;
            if (!server_counters_ok)
                std::cerr << "FAIL: server counters do not add up: "
                          << "requests.total " << server_total
                          << " != " << accounted << " accounted\n";
            if (!reconciled)
                std::cerr << "FAIL: server saw " << server_total
                          << " request(s), loadgen sent "
                          << wire_attempts << "\n";
        } else {
            std::cerr << "warning: stats request failed ("
                      << server::statusName(stats.status) << ")\n";
        }
    }

    double p50 = percentile(sum.okLatencyMs, 0.50);
    double p99 = percentile(sum.okLatencyMs, 0.99);
    double throughput =
        wall_s > 0 ? static_cast<double>(sum.ok) / wall_s : 0.0;
    double shed_rate =
        attempts > 0 ? static_cast<double>(sum.shedResponses) /
                           static_cast<double>(attempts)
                     : 0.0;
    double deadline_rate =
        total > 0 ? static_cast<double>(sum.deadline) /
                        static_cast<double>(total)
                  : 0.0;

    std::cout << "server load: " << total << " request(s), "
              << sum.ok << " ok, " << sum.shed << " shed, "
              << sum.deadline << " deadline, " << sum.failed
              << " failed, " << sum.retries << " retried; p50 "
              << p50 << " ms, p99 " << p99 << " ms, " << throughput
              << " req/s; queue peak " << queue_peak << "/"
              << watermark << "\n";

    bench::BenchReport report("server_load");
    report.setInfo("clients", std::to_string(clients));
    report.setInfo("requests_per_client", std::to_string(requests));
    report.setInfo("zipf", std::to_string(zipf_s));
    report.setInfo("seed", std::to_string(seed));
    report.setInfo("deadline_ms", std::to_string(deadline_ms));
    report.setMetric("latency.p50.ms", p50);
    report.setMetric("latency.p99.ms", p99);
    report.setMetric("throughput.rps", throughput);
    report.setMetric("requests.total", total);
    report.setMetric("requests.ok", sum.ok);
    report.setMetric("requests.shed", sum.shed);
    report.setMetric("requests.deadline", sum.deadline);
    report.setMetric("requests.failed", sum.failed);
    report.setMetric("retries.total", sum.retries);
    report.setMetric("retries.shed", sum.retriesShed);
    report.setMetric("retries.transport", sum.retriesTransport);
    report.setMetric("transport.failures", sum.transportFailures);
    report.setMetric("attempts.total", attempts);
    report.setMetric("shed.responses", sum.shedResponses);
    report.setMetric("shed.rate", shed_rate);
    report.setMetric("deadline.rate", deadline_rate);
    report.setMetric("queue.peak_over_watermark",
                     watermark > 0 ? queue_peak / watermark : 0.0);
    report.setMetric("server.requests.total", server_total);
    report.setMetric("server.reconciled",
                     (server_counters_ok && reconciled) ? 1.0 : 0.0);
    if (stats_interval_ms != 0) {
        report.setMetric("stats.samples", sampler_tally.samples);
        report.setMetric("stats.failures", sampler_tally.failures);
        report.setMetric("stats.violations",
                         sampler_tally.violations);
    }
    if (!bench::writeReport(report, json_out))
        return 1;

    // Every request must reach a terminal answer (no hangs, no
    // losses), and a correct client/server pair never produces
    // bad_request.
    if (answered != total || sum.badRequest != 0) {
        std::cerr << "FAIL: " << answered << "/" << total
                  << " answered, " << sum.badRequest
                  << " bad_request\n";
        return 1;
    }
    if (!server_counters_ok || !reconciled)
        return 1;
    if (sampler_tally.violations != 0) {
        std::cerr << "FAIL: " << sampler_tally.violations
                  << " non-monotonic mid-run stats sample(s)\n";
        return 1;
    }
    return 0;
}
