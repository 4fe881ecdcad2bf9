#include "serve.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "dse/EvaluationCache.hpp"
#include "server/Client.hpp"
#include "support/Random.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

extern char **environ;

namespace walkbench
{

using namespace pico;

namespace
{

std::atomic<unsigned> g_phase{0};

/** Fill a cache database with `entries` entries no request uses. */
void
prefillTable(const std::string &path, size_t entries, uint64_t seed)
{
    std::remove(path.c_str());
    dse::EvaluationCache cache(path);
    for (size_t i = 0; i < entries; ++i) {
        std::string key = "proc;prefill;s" + std::to_string(seed) + ";" +
                          std::to_string(i) + ";p1";
        cache.store(key, {1.0 + static_cast<double>(i % 97), 1000.0 + i,
                          1000.0 + i});
    }
    cache.flush();
}

/** A picoeval_server child; stopped (SIGTERM, then SIGKILL) and
 *  reaped by the destructor. */
class ServerProcess
{
  public:
    ServerProcess(const std::string &bin, const std::string &socket,
                  const std::string &cache, unsigned workers,
                  const std::string &log)
        : socket_(socket)
    {
        std::remove(socket.c_str());
        std::vector<std::string> args = {
            bin, "--socket", socket, "--cache", cache, "--workers",
            std::to_string(workers), "--drain-ms", "10000"};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(),
                             environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start " + bin);
        }
    }

    ~ServerProcess() { stop(); }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** Ping until the server answers; false after `timeout_s`. */
    bool
    waitReady(double timeout_s)
    {
        const double start = nowS();
        while (nowS() - start < timeout_s) {
            server::ClientOptions co;
            co.socketPath = socket_;
            co.maxAttempts = 1;
            server::Client client(co);
            server::Request req;
            req.type = "ping";
            if (client.call(req).status == server::Status::Ok)
                return true;
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return false;
    }

    /** SIGTERM (graceful drain), then SIGKILL after 20 s; reaps. */
    int
    stop()
    {
        if (pid_ <= 0)
            return exitCode_;
        kill(pid_, SIGTERM);
        int status = 0;
        const double start = nowS();
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (nowS() - start > 20.0) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        exitCode_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
        return exitCode_;
    }

    /** Field of /proc/<pid>/status in kB (or a plain count). */
    double
    procStatus(const std::string &field) const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind(field + ":", 0) == 0)
                return std::atof(line.c_str() + field.size() + 1);
        }
        return 0.0;
    }

    double
    openFds() const
    {
        std::string dir = "/proc/" + std::to_string(pid_) + "/fd";
        DIR *d = opendir(dir.c_str());
        if (d == nullptr)
            return 0.0;
        double n = 0;
        while (dirent *e = readdir(d)) {
            if (e->d_name[0] != '.')
                n += 1;
        }
        closedir(d);
        return n;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    int exitCode_ = 0;
};

enum class Kind
{
    Fresh,
    Repeat,
    Memo,
};

struct Sample
{
    Kind kind;
    bool shortLived = false;
    server::Request req;
    server::Response resp;
    double ms = 0;
};

/** Request identity without the idempotency key: what a check walk
 *  reproduces. */
std::string
walkKey(const server::Request &r)
{
    return r.app + ";" + r.machines + ";" + std::to_string(r.traceBlocks);
}

/** Walk options EvalService::execute uses for a request. */
dse::Spacewalker::Options
servedOptions(uint64_t trace_blocks)
{
    dse::Spacewalker::Options opts;
    opts.traceBlocks = trace_blocks;
    opts.uGranule = std::max<uint64_t>(trace_blocks * 5, 1000);
    opts.iGranule = std::min<uint64_t>(
        core::defaultIGranule, std::max<uint64_t>(trace_blocks * 5 / 2, 500));
    opts.jobs = 1;
    opts.verify = 0;
    return opts;
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(item);
    return out;
}

/** Compare one response with the check walk of its request. */
std::string
checkResponse(const Sample &s, const dse::ExplorationResult &r)
{
    const auto &v = s.resp.values;
    auto get = [&v](const std::string &k) {
        auto it = v.find(k);
        return it == v.end() ? std::nan("") : it->second;
    };
    if (get("pareto.systems") !=
        static_cast<double>(r.systems.points().size()))
        return "pareto.systems " + std::to_string(get("pareto.systems")) +
               " != " + std::to_string(r.systems.points().size());
    if (get("designs.failed") != 0.0 ||
        get("designs.evaluated") != static_cast<double>(r.evaluatedDesigns))
        return "designs evaluated/failed differ";
    for (const auto &[name, dil] : r.dilations) {
        double got = get("machine." + name + ".dilation");
        if (!(std::fabs(got - dil) <= 1e-12 * std::fabs(dil)))
            return "dilation of " + name + " differs";
        if (get("machine." + name + ".cycles") !=
            static_cast<double>(r.processorCycles.at(name)))
            return "cycles of " + name + " differ";
    }
    return "";
}

} // namespace

ServeOutcome
runServePhase(const ServePhase &phase)
{
    ServeOutcome out;
    const unsigned id = g_phase.fetch_add(1);
    const std::string tag = "serve" + std::to_string(id);
    const std::string socket = tag + ".sock", db = tag + ".db",
                      log = tag + ".log";
    auto fail = [&out](const std::string &why) {
        ++out.failed;
        if (out.problems.size() < 8)
            out.problems.push_back(why);
    };

    // The programs the check walks use: the suite specs, as the
    // server's own programFor() builds them.
    std::map<std::string, ir::Program> progs;
    for (const auto &app : phase.apps) {
        double t = nowS();
        progs.emplace(app, workloads::buildAndProfile(
                               workloads::specByName(app)));
        out.profileS.push_back(nowS() - t);
    }

    prefillTable(db, servedTableEntries, phase.seed);

    // Set-up: start, cache load, first ping; repeated, the last
    // server stays up for the load.
    std::unique_ptr<ServerProcess> server;
    for (int round = 0; round < phase.setupRounds; ++round) {
        if (server)
            server->stop();
        double t = nowS();
        server = std::make_unique<ServerProcess>(
            phase.serverBin, socket, db, serverWorkers, log);
        if (!server->waitReady(30.0))
            throw std::runtime_error("picoeval_server did not answer ping");
        out.setupS.push_back(nowS() - t);
    }

    // Untimed warm-up: the server profiles each app on first use.
    {
        server::ClientOptions co;
        co.socketPath = socket;
        server::Client client(co);
        for (const auto &app : phase.apps) {
            server::Request req;
            req.app = app;
            req.machines = "1111";
            req.traceBlocks = 2000;
            req.key = "warmup;" + app;
            if (client.call(req).status != server::Status::Ok)
                throw std::runtime_error("warm-up request failed");
        }
    }

    // Fresh machine names: every 4-digit FU mix with counts 1..6 not
    // in the processor space, shuffled by the seed and dealt out to
    // the clients, so no two fresh requests share a machine.
    std::vector<std::string> names;
    for (int a = 1; a <= 6; ++a)
        for (int b = 1; b <= 6; ++b)
            for (int c = 1; c <= 6; ++c)
                for (int d = 1; d <= 6; ++d) {
                    std::string n = {char('0' + a), char('0' + b),
                                     char('0' + c), char('0' + d)};
                    if (std::find(processorSpace.begin(),
                                  processorSpace.end(),
                                  n) == processorSpace.end())
                        names.push_back(n);
                }
    pico::Rng shuffle(phase.seed);
    for (size_t i = names.size(); i > 1; --i)
        std::swap(names[i - 1], names[shuffle.below(i)]);

    std::vector<std::vector<Sample>> per_client(servedClients);
    std::vector<uint64_t> retries(servedClients, 0);
    const double t_load = nowS();
    const double t_end = t_load + phase.seconds;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < servedClients; ++c) {
        threads.emplace_back([&, c]() {
            pico::Rng rng = pico::Rng::forStream(phase.seed, c + 1);
            server::ClientOptions co;
            co.socketPath = socket;
            co.seed = phase.seed;
            co.stream = c;
            server::Client persistent(co);
            size_t next_name = c;
            uint64_t serial = 0;
            std::vector<server::Request> history;
            auto &samples = per_client[c];
            while (nowS() < t_end) {
                Sample s;
                double u = rng.uniform();
                if (history.empty() || u < freshShare) {
                    s.kind = Kind::Fresh;
                    s.req.app = phase.apps[rng.below(phase.apps.size())];
                    s.req.machines.clear();
                    unsigned count = 1 + static_cast<unsigned>(rng.below(2));
                    for (unsigned k = 0; k < count; ++k) {
                        if (next_name >= names.size())
                            next_name = c;
                        s.req.machines += (k ? "," : "") + names[next_name];
                        next_name += servedClients;
                    }
                    s.req.traceBlocks = 2000 + 1000 * rng.below(3);
                } else if (u < freshShare + memoShare) {
                    s.kind = Kind::Memo;
                    s.req = history[rng.below(history.size())];
                } else {
                    s.kind = Kind::Repeat;
                    s.req = history[rng.below(history.size())];
                    s.req.key = "repeat;" + std::to_string(c) + ";" +
                                std::to_string(serial++);
                }
                // A share arrives on its own short-lived connection,
                // as picoeval_ctl calls do.
                s.shortLived = rng.uniform() < shortLivedShare;
                double t = nowS();
                if (s.shortLived) {
                    server::ClientOptions once = co;
                    once.stream = 1000 + c;
                    server::Client client(once);
                    s.resp = client.call(s.req);
                    retries[c] += client.retries();
                } else {
                    s.resp = persistent.call(s.req);
                }
                s.ms = (nowS() - t) * 1000.0;
                if (s.kind == Kind::Fresh &&
                    s.resp.status == server::Status::Ok)
                    history.push_back(s.req);
                samples.push_back(std::move(s));
            }
            retries[c] += persistent.retries();
        });
    }
    for (auto &t : threads)
        t.join();
    out.loadSeconds = nowS() - t_load;

    // The load has drained (closed loop): read the server's state.
    {
        server::ClientOptions co;
        co.socketPath = socket;
        server::Client client(co);
        server::Request req;
        req.type = "stats";
        auto resp = client.call(req);
        auto val = [&resp](const char *k) {
            auto it = resp.values.find(k);
            return it == resp.values.end() ? 0.0 : it->second;
        };
        out.queuePeak = val("queue.peak");
        out.shed = val("shed");
        out.cacheHits = val("cache.hits");
        out.cacheMisses = val("cache.misses");
    }
    out.vmHwmMb = server->procStatus("VmHWM") / 1024.0;
    out.vmSizeMb = server->procStatus("VmSize") / 1024.0;
    out.threads = server->procStatus("Threads");
    out.fds = server->openFds();
    if (int code = server->stop(); code != 0)
        fail("picoeval_server exited with code " + std::to_string(code));
    for (auto &c : retries)
        out.retries += c;

    // Every response against an in-process walk of its request.
    std::map<std::string, std::vector<const Sample *>> by_walk;
    bool corrupt = phase.corrupt;
    for (auto &samples : per_client) {
        for (auto &s : samples) {
            ++out.attempted;
            ++out.requests;
            if (s.resp.status != server::Status::Ok) {
                fail(std::string("request ") + server::statusName(s.resp.status) +
                     ": " + s.resp.error);
                continue;
            }
            if (corrupt) {
                s.resp.values["pareto.systems"] += 1.0;
                corrupt = false;
            }
            out.latencyMs.push_back(s.ms);
            out.shortLived += s.shortLived ? 1 : 0;
            (s.kind == Kind::Fresh    ? out.freshMs
             : s.kind == Kind::Repeat ? out.repeatMs
                                      : out.memoMs)
                .push_back(s.ms);
            by_walk[walkKey(s.req)].push_back(&s);
        }
    }
    // The mix's constraint: the median request is a walk.
    {
        std::vector<const Sample *> done;
        for (const auto &samples : per_client)
            for (const auto &s : samples)
                if (s.resp.status == server::Status::Ok)
                    done.push_back(&s);
        if (!done.empty()) {
            auto mid = done.begin() + static_cast<long>(done.size() / 2);
            std::nth_element(done.begin(), mid, done.end(),
                             [](const Sample *a, const Sample *b) {
                                 return a->ms < b->ms;
                             });
            out.medianIsMemo = (*mid)->kind == Kind::Memo;
        }
        ++out.attempted;
        if (out.medianIsMemo)
            fail("request mix: the median request is a memo hit");
    }
    for (const auto &[key, samples] : by_walk) {
        const auto &req = samples.front()->req;
        ++out.checkWalks;
        auto machines = splitList(req.machines);
        auto opts = servedOptions(req.traceBlocks);
        dse::MemorySpaces spaces;
        dse::ExplorationResult r;
        if (phase.layered) {
            LayerTimes lt;
            std::unique_ptr<dse::MemoryWalker> mem;
            bool consistent = true;
            r = layeredWalk(progs.at(req.app), spaces, machines, opts, lt,
                            mem, consistent);
            if (!consistent)
                fail(key + ": layered walk inconsistent");
            out.checkLayers.push_back(lt);
            if (out.plainWallS.size() < 16) {
                dse::Spacewalker walker(spaces, machines, opts);
                double t = nowS();
                walker.explore(progs.at(req.app));
                out.plainWallS.push_back(nowS() - t);
                out.spans.push_back(
                    spannedExplore(progs.at(req.app), spaces, machines, opts));
            }
        } else {
            dse::Spacewalker walker(spaces, machines, opts);
            double t = nowS(), c = cpuS();
            r = walker.explore(progs.at(req.app));
            const std::string stratum =
                req.app + ";" + std::to_string(req.traceBlocks) + ";" +
                std::to_string(machines.size());
            out.checkWallS[stratum].push_back(nowS() - t);
            out.checkCpuS[stratum].push_back(cpuS() - c);
        }
        for (const Sample *s : samples) {
            std::string why = checkResponse(*s, r);
            if (!why.empty())
                fail(key + ": " + why);
        }
    }
    std::remove(db.c_str());
    std::remove((db + ".tmp").c_str());
    return out;
}

void
addServerMetrics(MetricSet &m, const ServeOutcome &out)
{
    m.set("server.memo_rtt_ms", median(out.memoMs), "ms");
    m.set("server.fresh_p50_ms", median(out.freshMs), "ms");
    m.set("server.repeat_p50_ms", median(out.repeatMs), "ms");
    m.set("server.queue_peak", out.queuePeak, "count");
    m.set("server.shed", out.shed, "count");
    m.set("server.retries", static_cast<double>(out.retries), "count");
    m.set("server.vmsize_mb", out.vmSizeMb, "MB");
    m.set("server.threads", out.threads, "count");
    m.set("server.fds", out.fds, "count");
    double lookups = out.cacheHits + out.cacheMisses;
    m.set("dse.cache_hit_ratio",
          lookups > 0 ? out.cacheHits / lookups : 0.0, "ratio");
}

void
cacheProbes(MetricSet &m)
{
    const std::string db = "probe.db";
    prefillTable(db, servedTableEntries, 0);
    std::vector<double> loads, flushes;
    for (int i = 0; i < 3; ++i) {
        double t = nowS();
        dse::EvaluationCache cache(db);
        loads.push_back(nowS() - t);
    }
    {
        dse::EvaluationCache cache(db);
        for (int i = 0; i < 5; ++i) {
            cache.store("proc;probe;" + std::to_string(i), {1.0, 2.0});
            double t = nowS();
            cache.flush();
            flushes.push_back((nowS() - t) * 1000.0);
        }
    }
    std::remove(db.c_str());
    m.set("dse.flush_ms", median(flushes), "ms");
    m.set("dse.cache_load_s", median(loads), "s");
}

int
runServe(const RunArgs &args)
{
    ServePhase phase;
    // Chosen, not measured: three small-text apps with the suite's
    // smallest dilations (rasta is also on walk-lru) and pgpdecode,
    // with 70 functions to their 22-34, so request cost varies by app.
    phase.apps = {"rasta", "unepic", "mipmap", "pgpdecode"};
    phase.seconds = args.seconds;
    phase.seed = args.seed;
    phase.serverBin = args.serverBin;
    phase.layered = args.traced;
    phase.corrupt = args.corrupt;
    phase.setupRounds = 31;
    ServeOutcome out = runServePhase(phase);

    MetricSet m;
    // Measured share of the completed requests, beside the mix asked for.
    auto share = [&out](size_t n) {
        return jnum(static_cast<double>(n) /
                    std::max<double>(double(out.latencyMs.size()), 1.0));
    };
    std::ostringstream details;
    details << "{\"workload\": \"serve-mix\", \"seed\": " << args.seed
            << ", \"clients\": " << servedClients
            << ", \"server_workers\": " << serverWorkers
            << ", \"table_entries\": " << servedTableEntries
            << ", \"requests\": " << out.requests
            << ", \"fresh\": " << out.freshMs.size()
            << ", \"repeat\": " << out.repeatMs.size()
            << ", \"memo\": " << out.memoMs.size()
            << ", \"short_lived\": " << out.shortLived
            << ", \"shares\": {\"fresh\": " << share(out.freshMs.size())
            << ", \"repeat\": " << share(out.repeatMs.size())
            << ", \"memo\": " << share(out.memoMs.size())
            << ", \"short_lived\": " << share(out.shortLived) << "}"
            << ", \"median_is_memo\": "
            << (out.medianIsMemo ? "true" : "false")
            << ", \"check_walks\": "
            << out.checkWalks;
    if (!args.traced) {
        Tail tail = tailOf(out.latencyMs);
        // Mean over strata of each stratum's median, so the figure
        // does not depend on how the seed's draws mix the strata.
        auto strataMedian = [](const auto &by_stratum) {
            double sum = 0.0;
            for (const auto &[stratum, times] : by_stratum)
                sum += median(times);
            return by_stratum.empty() ? 0.0 : sum / by_stratum.size();
        };
        m.set("walk_p50_s", strataMedian(out.checkWallS), "s");
        m.set("walk_cpu_s", strataMedian(out.checkCpuS), "s");
        // The dilation-model error on the served apps at the largest
        // served budget.
        m.set("miss_err_pct",
              suiteMissErrPct(phase.apps, servedOptions(4000)), "%");
        m.set("serve_p50_ms", median(out.latencyMs), "ms");
        m.set("serve_tail_ms", tail.value, "ms");
        m.set("serve_rps",
              static_cast<double>(out.latencyMs.size()) / out.loadSeconds,
              "1/s");
        m.set("peak_rss_mb", out.vmHwmMb, "MB");
        m.set("setup_s", median(out.setupS), "s");
        details << ", \"serve_tail_pct\": " << tail.pct
                << ", \"serve_tail_samples\": " << tail.samples
                << ", \"setup_rounds_s\": " << jlist(out.setupS);
    } else {
        addLayerMetrics(m, out.checkLayers, 1);
        std::vector<LayerTimes> matched(
            out.checkLayers.begin(),
            out.checkLayers.begin() +
                static_cast<long>(out.plainWallS.size()));
        ++out.attempted;
        if (auto why = checkAttribution(m, matched, out.plainWallS,
                                        out.spans);
            !why.empty()) {
            ++out.failed;
            out.problems.push_back("layer attribution: " + why);
        }
        m.set("workloads.profile_s", median(out.profileS), "s");
        cacheProbes(m);
        addServerMetrics(m, out);
    }
    details << ", \"problems\": [";
    for (size_t i = 0; i < out.problems.size(); ++i)
        details << (i ? ", " : "") << jstr(out.problems[i]);
    details << "]}";
    printResult(details.str(), out.attempted, out.failed, m);
    return 0;
}

} // namespace walkbench
