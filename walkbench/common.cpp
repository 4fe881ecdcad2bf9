#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace walkbench
{

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB -> MB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

Tail
tailOf(const std::vector<double> &values)
{
    Tail tail;
    tail.samples = values.size();
    tail.value = percentile(values, 50.0);
    for (double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
        double beyond = static_cast<double>(values.size()) * (1.0 - p / 100.0);
        if (beyond < 10.0)
            break;
        tail.pct = p;
        tail.value = percentile(values, p);
    }
    return tail;
}

void
Digest::bytes(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        state_ ^= p[i];
        state_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(const std::string &text)
{
    add(static_cast<uint64_t>(text.size()));
    bytes(text.data(), text.size());
}

void
Digest::add(double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
}

void
Digest::add(uint64_t value)
{
    bytes(&value, sizeof(value));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(state_));
    return buf;
}

namespace
{

std::string g_injectLayer;
int g_injectMs = 0;

} // namespace

bool
setInjection(const std::string &spec)
{
    auto colon = spec.find(':');
    if (colon == std::string::npos || colon == 0)
        return false;
    char *end = nullptr;
    long ms = std::strtol(spec.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || ms <= 0)
        return false;
    g_injectLayer = spec.substr(0, colon);
    g_injectMs = static_cast<int>(ms);
    return true;
}

void
injectDelay(const char *layer)
{
    if (g_injectMs > 0 && g_injectLayer == layer)
        std::this_thread::sleep_for(std::chrono::milliseconds(g_injectMs));
}

unsigned
hardwareJobs()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit)
{
    if (values.count(name) == 0)
        order.push_back(name);
    values[name] = {value, unit};
}

std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jlist(const std::vector<double> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + jnum(values[i]);
    return out + "]";
}

std::string
jstr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
printResult(const std::string &details_json, uint64_t attempted,
            uint64_t failed, const MetricSet &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &name : metrics.order) {
        const auto &[value, unit] = metrics.values.at(name);
        os << (first ? "" : ", ") << jstr(name) << ": {\"value\": "
           << jnum(value) << ", \"unit\": " << jstr(unit) << "}";
        first = false;
    }
    os << "}}";
    std::cout << "{\"details\": " << details_json << "}\n"
              << os.str() << std::endl;
}

} // namespace walkbench
