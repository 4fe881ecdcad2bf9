/**
 * @file
 * Shared pieces of the walkbench program: clocks, order statistics,
 * result digests, layer timing with delay injection, and the result
 * line every workload prints.
 */

#ifndef WALKBENCH_COMMON_HPP
#define WALKBENCH_COMMON_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace walkbench
{

/** Wall clock (steady), seconds. */
double nowS();
/** CPU time of the whole process (all threads), seconds. */
double cpuS();
/**
 * Return freed heap to the system and restart this process's peak
 * resident-set mark (Linux clear_refs), so peakRssMb() covers only
 * what runs afterwards.
 */
void resetPeakRss();
/** Peak resident set (VmHWM) of this process since the last reset, MB. */
double peakRssMb();

double median(std::vector<double> values);

/** Nearest-rank percentile of a sample (p in [0, 100]). */
double percentile(std::vector<double> values, double p);

/**
 * The highest of p50/p75/p90/p95/p99/p99.9 that still has at least
 * ten samples beyond it, so the tail is never one outlier.
 */
struct Tail
{
    double pct = 50.0;
    double value = 0.0;
    size_t samples = 0;
};
Tail tailOf(const std::vector<double> &values);

/** FNV-1a digest over strings and exact double bit patterns. */
class Digest
{
  public:
    void add(const std::string &text);
    void add(double value);
    void add(uint64_t value);
    std::string hex() const;

  private:
    void bytes(const void *data, size_t n);
    uint64_t state_ = 0xcbf29ce484222325ULL;
};

/**
 * Delay injection for the self-test: `--inject LAYER:MS` sleeps MS
 * milliseconds inside every timed call of LAYER (e.g.
 * "cache.sweep:40"), so the test can check that the delay lands in
 * that layer's metric and not in dse.unattributed_s. Returns false
 * when `spec` is not of that form.
 */
bool setInjection(const std::string &spec);
void injectDelay(const char *layer);

/** Ordered metric set of one run (name -> value, unit). */
struct MetricSet
{
    void set(const std::string &name, double value,
             const std::string &unit);
    std::vector<std::string> order;
    std::map<std::string, std::pair<double, std::string>> values;
};

/**
 * Print the run's details (free-form JSON object) and then, as the
 * last line, {"correct", "attempted", "failed", "metrics"}.
 */
void printResult(const std::string &details_json, uint64_t attempted,
                 uint64_t failed, const MetricSet &metrics);

/** JSON number with every digit (%.17g); non-finite -> null. */
std::string jnum(double v);
/** JSON array of jnum values. */
std::string jlist(const std::vector<double> &values);
std::string jstr(const std::string &s);

/** Common run parameters parsed from the command line. */
struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    /** Self-test: corrupt one timed operation's output. */
    bool corrupt = false;
    /** Expected digest for the default seed ("" = none). */
    std::string expectDigest;
    /** picoeval_server binary (serve phases). */
    std::string serverBin;
};

/** Worker count of the walks: the machine's hardware threads. */
unsigned hardwareJobs();

} // namespace walkbench

#endif // WALKBENCH_COMMON_HPP
