/**
 * @file
 * Machine-readable run report: one JSON document per exploration.
 *
 * A run report bundles everything a later reader needs to interpret
 * (or regress against) one walk: the configuration that produced it,
 * the build identity (git describe, baked in at configure time), and
 * a full metrics snapshot — per-phase wall times, evaluation-cache
 * hit/miss counts, per-line-size sweep statistics.
 *
 * The document is deterministic in *structure*: keys are sorted and
 * formatting is fixed, so two reports over identical metric values
 * are byte-identical (wall-clock timings naturally differ between
 * runs; everything else must not).
 */

#ifndef PICO_SUPPORT_RUN_REPORT_HPP
#define PICO_SUPPORT_RUN_REPORT_HPP

#include <cstdint>
#include <map>
#include <string>

#include "support/Metrics.hpp"

namespace pico::support
{

/** `git describe` of this build ("unknown" outside a git checkout). */
std::string buildVersion();

namespace detail
{
/** buildVersion()'s text, NUL-padded (defined in BuildIdentity.cpp). */
extern const char buildDescribe[64];
} // namespace detail

/** Collects run configuration and serializes it with a snapshot. */
class RunReport
{
  public:
    /** Schema tag written into every report. */
    static constexpr const char *schema = "picoeval-run-report-v1";

    /** Attach one configuration fact (shown under "info"). */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, uint64_t value);
    void set(const std::string &key, double value);

    /**
     * Render the report around the given metrics snapshot.
     * Deterministic: sorted keys, fixed formatting.
     */
    std::string toJson(const MetricsSnapshot &snapshot) const;

    /** toJson() over a fresh snapshot of the global registry. */
    std::string toJson() const;

    /**
     * Write the report to a file.
     * @return false (after a warn()) when the file cannot be written
     */
    bool write(const std::string &path) const;

  private:
    std::map<std::string, std::string> info_;
};

} // namespace pico::support

#endif // PICO_SUPPORT_RUN_REPORT_HPP
