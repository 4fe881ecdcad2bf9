#include "support/RunReport.hpp"

#include <fstream>
#include <sstream>

#include "support/Logging.hpp"

namespace pico::support
{

std::string
buildVersion()
{
    return detail::buildDescribe;
}

void
RunReport::set(const std::string &key, const std::string &value)
{
    info_[key] = value;
}

void
RunReport::set(const std::string &key, uint64_t value)
{
    info_[key] = std::to_string(value);
}

void
RunReport::set(const std::string &key, double value)
{
    std::ostringstream ss;
    ss.precision(17);
    ss << value;
    info_[key] = ss.str();
}

std::string
RunReport::toJson(const MetricsSnapshot &snapshot) const
{
    std::ostringstream out;
    out << "{\"schema\":\"" << schema << "\",\"git\":\""
        << jsonEscape(buildVersion()) << "\",\"info\":{";
    bool first = true;
    for (const auto &[key, value] : info_) {
        out << (first ? "" : ",") << '"' << jsonEscape(key)
            << "\":\"" << jsonEscape(value) << '"';
        first = false;
    }
    out << "},\"metrics\":";
    snapshot.writeJson(out);
    out << "}\n";
    return out.str();
}

std::string
RunReport::toJson() const
{
    return toJson(metrics().snapshot());
}

bool
RunReport::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        warn("cannot write run report '", path, "'");
        return false;
    }
    out << toJson();
    out.flush();
    if (!out) {
        warn("writing run report '", path, "' failed");
        return false;
    }
    return true;
}

} // namespace pico::support
