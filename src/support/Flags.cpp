#include "support/Flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>

namespace pico::support
{

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t comma = text.find(',', pos);
        size_t end = comma == std::string::npos ? text.size() : comma;
        if (end > pos)
            items.push_back(text.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return items;
}

Flags::Flags(std::string program, std::string usage)
    : program_(std::move(program)), usage_(std::move(usage))
{}

void
Flags::text(const std::string &name, std::string *out)
{
    flags_.push_back({name, true, [out](const std::string &v) {
        *out = v;
        return std::string();
    }});
}

void
Flags::addCount(const std::string &name, uint64_t lo, uint64_t hi,
                std::function<void(uint64_t)> store)
{
    std::string range =
        hi == std::numeric_limits<uint64_t>::max()
            ? (lo == 0 ? "a count" : "a count of at least " +
                                         std::to_string(lo))
            : "a count from " + std::to_string(lo) + " to " +
                  std::to_string(hi);
    flags_.push_back({name, true, [=](const std::string &v) {
        uint64_t n = 0;
        const char *end = v.data() + v.size();
        auto [ptr, ec] = std::from_chars(v.data(), end, n);
        if (ec != std::errc() || ptr != end || n < lo || n > hi)
            return name + " takes " + range + ", not '" + v + "'";
        store(n);
        return std::string();
    }});
}

void
Flags::number(const std::string &name, double *out)
{
    flags_.push_back({name, true, [name, out](const std::string &v) {
        double x = 0.0;
        const char *end = v.data() + v.size();
        auto [ptr, ec] = std::from_chars(v.data(), end, x);
        if (ec != std::errc() || ptr != end || !std::isfinite(x) ||
            x < 0.0)
            return name + " takes a non-negative number, not '" + v +
                   "'";
        *out = x;
        return std::string();
    }});
}

void
Flags::toggle(const std::string &name, int *out)
{
    flags_.push_back({name, false, [name, out](const std::string &v) {
        if (v != "0" && v != "1")
            return name + "= takes 0 or 1, not '" + v + "'";
        *out = v == "1" ? 1 : 0;
        return std::string();
    }});
}

void
Flags::list(const std::string &name, std::vector<std::string> *out)
{
    auto append = [out, first = true](const std::string &v) mutable {
        if (first)
            out->clear();
        first = false;
        for (auto &item : splitList(v))
            out->push_back(std::move(item));
        return std::string();
    };
    flags_.push_back({name, true, append});
}

void
Flags::fail(const std::string &why) const
{
    // The usage text is the program's answer, not a log message: it
    // must reach stderr even when logging is filtered.
    // picoeval-lint: allow(raw-output)
    std::cerr << program_ << ": " << why << "\n" << usage_ << "\n";
    std::exit(2);
}

void
Flags::parse(int argc, char **argv)
{
    size_t next_positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            // picoeval-lint: allow(raw-output)
            std::cout << usage_ << "\n";
            std::exit(0);
        }
        if (arg.size() < 2 || arg[0] != '-') {
            if (next_positional == positionals_.size())
                fail("unexpected argument '" + arg + "'");
            *positionals_[next_positional++].out = arg;
            continue;
        }
        size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        auto flag = std::find_if(flags_.begin(), flags_.end(),
                                 [&name](const Flag &f) {
                                     return f.name == name;
                                 });
        if (flag == flags_.end())
            fail("unknown flag '" + name + "'");
        std::string value;
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
        } else if (!flag->takesValue) {
            value = "1";
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            fail(name + " needs a value");
        }
        std::string error = flag->set(value);
        if (!error.empty())
            fail(error);
    }
    for (size_t p = next_positional; p < positionals_.size(); ++p) {
        if (positionals_[p].required)
            fail("missing " + positionals_[p].name);
    }
}

} // namespace pico::support
