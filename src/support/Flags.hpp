/**
 * @file
 * Command-line flag parser shared by the example programs.
 *
 * Each program registers its flags against the variables they fill,
 * then calls parse(). Flags take `--flag value` or `--flag=value`; a
 * switch takes no value (`--flag`, or `--flag=0|1`). Values are
 * checked as they are parsed. `--help` (or `-h`) prints the usage
 * text on stdout and exits 0. Misuse prints `<program>: <reason>`
 * and the usage text on stderr and exits 2; checks that need the
 * whole command line call fail() to report the same way. Parsing
 * ends before the program does any work, so bad usage never binds a
 * socket, starts a thread or aborts (DESIGN.md §6).
 */

#ifndef PICO_SUPPORT_FLAGS_HPP
#define PICO_SUPPORT_FLAGS_HPP

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace pico::support
{

/**
 * Upper bound of every flag that sets a thread count (--jobs,
 * --workers, --clients): far above any core count, far below what
 * the operating system refuses.
 */
constexpr uint64_t maxThreadsFlag = 1024;

/** Split a comma-separated list into its non-empty items. */
std::vector<std::string> splitList(const std::string &text);

/** Flag registry and parser of one program's command line. */
class Flags
{
  public:
    /**
     * @param program name that prefixes misuse messages
     * @param usage usage text printed on --help and after misuse
     */
    Flags(std::string program, std::string usage);

    /** `--name VALUE`: any string. */
    void text(const std::string &name, std::string *out);

    /** `--name N`: a whole decimal count in [lo, hi]. */
    template <typename T>
    void
    count(const std::string &name, T *out, uint64_t lo = 0,
          uint64_t hi = std::numeric_limits<T>::max())
    {
        static_assert(std::is_unsigned_v<T>);
        addCount(name, lo, hi, [out](uint64_t n) {
            *out = static_cast<T>(n);
        });
    }

    /** `--name X`: a finite, non-negative number. */
    void number(const std::string &name, double *out);

    /**
     * `--name` (or `--name=1`) stores 1, `--name=0` stores 0; an
     * absent switch leaves `out` at its default (which may be a
     * third state, such as -1 for "automatic").
     */
    void toggle(const std::string &name, int *out);

    /**
     * `--name a,b,...`: the first occurrence replaces `out`, later
     * ones append; empty items are dropped.
     */
    void list(const std::string &name, std::vector<std::string> *out);

    /** Next positional argument, in registration order. */
    void
    positional(const std::string &name, std::string *out,
               bool required = false)
    {
        positionals_.push_back({name, out, required});
    }

    /** Parse argv[1..argc); exits 0 on --help and 2 on misuse. */
    void parse(int argc, char **argv);

    /** Report misuse on stderr and exit 2. */
    [[noreturn]] void fail(const std::string &why) const;

  private:
    /** One registered flag; set() returns an error, "" when valid. */
    struct Flag
    {
        std::string name;
        bool takesValue = true;
        std::function<std::string(const std::string &)> set;
    };

    struct Positional
    {
        std::string name;
        std::string *out;
        bool required;
    };

    void addCount(const std::string &name, uint64_t lo, uint64_t hi,
                  std::function<void(uint64_t)> store);

    std::string program_;
    std::string usage_;
    std::vector<Flag> flags_;
    std::vector<Positional> positionals_;
};

} // namespace pico::support

#endif // PICO_SUPPORT_FLAGS_HPP
