/**
 * @file
 * Shared command-line plumbing for the tools (modelcheck, stress,
 * sweeprunner): one option-cursor class instead of three hand-rolled
 * argv loops, plus the common option vocabulary — checked numeric
 * values, enum values and usage text generated from the name tables
 * (sim/parse.hh), and key=value overrides.
 *
 * Deliberately tiny and exit(2)-on-misuse: these are developer
 * tools, so a missing value or a bad enum name prints what was
 * wrong and stops, matching the behavior the three tools already
 * had.
 */

#ifndef CENJU_TOOLS_CLI_HH
#define CENJU_TOOLS_CLI_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "reliable/kind.hh"
#include "sim/parse.hh"
#include "transport/transport.hh"

namespace cenju::cli
{

/**
 * Cursor over argv options. Typical loop:
 * @code
 * cli::OptionParser args(argc, argv);
 * while (args.next()) {
 *     if (args.is("--seeds"))
 *         opt.seeds = args.u64();
 *     else if (args.is("--verbose"))
 *         opt.verbose = true;
 *     else
 *         return usage(argv[0]);
 * }
 * @endcode
 */
class OptionParser
{
  public:
    /**
     * @param first index of the first option (1 for a main() argv;
     * 0 when the caller already shifted past a subcommand).
     */
    OptionParser(int argc, char **argv, int first = 1)
        : _argc(argc), _argv(argv), _i(first - 1)
    {}

    /** Advance to the next option. @retval false when exhausted */
    bool next() { return ++_i < _argc; }

    /** The option the cursor is on. */
    const char *arg() const { return _argv[_i]; }

    /** Does the current option equal @p name? */
    bool is(const char *name) const
    {
        return std::strcmp(_argv[_i], name) == 0;
    }

    /** Consume and return the current option's value argument. */
    const char *
    value()
    {
        if (_i + 1 >= _argc) {
            std::fprintf(stderr, "%s needs a value\n", _argv[_i]);
            std::exit(2);
        }
        return _argv[++_i];
    }

    /** value() as an unsigned 64-bit number. */
    std::uint64_t u64() { return number<std::uint64_t>(); }

    /** value() as an unsigned 32-bit number. */
    unsigned u32() { return number<unsigned>(); }

  private:
    /** value() as a @p T; exits(2) naming the flag if malformed. */
    template <typename T>
    T
    number()
    {
        const char *flag = arg();
        const char *s = value();
        T v{};
        if (!parseUnsigned(std::string_view(s), v)) {
            std::fprintf(stderr,
                         "%s: expected an unsigned number, got '%s'\n",
                         flag, s);
            std::exit(2);
        }
        return v;
    }

    int _argc;
    char **_argv;
    int _i;
};

/**
 * Consume the current option's value as a name in @p table; exits(2)
 * naming the flag, the bad value and the valid names.
 */
template <typename E, std::size_t N>
E
enumValue(OptionParser &args, const EnumTable<E, N> &table)
{
    const char *flag = args.arg();
    const char *s = args.value();
    E v{};
    if (!table.parse(s, v)) {
        std::fprintf(stderr, "%s: unknown value '%s' (expected %s)\n",
                     flag, s, table.names().c_str());
        std::exit(2);
    }
    return v;
}

/**
 * Usage entry for an option taking a name from @p table: @p head
 * (indent, flag, metavariable) padded to @p column, then
 * "what: a | b | c note" wrapped at 72 columns.
 */
template <typename E, std::size_t N>
std::string
enumHelp(std::string head, const std::string &what,
         const EnumTable<E, N> &table, const std::string &note,
         std::size_t column = 19)
{
    std::string out = std::move(head);
    out.append(out.size() < column ? column - out.size() : 1, ' ');
    std::size_t lineStart = 0;
    std::istringstream words(what + ": " + table.names(" | ") + " " +
                             note);
    for (std::string w; words >> w;) {
        if (out.back() != ' ') {
            if (out.size() - lineStart + 1 + w.size() > 72) {
                lineStart = out.size() + 1;
                out += '\n' + std::string(column, ' ');
            } else {
                out += ' ';
            }
        }
        out += w;
    }
    return out + '\n';
}

/** Usage entry for a config axis's `--<key>` option. */
template <typename E, std::size_t N>
std::string
axisHelp(const ConfigAxis<E, N> &axis, const char *indent = "  ",
         std::size_t column = 19)
{
    std::string head = std::string(indent) + "--" + axis.key + " " +
                       char(std::toupper(axis.key[0]));
    return enumHelp(std::move(head), axis.help, axis,
                    std::string("(default ") +
                        axis.name(axis.fallback) + ")",
                    column);
}

/**
 * Resolve a --shards request (0 means 1) against the stack: the
 * multistage fabric and the reliability decorator have no
 * cross-shard latency floor, so either clamps to one shard. Tools
 * clamp once here, not per run, so a seed sweep warns once.
 */
inline unsigned
clampShards(unsigned shards, TransportKind transport,
            ReliabilityKind reliability)
{
    if (shards <= 1)
        return 1;
    if (transport == TransportKind::Multistage) {
        std::fprintf(stderr,
                     "note: the multistage fabric has no "
                     "cross-shard latency floor — its tryInject() "
                     "mutates switch state synchronously with the "
                     "sender, so conservative windows would have "
                     "zero lookahead; running with 1 shard (see "
                     "docs/ARCHITECTURE.md, \"Sharded parallel "
                     "simulation\")\n");
        return 1;
    }
    if (reliability == ReliabilityKind::E2e) {
        std::fprintf(stderr,
                     "note: the reliability decorator runs "
                     "sequentially; running with 1 shard\n");
        return 1;
    }
    return shards;
}

/**
 * Resolve a --jobs request against --shards so the two compose:
 * each sweep worker drives @p shards simulation threads of its own,
 * and oversubscribing jobs x shards past the hardware threads only
 * adds contention. 0 jobs means "use what the machine has left"
 * (hardware / shards); an explicit jobs value is clamped with a
 * warning when jobs x shards exceeds the hardware.
 */
inline unsigned
clampJobs(unsigned jobs, unsigned shards)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    if (shards == 0)
        shards = 1;
    unsigned fit = hw / shards;
    if (fit == 0)
        fit = 1;
    if (jobs == 0)
        return fit;
    if (jobs * shards > hw && jobs > fit) {
        std::fprintf(stderr,
                     "note: clamping --jobs %u to %u (%u shards x "
                     "%u jobs > %u hardware threads)\n",
                     jobs, fit, shards, jobs, hw);
        return fit;
    }
    return jobs;
}

/**
 * Split "key=value" into its parts.
 * @retval false if there is no '=' or the key is empty
 */
inline bool
splitKeyValue(const std::string &s, std::string &key,
              std::string &value)
{
    auto eq = s.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    key = s.substr(0, eq);
    value = s.substr(eq + 1);
    return true;
}

} // namespace cenju::cli

#endif // CENJU_TOOLS_CLI_HH
