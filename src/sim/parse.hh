/**
 * @file
 * Text-facing values: declarative name tables for the selectable
 * enums, and checked number parsing.
 *
 * Every enum that crosses a text boundary (a CLI flag, an
 * environment variable, a reproducer or trace line) states its
 * value <-> name mapping once, as a constexpr EnumTable beside the
 * enum; printing, parsing and the valid-name lists in help and
 * error text derive from it. The configuration axes (transport,
 * protocol, reliability) are ConfigAxis tables that also carry the
 * reproducer key (the CLI flag is `--<key>`), the `CENJU_*`
 * variable, the default and a help phrase. Adding a value to an
 * axis is one row plus its factory case.
 */

#ifndef CENJU_SIM_PARSE_HH
#define CENJU_SIM_PARSE_HH

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>

#include "sim/logging.hh"

namespace cenju
{

/** One value of an enum and its printed name. */
template <typename E>
struct EnumRow
{
    E value;
    const char *name;
};

/** The complete, ordered value <-> name mapping of enum @p E. */
template <typename E, std::size_t N>
class EnumTable
{
  public:
    constexpr explicit EnumTable(const EnumRow<E> (&rows)[N])
    {
        for (std::size_t i = 0; i < N; ++i)
            _rows[i] = rows[i];
    }

    /** Printed name of @p v ("?" for a value with no row). */
    constexpr const char *
    name(E v) const
    {
        for (const EnumRow<E> &r : _rows) {
            if (r.value == v)
                return r.name;
        }
        return "?";
    }

    /** Parse a name(). @retval false if none matches (@p out kept) */
    constexpr bool
    parse(std::string_view s, E &out) const
    {
        for (const EnumRow<E> &r : _rows) {
            if (s == r.name) {
                out = r.value;
                return true;
            }
        }
        return false;
    }

    /** Every name in row order, joined by @p sep (help/errors). */
    std::string
    names(std::string_view sep = ", ") const
    {
        std::string out;
        for (const EnumRow<E> &r : _rows) {
            if (!out.empty())
                out += sep;
            out += r.name;
        }
        return out;
    }

    static constexpr std::size_t size() { return N; }
    constexpr const EnumRow<E> *begin() const { return _rows.data(); }
    constexpr const EnumRow<E> *end() const { return begin() + N; }

  private:
    std::array<EnumRow<E>, N> _rows{};
};

/** Build a table, deducing its size: `enumTable<E>({{E::A, "a"}})`. */
template <typename E, std::size_t N>
constexpr EnumTable<E, N>
enumTable(const EnumRow<E> (&rows)[N])
{
    return EnumTable<E, N>(rows);
}

/** A selectable configuration axis: its names plus how to pick one. */
template <typename E, std::size_t N>
struct ConfigAxis : EnumTable<E, N>
{
    constexpr ConfigAxis(EnumTable<E, N> values, E fallback,
                         const char *key, const char *env,
                         const char *help)
        : EnumTable<E, N>(values), fallback(fallback), key(key),
          env(env), help(help)
    {}

    E fallback;       ///< value when nothing chooses one
    const char *key;  ///< reproducer key; the CLI flag is "--" + key
    const char *env;  ///< environment override of @ref fallback
    const char *help; ///< what the axis selects, for usage text

    /**
     * @ref fallback, overridden by a nonempty @ref env (how the CI
     * matrix reruns the unit tier per value); an unknown value is
     * fatal, naming the variable and the valid names.
     */
    E
    fromEnv() const
    {
        E v = fallback;
        const char *s = std::getenv(env);
        if (s && *s && !this->parse(s, v))
            fatal("%s=%s: unknown %s (expected %s)", env, s, key,
                  this->names().c_str());
        return v;
    }
};

/**
 * Parse all of @p s as a base-10 number that fits in unsigned @p T.
 * @retval false on empty input, a sign, whitespace, trailing
 * characters or overflow (@p out kept)
 */
template <typename T>
bool
parseUnsigned(std::string_view s, T &out)
{
    static_assert(std::is_unsigned_v<T>);
    T v{};
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

} // namespace cenju

#endif // CENJU_SIM_PARSE_HH
