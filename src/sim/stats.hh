/**
 * @file
 * Lightweight statistics package: named counters and sample
 * statistics, grouped per component and renderable as text tables.
 *
 * Modelled loosely on gem5's stats but kept minimal: the benches in
 * bench/ consume these objects directly to print the paper's tables.
 */

#ifndef CENJU_SIM_STATS_HH
#define CENJU_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <ostream>
#include <string>
#include <utility>

namespace cenju
{

/** Monotonic event counter. */
class Counter
{
  public:
    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t n) { _value += n; return *this; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/** Running sample statistics (count / min / max / mean / stddev). */
class SampleStat
{
  public:
    void
    sample(double v)
    {
        ++_count;
        _sum += v;
        _sumSq += v * v;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    double
    mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }

    double
    stddev() const
    {
        if (_count < 2)
            return 0.0;
        double n = static_cast<double>(_count);
        double var = (_sumSq - _sum * _sum / n) / (n - 1);
        return var > 0 ? std::sqrt(var) : 0.0;
    }

    void
    reset()
    {
        _count = 0;
        _sum = _sumSq = 0.0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

    /** Merge another sample set into this one. */
    void
    merge(const SampleStat &o)
    {
        _count += o._count;
        _sum += o._sum;
        _sumSq += o._sumSq;
        _min = std::min(_min, o._min);
        _max = std::max(_max, o._max);
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * A named bag of statistics for one component, printable as
 * "group.name value" lines.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    Counter &counter(const std::string &name);
    SampleStat &sampleStat(const std::string &name);

    const std::string &name() const { return _name; }

    /** All counters, in registration order. */
    const std::deque<std::pair<std::string, Counter>> &
    counters() const
    {
        return _counters;
    }

    /** All sample statistics, in registration order. */
    const std::deque<std::pair<std::string, SampleStat>> &
    sampleStats() const
    {
        return _samples;
    }

    void print(std::ostream &os) const;
    void reset();

  private:
    // Deques, not vectors: references returned by counter() and
    // sampleStat() must stay valid as later statistics register.
    std::string _name;
    std::deque<std::pair<std::string, Counter>> _counters;
    std::deque<std::pair<std::string, SampleStat>> _samples;
};

} // namespace cenju

#endif // CENJU_SIM_STATS_HH
