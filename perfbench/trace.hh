/**
 * @file
 * Outside-in tracing harness for the benchmark sampler: a counting
 * global operator new, peak RSS from getrusage, and an in-memory
 * span recorder written out as JSON when the run ends.
 *
 * Everything here observes the simulator through the calls the
 * sampler itself makes; nothing under src/ is instrumented. Counting
 * and span recording are off unless the sampler runs traced, so the
 * untraced run that reports the end-to-end metrics pays only for a
 * branch per allocation.
 */

#ifndef CENJU_PERFBENCH_TRACE_HH
#define CENJU_PERFBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Turn allocation counting on or off (off at start-up). */
void setAllocCounting(bool on);

/** Calls to the global operator new while counting was on. */
std::uint64_t allocCount();

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/**
 * CPU time this process has used, in ns. The sampler is one thread
 * that never blocks, so this is its wall-clock time minus the time
 * the host took the CPU away from it. On a shared virtual machine
 * that stolen time alone moved samples by up to 20%, so every host
 * time the benchmark gates uses this clock.
 */
std::uint64_t cpuNowNs();

/** Host monotonic wall clock in ns (reported, never gated). */
std::uint64_t wallNowNs();

/**
 * Spans with a name, a start, an end and the span that caused them.
 * Host spans time calls into the simulator on the process CPU clock
 * (cpuNowNs); sim spans record one simulated access from issue to
 * callback in simulated nanoseconds. Id 0 means "no span" (no
 * parent, or the recorder is disabled).
 */
class SpanRecorder
{
  public:
    using Id = std::uint32_t;

    enum class Clock : std::uint8_t
    {
        Host,
        Sim,
    };

    struct Span
    {
        const char *name;
        Id parent;
        Clock clock;
        std::uint64_t start;
        std::uint64_t end;
    };

    explicit SpanRecorder(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /** Open a host-clock span; close it with end(). */
    Id begin(const char *name, Id parent);
    void end(Id id);

    /** Record a completed simulated-time span. */
    void sim(const char *name, Id parent, std::uint64_t start,
             std::uint64_t end);

    /** Durations of every span called @p name, in its own clock. */
    std::vector<std::uint64_t> durations(const char *name) const;

    /** Write all spans as a JSON array; false on an I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    bool _enabled;
    std::vector<Span> _spans;
};

/** Nearest-rank percentile @p p (0..100) of @p v (0 when empty). */
std::uint64_t percentile(std::vector<std::uint64_t> v, double p);

} // namespace perfbench

#endif // CENJU_PERFBENCH_TRACE_HH
