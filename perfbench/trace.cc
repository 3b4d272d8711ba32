#include "perfbench/trace.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace
{

std::atomic<bool> countingOn{false};
std::atomic<std::uint64_t> allocs{0};

void *
countedAlloc(std::size_t n)
{
    if (countingOn.load(std::memory_order_relaxed))
        allocs.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
        if (void *p = std::malloc(n ? n : 1))
            return p;
        std::new_handler h = std::get_new_handler();
        if (!h)
            throw std::bad_alloc();
        h();
    }
}

} // namespace

// Replacing the two plain forms is enough: the nothrow and sized
// forms of libstdc++ forward to them. Aligned allocation keeps its
// own (uncounted) pair; the simulator does not use over-aligned
// types on its hot paths.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace perfbench
{

void
setAllocCounting(bool on)
{
    countingOn.store(on, std::memory_order_relaxed);
}

std::uint64_t
allocCount()
{
    return allocs.load(std::memory_order_relaxed);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::uint64_t
cpuNowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::uint64_t(ts.tv_sec) * 1000000000u +
           std::uint64_t(ts.tv_nsec);
}

std::uint64_t
wallNowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

SpanRecorder::Id
SpanRecorder::begin(const char *name, Id parent)
{
    if (!_enabled)
        return 0;
    std::uint64_t t = cpuNowNs();
    _spans.push_back(Span{name, parent, Clock::Host, t, t});
    return Id(_spans.size());
}

void
SpanRecorder::end(Id id)
{
    if (id != 0)
        _spans[id - 1].end = cpuNowNs();
}

void
SpanRecorder::sim(const char *name, Id parent, std::uint64_t start,
                  std::uint64_t end)
{
    if (_enabled)
        _spans.push_back(Span{name, parent, Clock::Sim, start, end});
}

std::vector<std::uint64_t>
SpanRecorder::durations(const char *name) const
{
    std::vector<std::uint64_t> out;
    for (const Span &s : _spans) {
        if (std::strcmp(s.name, name) == 0)
            out.push_back(s.end - s.start);
    }
    return out;
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"parent\":%u,"
                     "\"clock\":\"%s\",\"start_ns\":%llu,"
                     "\"end_ns\":%llu}%s\n",
                     i + 1, s.name, s.parent,
                     s.clock == Clock::Host ? "host_cpu" : "sim",
                     (unsigned long long)s.start,
                     (unsigned long long)s.end,
                     i + 1 < _spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

std::uint64_t
percentile(std::vector<std::uint64_t> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = std::size_t(std::ceil(p / 100.0 * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

} // namespace perfbench
