/**
 * @file
 * Parallel sweep runner (docs/PERF.md).
 *
 * Sweeps are embarrassingly parallel: every stress seed and every
 * figure bench is an independent single-threaded simulation. This
 * tool fans them out over a thread pool and certifies determinism —
 * each stress run's FNV-1a digest is collected and compared against
 * a golden file, so a parallel sweep proves bit-identical behavior
 * with the sequential runs that recorded the goldens.
 *
 * Modes:
 *   sweeprunner stress --nodes N --seeds S [--jobs J]
 *                      [--golden FILE] [--out FILE]
 *       Run S seeds, print "seed digest" per line in seed order.
 *       With --golden, exit nonzero if any digest differs.
 *   sweeprunner bench  [--jobs J] [--quick] [--bindir DIR]
 *                      [--only NAME] [--out BENCH_figures.json]
 *       Run the figure/table bench binaries concurrently and
 *       record per bench its wall-clock seconds, its user+sys CPU
 *       seconds and its peak RSS (the child's rusage).
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fault/stress.hh"
#include "sim/thread_pool.hh"
#include "cli.hh"

using namespace cenju;
using namespace cenju::fault;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: sweeprunner stress [options]\n"
        "         --nodes N      system size (default 16)\n"
        "         --seeds S      seeds to sweep (default 50)\n"
        "         --seed-base B  first seed (default 1)\n"
        "         --budget N     per-run event budget\n"
        "%s%s%s"
        "         --jobs J       worker threads (default: cores)\n"
        "         --shards N     simulation shards per run\n"
        "                        (default 1; digests bit-identical\n"
        "                        across shard counts)\n"
        "         --golden FILE  compare digests against FILE\n"
        "         --out FILE     write digests to FILE\n"
        "       sweeprunner bench [options]\n"
        "         --jobs J       worker threads (default: cores)\n"
        "         --quick        CENJU_QUICK=1 scaled-down runs\n"
        "         --bindir DIR   bench binary dir (default bench)\n"
        "         --only NAME    run just one bench\n"
        "         --out FILE     write BENCH_figures.json\n",
        cli::axisHelp(transportAxis, "         ", 24).c_str(),
        cli::axisHelp(protocolAxis, "         ", 24).c_str(),
        cli::axisHelp(reliabilityAxis, "         ", 24).c_str());
    return 2;
}

struct SeedOutcome
{
    std::uint64_t seed = 0;
    std::uint64_t digest = 0;
    std::uint64_t steps = 0;
    bool failed = true;
};

int
runStressMode(int argc, char **argv)
{
    unsigned nodes = 16;
    std::uint64_t seeds = 50, seedBase = 1;
    std::uint64_t budget = defaultEventBudget;
    unsigned jobs = 0;
    unsigned shards = 1;
    std::string goldenFile, outFile;

    StressOptions opts;

    cli::OptionParser args(argc, argv, 0);
    while (args.next()) {
        if (args.is("--nodes"))
            nodes = args.u32();
        else if (args.is("--seeds"))
            seeds = args.u64();
        else if (args.is("--seed-base"))
            seedBase = args.u64();
        else if (args.is("--budget"))
            budget = args.u64();
        else if (args.is("--transport"))
            opts.transport = cli::enumValue(args, transportAxis);
        else if (args.is("--protocol"))
            opts.protocol = cli::enumValue(args, protocolAxis);
        else if (args.is("--reliability"))
            opts.reliability = cli::enumValue(args, reliabilityAxis);
        else if (args.is("--jobs"))
            jobs = args.u32();
        else if (args.is("--shards"))
            shards = args.u32();
        else if (args.is("--golden"))
            goldenFile = args.value();
        else if (args.is("--out"))
            outFile = args.value();
        else
            return usage();
    }

    opts.nodes = nodes;
    shards = cli::clampShards(shards, opts.transport, opts.reliability);
    jobs = cli::clampJobs(jobs, shards);

    std::vector<SeedOutcome> results(seeds);
    ThreadPool pool(jobs);
    std::printf("sweeping %llu seeds from %llu: nodes=%u jobs=%u "
                "shards=%u\n",
                (unsigned long long)seeds,
                (unsigned long long)seedBase, nodes,
                pool.threadCount(), shards);

    for (std::uint64_t k = 0; k < seeds; ++k) {
        pool.submit([k, seedBase, budget, shards, &opts, &results] {
            std::uint64_t seed = seedBase + k;
            StressCase c = makeStressCase(seed, opts);
            StressResult r = runStressCase(c, budget, shards);
            results[k] = {seed, r.digest, r.steps, r.failed()};
        });
    }
    pool.wait();

    unsigned failures = 0;
    for (const SeedOutcome &o : results) {
        std::printf("%llu %016llx\n", (unsigned long long)o.seed,
                    (unsigned long long)o.digest);
        if (o.failed)
            ++failures;
    }
    if (failures) {
        std::fprintf(stderr, "%u/%llu seeds FAILED\n", failures,
                     (unsigned long long)seeds);
        return 1;
    }

    if (!outFile.empty()) {
        std::ofstream out(outFile);
        for (const SeedOutcome &o : results) {
            char line[64];
            std::snprintf(line, sizeof(line), "%llu %016llx\n",
                          (unsigned long long)o.seed,
                          (unsigned long long)o.digest);
            out << line;
        }
    }

    if (!goldenFile.empty()) {
        std::ifstream in(goldenFile);
        if (!in) {
            std::fprintf(stderr, "cannot open golden file %s\n",
                         goldenFile.c_str());
            return 1;
        }
        std::map<std::uint64_t, std::uint64_t> golden;
        std::uint64_t s;
        std::string d;
        while (in >> s >> d)
            golden[s] = std::strtoull(d.c_str(), nullptr, 16);
        unsigned mismatches = 0, checked = 0;
        for (const SeedOutcome &o : results) {
            auto it = golden.find(o.seed);
            if (it == golden.end())
                continue;
            ++checked;
            if (it->second != o.digest) {
                std::fprintf(stderr,
                             "seed %llu: digest %016llx != "
                             "golden %016llx\n",
                             (unsigned long long)o.seed,
                             (unsigned long long)o.digest,
                             (unsigned long long)it->second);
                ++mismatches;
            }
        }
        std::printf("golden check: %u/%u digests match\n",
                    checked - mismatches, checked);
        if (mismatches || checked == 0)
            return 1;
    }
    return 0;
}

struct BenchOutcome
{
    std::string name;
    double seconds = 0;
    double cpuSeconds = 0; ///< user + sys
    double peakRssMb = 0;
    int exitCode = -1; ///< exit status, 128 + signal, or -1
};

double
toSeconds(const timeval &tv)
{
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

/**
 * Run @p path with output discarded and CENJU_QUICK=1 added to the
 * environment when @p quick; fill @p r from its exit and rusage.
 */
void
spawnBench(const std::string &path, bool quick, BenchOutcome &r)
{
    std::vector<std::string> env;
    for (char **e = environ; *e; ++e)
        env.emplace_back(*e);
    if (quick)
        env.emplace_back("CENJU_QUICK=1");
    std::vector<char *> envp;
    for (std::string &e : env)
        envp.push_back(e.data());
    envp.push_back(nullptr);
    char *argv[] = {const_cast<char *>(path.c_str()), nullptr};

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY,
                                     0);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    auto t0 = std::chrono::steady_clock::now();
    pid_t pid;
    int err = posix_spawn(&pid, path.c_str(), &fa, nullptr, argv,
                          envp.data());
    posix_spawn_file_actions_destroy(&fa);
    if (err != 0) {
        std::fprintf(stderr, "cannot run %s: %s\n", path.c_str(),
                     std::strerror(err));
        return;
    }
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            return;
    }
    r.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    r.cpuSeconds = toSeconds(ru.ru_utime) + toSeconds(ru.ru_stime);
    r.peakRssMb = double(ru.ru_maxrss) / 1024.0; // KiB on Linux
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status)
                                   : 128 + WTERMSIG(status);
}

int
runBenchMode(int argc, char **argv)
{
    unsigned jobs = 0;
    bool quick = false;
    std::string bindir = "bench", only, outFile;

    cli::OptionParser args(argc, argv, 0);
    while (args.next()) {
        if (args.is("--jobs"))
            jobs = args.u32();
        else if (args.is("--quick"))
            quick = true;
        else if (args.is("--bindir"))
            bindir = args.value();
        else if (args.is("--only"))
            only = args.value();
        else if (args.is("--out"))
            outFile = args.value();
        else
            return usage();
    }

    static const char *const benches[] = {
        "fig4_directory_precision", "fig6_starvation",
        "fig10_store_latency",      "fig11a_rewriting_ratio",
        "fig11b_efficiency",        "fig12_speedup",
        "table1_directory_schemes", "table2_load_latency",
        "table3_cache_miss",        "table4_app_characteristics",
        "micro_components",
    };

    std::vector<BenchOutcome> results;
    for (const char *b : benches) {
        if (!only.empty() && only != b)
            continue;
        results.push_back({b});
    }
    if (results.empty()) {
        std::fprintf(stderr, "no bench matches --only %s\n",
                     only.c_str());
        return 2;
    }

    ThreadPool pool(jobs);
    std::printf("running %zu benches, jobs=%u quick=%d\n",
                results.size(), pool.threadCount(), (int)quick);
    std::mutex printMu;
    for (BenchOutcome &r : results) {
        pool.submit([&r, &bindir, quick, &printMu] {
            spawnBench(bindir + "/" + r.name, quick, r);
            std::lock_guard<std::mutex> lk(printMu);
            std::printf("%-28s %8.3fs cpu %8.3fs rss %7.1f MB rc=%d\n",
                        r.name.c_str(), r.seconds, r.cpuSeconds,
                        r.peakRssMb, r.exitCode);
            std::fflush(stdout);
        });
    }
    pool.wait();

    double total = 0;
    int bad = 0;
    for (const BenchOutcome &r : results) {
        total += r.cpuSeconds;
        if (r.exitCode != 0)
            ++bad;
    }
    std::printf("total bench cpu-seconds: %.3f\n", total);

    if (!outFile.empty()) {
        std::ofstream out(outFile);
        out << "{\n  \"schema\": \"cenju-figures-bench-2\",\n"
            << "  \"quick\": " << (quick ? "true" : "false")
            << ",\n  \"results\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const BenchOutcome &r = results[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "    {\"name\": \"%s\", \"seconds\": "
                          "%.4f, \"cpu_s\": %.4f, \"peak_rss_mb\": "
                          "%.1f, \"exit\": %d}%s\n",
                          r.name.c_str(), r.seconds, r.cpuSeconds,
                          r.peakRssMb, r.exitCode,
                          i + 1 < results.size() ? "," : "");
            out << buf;
        }
        out << "  ]\n}\n";
    }
    return bad ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string mode = argv[1];
    if (mode == "stress")
        return runStressMode(argc - 2, argv + 2);
    if (mode == "bench")
        return runBenchMode(argc - 2, argv + 2);
    return usage();
}
