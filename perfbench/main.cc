/**
 * @file
 * The repository benchmark's command-line program.
 *
 *   perfbench --workload <grizzly|node_read|node_write_monitored|advisor>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * Builds the workload's inputs from the seed, runs it against the
 * libraries' public APIs, checks the outputs, and prints the metrics
 * as text followed by one JSON line: the end-to-end metrics when
 * untraced, the per-layer metrics when traced.  Exit code 0 only when
 * every output check passed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "stats.hh"
#include "workloads.hh"

namespace perfbench
{

std::vector<double>
repeatFor(double budget_seconds, const std::function<void()> &rep)
{
    std::vector<double> seconds;
    const double start = nowSeconds();
    double spent = 0.0;
    do {
        const double t0 = nowSeconds();
        rep();
        seconds.push_back(nowSeconds() - t0);
        spent = nowSeconds() - start;
    } while (spent + spent / static_cast<double>(seconds.size()) <=
             budget_seconds);
    return seconds;
}

void
runConcurrently(std::size_t n, const std::function<void(std::size_t)> &body)
{
    std::vector<std::exception_ptr> errors(n);
    {
        std::vector<std::jthread> threads;
        for (std::size_t i = 0; i < n; ++i)
            threads.emplace_back([&, i] {
                try {
                    body(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

double
medianSetupSeconds(const std::function<void(std::size_t)> &step)
{
    std::vector<std::vector<double>> seconds(kSetupLanes);
    runConcurrently(kSetupLanes, [&](std::size_t lane) {
        const double start = nowSeconds();
        while (seconds[lane].size() < kSetupMinReps ||
               nowSeconds() - start < kSetupMinSeconds) {
            const double t0 = nowSeconds();
            step(lane);
            seconds[lane].push_back(nowSeconds() - t0);
        }
    });
    std::vector<double> all;
    for (const std::vector<double> &lane : seconds)
        all.insert(all.end(), lane.begin(), lane.end());
    const Summary s = summarize(all);
    std::printf("setup: %zu repetitions on %zu threads, median %.4f s, "
                "p%.1f %.4f s\n",
                s.count, kSetupLanes, s.median, s.highLevel * 100.0, s.high);
    return s.median;
}

} // namespace perfbench

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<grizzly|node_read|node_write_monitored|advisor> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value, &end);
            if (!(options.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            options.trace = std::strcmp(value, "1") == 0;
            if (!options.trace && std::strcmp(value, "0") != 0)
                usage("--trace takes 0 or 1");
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            usage(("bad number for " + flag).c_str());
    }

    void (*run)(const Options &, Report &) = nullptr;
    if (options.workload == "grizzly")
        run = runGrizzly;
    else if (options.workload == "node_read")
        run = runNodeRead;
    else if (options.workload == "node_write_monitored")
        run = runNodeWriteMonitored;
    else if (options.workload == "advisor")
        run = runAdvisor;
    else
        usage("unknown workload");

    try {
        // Every run prints the host calibration, traced or not.
        const double calib = hostCalibrationNs();
        std::printf("host.calib_ns=%.0f\n", calib);
        std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
                    options.workload.c_str(),
                    static_cast<unsigned long long>(options.seed),
                    options.seconds, options.trace ? 1 : 0);
        Report report;
        run(options, report);
        if (options.trace)
            report.add("host.calib_ns", calib);
        report.print(options.trace);
        return report.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
