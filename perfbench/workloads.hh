/**
 * @file
 * The benchmark's workloads.  Each one builds its inputs from the
 * workload seed, sets up (timed as setup_s), runs its timed section
 * untraced until the time budget is spent, checks the program's
 * outputs, and - in a traced run - repeats the timed section with
 * spans around every layer call and replays its own inputs through
 * the layers in isolation.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "report.hh"

namespace perfbench
{

void runGrizzly(const Options &options, Report &report);
void runNodeRead(const Options &options, Report &report);
void runNodeWriteMonitored(const Options &options, Report &report);
void runAdvisor(const Options &options, Report &report);

/**
 * Repeat `rep` until `budget_seconds` is spent: at least one
 * repetition, and another only while it is expected to finish within
 * the budget.  Returns each repetition's wall seconds.
 */
std::vector<double> repeatFor(double budget_seconds,
                              const std::function<void()> &rep);

/**
 * Call body(0) .. body(n - 1) on n threads at once and join them; the
 * first exception a call throws is rethrown here after every thread
 * has ended.
 */
void runConcurrently(std::size_t n,
                     const std::function<void(std::size_t)> &body);

/** Set-ups medianSetupSeconds runs at once, one per thread. */
constexpr std::size_t kSetupLanes = 4;
/** Set-up repetitions each of its threads runs at least. */
constexpr std::size_t kSetupMinReps = 5;
/** Wall seconds each of its threads spends at least. */
constexpr double kSetupMinSeconds = 2.0;

/**
 * Run step(lane) for lane 0 .. kSetupLanes - 1 at once, each lane
 * repeating it at least kSetupMinReps times and for at least
 * kSetupMinSeconds, and return the median wall seconds over every
 * repetition - the set-up timing every workload reports as setup_s.
 * A single-threaded set-up timed alone moved with whichever core it
 * ran on; one per core at once measured far steadier on a shared
 * host.  Each lane must build only its own state; callers keep lane
 * 0's.
 */
double medianSetupSeconds(const std::function<void(std::size_t)> &step);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
