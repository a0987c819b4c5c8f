/**
 * @file
 * Pure measurement helpers of the benchmark: sample summaries, the
 * open-loop due-time accounting, backlog detection and the load
 * ladder's max_rps selection.  Everything here is deterministic and
 * free of clocks, so the self-test can pin it exactly.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench
{

/** Samples beyond the reported high percentile: never a lone outlier. */
constexpr std::size_t kTailSamples = 10;

/** A ladder rung's limit on its latency p99 and its generator lateness. */
constexpr double kP99LimitUs = 1000.0;

/** Largest share of a ladder rung's requests that may fail. */
constexpr double kMaxFailedFraction = 0.01;

/** Outstanding requests a backlog must grow by to count as growing. */
constexpr double kBacklogSlack = 4.0;

/** A timing summary: median, high percentile and sample count. */
struct Summary
{
    std::size_t count = 0;
    double median = 0.0;
    /**
     * The highest percentile with at least kTailSamples samples
     * beyond it; the maximum when there are too few samples
     * (tailCovered == false).
     */
    double high = 0.0;
    /** Quantile level of `high`, in (0, 1]. */
    double highLevel = 0.0;
    bool tailCovered = false;
};

/**
 * Summarize `samples` (any order; +infinity allowed and sorts last).
 * Median of an even count is the mean of the two middle samples.
 */
Summary summarize(std::vector<double> samples);

/** Nearest-rank quantile of `samples`, q in [0, 1]. */
double quantile(std::vector<double> samples, double q);

/** Median of `samples` (0 for none). */
double median(std::vector<double> samples);

/** One open-loop request, all times in microseconds on one clock. */
struct RequestTiming
{
    double dueUs = 0.0;  ///< when the schedule said to send it
    double sentUs = 0.0; ///< when the generator actually sent it
    double doneUs = 0.0; ///< when the response arrived
    bool ok = false;     ///< answered (shed and failed are not ok)
};

/** What one open-loop step measured. */
struct StepOutcome
{
    std::size_t requests = 0;
    std::size_t failed = 0;
    /** Latency from each request's due time; failures count as +inf. */
    Summary latency;
    /** How late the generator sent each request. */
    Summary lateness;
    /** The 99th percentiles (nearest rank) of the two. */
    double latencyP99Us = 0.0;
    double latenessP99Us = 0.0;
};

/**
 * Account a step's requests from their due times: a request waiting
 * behind a generator stall is charged the stall, and a shed or failed
 * request counts as above any latency limit.
 */
StepOutcome accountStep(const std::vector<RequestTiming> &requests);

/**
 * True when the outstanding-request samples of one step (taken in
 * arrival order) end clearly higher than they start: the mean of the
 * last quarter exceeds the mean of the first quarter by more than
 * kBacklogSlack requests and by more than half.
 */
bool backlogGrows(const std::vector<double> &outstanding);

/** One rung of the load ladder. */
struct LadderStep
{
    double rateRps = 0.0;
    std::size_t requests = 0;
    std::size_t failed = 0;
    double p99Us = std::numeric_limits<double>::infinity();
    double lateP99Us = std::numeric_limits<double>::infinity();
    bool backlogGrew = false;
};

/**
 * A rung passes when its p99 and its generator lateness both stay
 * within kP99LimitUs, at most kMaxFailedFraction of its requests
 * failed, and its backlog did not grow.
 */
bool stepPasses(const LadderStep &step);

/** Highest passing rate of the ladder; 0 when no rung passes. */
double maxSustainedRps(const std::vector<LadderStep> &ladder);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
