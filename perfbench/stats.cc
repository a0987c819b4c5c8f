#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.count = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    s.median = n % 2 == 1
                   ? samples[n / 2]
                   : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    if (n > kTailSamples) {
        // samples[k + 1 .. n - 1] are the kTailSamples beyond it.
        const std::size_t k = n - 1 - kTailSamples;
        s.high = samples[k];
        s.highLevel = static_cast<double>(k + 1) / static_cast<double>(n);
        s.tailCovered = true;
    } else {
        s.high = samples.back();
        s.highLevel = 1.0;
    }
    return s;
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(index, samples.size() - 1)];
}

double
median(std::vector<double> samples)
{
    return summarize(std::move(samples)).median;
}

StepOutcome
accountStep(const std::vector<RequestTiming> &requests)
{
    StepOutcome out;
    out.requests = requests.size();
    std::vector<double> latency, lateness;
    latency.reserve(requests.size());
    lateness.reserve(requests.size());
    for (const RequestTiming &r : requests) {
        lateness.push_back(std::max(0.0, r.sentUs - r.dueUs));
        if (r.ok) {
            latency.push_back(r.doneUs - r.dueUs);
        } else {
            ++out.failed;
            latency.push_back(std::numeric_limits<double>::infinity());
        }
    }
    out.latencyP99Us = quantile(latency, 0.99);
    out.latenessP99Us = quantile(lateness, 0.99);
    out.latency = summarize(std::move(latency));
    out.lateness = summarize(std::move(lateness));
    return out;
}

bool
backlogGrows(const std::vector<double> &outstanding)
{
    const std::size_t quarter = outstanding.size() / 4;
    if (quarter == 0)
        return false;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < quarter; ++i) {
        first += outstanding[i];
        last += outstanding[outstanding.size() - 1 - i];
    }
    first /= static_cast<double>(quarter);
    last /= static_cast<double>(quarter);
    return last > first + kBacklogSlack && last > 1.5 * first;
}

bool
stepPasses(const LadderStep &step)
{
    if (step.requests == 0)
        return false;
    const double failed = static_cast<double>(step.failed) /
                          static_cast<double>(step.requests);
    return step.p99Us <= kP99LimitUs && step.lateP99Us <= kP99LimitUs &&
           failed <= kMaxFailedFraction && !step.backlogGrew;
}

double
maxSustainedRps(const std::vector<LadderStep> &ladder)
{
    double best = 0.0;
    for (const LadderStep &step : ladder)
        if (stepPasses(step))
            best = std::max(best, step.rateRps);
    return best;
}

} // namespace perfbench
