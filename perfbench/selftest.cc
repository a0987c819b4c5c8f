/**
 * @file
 * Self-test of the benchmark's measurement helpers: the percentile
 * summary, the open-loop due-time accounting, backlog detection and
 * the ladder's max_rps selection.  Prints each failed expectation and
 * exits non-zero if any failed.
 *
 *   .bench_build/perfbench_selftest
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.hh"

namespace
{

using namespace perfbench;

int g_failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        ++g_failures;
        std::printf("FAIL: %s\n", what);
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::vector<double>
ramp(std::size_t n)
{
    // n..1, deliberately unsorted.
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i)
        v.push_back(static_cast<double>(i));
    return v;
}

void
testSummary()
{
    const Summary s100 = summarize(ramp(100));
    expect(s100.count == 100, "summary reports the sample count");
    expect(near(s100.median, 50.5), "even count: median of the middle two");
    // 10 samples (91..100) lie beyond 90, and none beyond 91 suffice.
    expect(near(s100.high, 90.0), "high percentile leaves 10 beyond it");
    expect(near(s100.highLevel, 0.90), "high percentile level is p90");
    expect(s100.tailCovered, "100 samples cover the tail");

    const Summary s1000 = summarize(ramp(1000));
    expect(near(s1000.high, 990.0) && near(s1000.highLevel, 0.99),
           "1000 samples: the high percentile is p99");

    const Summary s11 = summarize(ramp(11));
    expect(near(s11.median, 6.0), "odd count: the middle sample");
    expect(near(s11.high, 1.0) && s11.tailCovered,
           "11 samples: the minimum has 10 beyond it");

    const Summary s5 = summarize(ramp(5));
    expect(!s5.tailCovered && near(s5.high, 5.0) && s5.count == 5,
           "too few samples: report the maximum, flagged uncovered");

    const Summary none = summarize({});
    expect(none.count == 0 && none.median == 0.0, "empty summary is zero");

    std::vector<double> with_inf = ramp(20);
    with_inf.push_back(std::numeric_limits<double>::infinity());
    expect(std::isinf(quantile(with_inf, 1.0)) &&
               near(quantile(with_inf, 0.5), 11.0),
           "infinite samples sort last");
    expect(near(quantile(ramp(100), 0.99), 99.0), "nearest-rank p99");
}

void
testDueTimeAccounting()
{
    // A generator that stalls 5 ms before request 5: requests 5..9 are
    // sent late, and each is charged the wait since its due time even
    // though the service answers in 10 us.
    std::vector<RequestTiming> requests;
    for (int i = 0; i < 10; ++i) {
        RequestTiming r;
        r.dueUs = 1000.0 * i;
        r.sentUs = i < 5 ? r.dueUs : 5000.0 + 1000.0 * i;
        r.doneUs = r.sentUs + 10.0;
        r.ok = true;
        requests.push_back(r);
    }
    const StepOutcome o = accountStep(requests);
    expect(o.requests == 10 && o.failed == 0, "step counts requests");
    expect(near(o.latency.high, 5010.0),
           "latency is timed from the due time, not the send time");
    expect(near(o.lateness.high, 5000.0), "lateness is send minus due");
    expect(near(o.latency.median, 2510.0), "median of the due-time latency");

    requests[3].ok = false;
    const StepOutcome f = accountStep(requests);
    expect(f.failed == 1 && std::isinf(f.latencyP99Us),
           "a failed request counts as above any limit");

    RequestTiming early;
    early.dueUs = 100.0;
    early.sentUs = 90.0;
    early.doneUs = 120.0;
    early.ok = true;
    const StepOutcome e = accountStep({early});
    expect(near(e.lateness.median, 0.0) && near(e.latency.median, 20.0),
           "an early send is not negative lateness");
}

void
testBacklog()
{
    expect(!backlogGrows(std::vector<double>(100, 3.0)),
           "a flat backlog does not grow");
    std::vector<double> rising;
    for (int i = 0; i < 100; ++i)
        rising.push_back(i);
    expect(backlogGrows(rising), "a rising backlog grows");
    std::vector<double> jitter;
    for (int i = 0; i < 100; ++i)
        jitter.push_back(i % 2 ? 1.0 : 4.0);
    expect(!backlogGrows(jitter), "jitter within the slack is flat");
    expect(!backlogGrows({1.0, 50.0}), "too few samples never grow");
}

void
testLadder()
{
    auto rung = [](double rate, std::size_t failed, double p99,
                   double late, bool grew) {
        LadderStep s;
        s.rateRps = rate;
        s.requests = 1000;
        s.failed = failed;
        s.p99Us = p99;
        s.lateP99Us = late;
        s.backlogGrew = grew;
        return s;
    };
    expect(stepPasses(rung(1000, 10, 999, 5, false)),
           "a rung at the limits passes");
    expect(!stepPasses(rung(1000, 11, 100, 5, false)),
           "more than 1 % failed fails the rung");
    expect(!stepPasses(rung(1000, 0, 1001, 5, false)),
           "p99 above the limit fails the rung");
    expect(!stepPasses(rung(1000, 0, 100, 1500, false)),
           "a late generator fails the rung");
    expect(!stepPasses(rung(1000, 0, 100, 5, true)),
           "a growing backlog fails the rung");
    LadderStep empty;
    expect(!stepPasses(empty), "a rung with no requests fails");

    const std::vector<LadderStep> ladder = {
        rung(1000, 0, 100, 5, false), rung(2000, 0, 200, 5, false),
        rung(4000, 0, 300, 5, true),  rung(8000, 0, 400, 5, false),
        rung(16000, 500, 9e9, 5, false)};
    expect(near(maxSustainedRps(ladder), 8000.0),
           "max_rps is the highest passing rung; failing rungs stay in "
           "the record");
    expect(maxSustainedRps({rung(1000, 0, 5000, 5, false)}) == 0.0,
           "no passing rung gives 0");
}

} // namespace

int
main()
{
    testSummary();
    testDueTimeAccounting();
    testBacklog();
    testLadder();
    if (g_failures == 0)
        std::printf("perfbench_selftest: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
