/**
 * @file
 * Workload `grizzly`: the default Grizzly-like trace (58 K jobs, 1490
 * nodes, ~78 % offered load) replayed in the two Fig. 17 legs -
 * conventional with the margin-unaware scheduler, and Hetero-DMR with
 * the margin-aware scheduler under fig17's speedup table.  Each leg
 * stops once at mid-span, its snapshot is restored into a fresh
 * simulator, and the run finishes with resume().  kCopies threads
 * per leg replay it concurrently.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sched/cluster_sim.hh"
#include "stats.hh"
#include "traces/job_trace.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace hdmr;

/** The paper's Fig. 17 turnaround speedup. */
constexpr double kPaperTurnaroundSpeedup = 1.4;

/** Seed of the default Grizzly trace (the one fig17 replays). */
constexpr std::uint64_t kDefaultTraceSeed = 42;

/** Largest shift of one submit time, seconds (+/-). */
constexpr double kSubmitJitterSeconds = 600.0;

/**
 * The default Grizzly trace with every submit time shifted by a
 * seeded uniform jitter.  Each workload seed gives its own arrival
 * order while the load profile - which weeks are congested - stays
 * the default trace's, so the replay cost measures the scheduler
 * rather than the luck of one trace realization.
 */
std::vector<traces::Job>
jitteredDefaultTrace(const traces::JobTraceModel &model,
                     std::uint64_t seed)
{
    std::vector<traces::Job> jobs =
        traces::GrizzlyTraceGenerator(model, kDefaultTraceSeed).generate();
    util::Rng rng(seed);
    for (traces::Job &job : jobs)
        job.submitSeconds = std::max(
            0.0, job.submitSeconds + rng.uniform(-kSubmitJitterSeconds,
                                                 kSubmitJitterSeconds));
    std::sort(jobs.begin(), jobs.end(),
              [](const traces::Job &a, const traces::Job &b) {
                  return a.submitSeconds < b.submitSeconds ||
                         (a.submitSeconds == b.submitSeconds &&
                          a.id < b.id);
              });
    return jobs;
}

/** Threads (lanes) replaying each leg concurrently. */
constexpr std::size_t kCopies = 2;

struct Leg
{
    const char *name;
    sched::ClusterConfig config;
};

std::array<Leg, 2>
fig17Legs()
{
    // fig17's node-level speedup table (Fig. 12, <50 % usage bucket).
    sched::SpeedupTable speedups;
    speedups.at800 = 1.13;
    speedups.at600 = 1.10;
    std::array<Leg, 2> legs{Leg{"conventional", {}},
                            Leg{"hetero-dmr", {}}};
    legs[0].config.heteroDmr = false;
    legs[0].config.marginAware = false;
    legs[1].config.heteroDmr = true;
    legs[1].config.marginAware = true;
    for (Leg &leg : legs)
        leg.config.speedups = speedups;
    return legs;
}

/** One leg replayed through a mid-span stop, restore and resume. */
struct LegReplay
{
    bool stoppedAtMidSpan = false;
    bool restored = false;
    std::size_t stateBytes = 0;
    sched::RunOutcome outcome;
};

LegReplay
replayLeg(const Leg &leg, const std::vector<traces::Job> &jobs,
          double stop_at, Tracer *tracer)
{
    LegReplay r;
    std::vector<std::uint8_t> image;
    {
        sched::ClusterSimulator first(leg.config);
        sched::RunOptions stop;
        stop.stopAfterSeconds = stop_at;
        stop.snapshotSink = [&image](const std::vector<std::uint8_t> &s) {
            image = s;
        };
        ScopedSpan span(tracer, "sched.run");
        const sched::RunOutcome partial = first.run(jobs, stop);
        r.stoppedAtMidSpan = !partial.completed && !image.empty();
    }
    r.stateBytes = image.size();
    sched::ClusterSimulator second(leg.config);
    {
        ScopedSpan span(tracer, "snapshot.restore");
        r.restored = second.restoreState(image, jobs).ok();
    }
    if (r.restored) {
        ScopedSpan span(tracer, "sched.resume");
        r.outcome = second.resume(sched::RunOptions{});
    }
    return r;
}

} // namespace

void
runGrizzly(const Options &options, Report &report)
{
    const traces::JobTraceModel model;
    std::vector<std::vector<traces::Job>> traces_by_lane(kSetupLanes);
    const double setup = medianSetupSeconds([&](std::size_t lane) {
        traces_by_lane[lane] = jitteredDefaultTrace(model, options.seed);
    });
    const std::vector<traces::Job> jobs = std::move(traces_by_lane[0]);
    traces_by_lane.clear();
    const std::array<Leg, 2> legs = fig17Legs();
    const double stop_at = 0.5 * model.spanSeconds;
    std::printf("grizzly: %zu jobs, %u nodes, stop at %.0f s\n",
                jobs.size(), model.systemNodes, stop_at);

    // kCopies lanes per leg, one thread each, replay their leg over and
    // over until the time budget is spent.  Keeping every core busy
    // measured far steadier on a shared host than one replay at a
    // time, and the lanes wait for no one: a lane on a slowed core
    // lowers the throughput by its own share instead of holding the
    // others at a barrier.
    const std::size_t lanes = legs.size() * kCopies;
    std::array<LegReplay, 2> first{};
    bool have_first = false;
    std::uint64_t replays_run = 0, replays_failed = 0;
    struct Timed
    {
        /** Jobs per second, each lane's at its median replay time. */
        double jobsPerSecond = 0.0;
        std::size_t replays = 0;
        std::uint64_t events = 0;
    };
    auto timed = [&](std::vector<Tracer> *tracers) {
        std::vector<std::vector<double>> seconds(lanes);
        std::vector<std::vector<LegReplay>> replays(lanes);
        runConcurrently(lanes, [&](std::size_t i) {
            Tracer *tracer = tracers ? &(*tracers)[i] : nullptr;
            seconds[i] = repeatFor(options.seconds, [&] {
                ScopedSpan span(tracer, "grizzly.replay");
                replays[i].push_back(replayLeg(legs[i % legs.size()], jobs,
                                               stop_at, tracer));
            });
        });
        if (!have_first) {
            first = {replays[0].front(), replays[1].front()};
            have_first = true;
        }
        Timed t;
        for (std::size_t i = 0; i < lanes; ++i) {
            const std::string leg = legs[i % legs.size()].name;
            for (const LegReplay &r : replays[i]) {
                bool ok = report.check(r.stoppedAtMidSpan,
                                       leg + ": stopped at mid-span");
                ok &= report.check(r.restored, leg + ": snapshot restored");
                ok &= report.check(
                    r.outcome.completed &&
                        r.outcome.metrics.jobsCompleted == jobs.size() &&
                        r.outcome.metrics.jobsDropped == 0,
                    leg + ": every job completed, none dropped");
                ok &= report.check(
                    sched::metricsIdentical(
                        r.outcome.metrics,
                        first[i % legs.size()].outcome.metrics),
                    leg + ": every replay is identical");
                ++replays_run;
                replays_failed += ok ? 0 : 1;
                t.events += r.outcome.eventsProcessed;
            }
            const Summary lane = summarize(seconds[i]);
            std::printf("lane %zu (%s): %zu replays, median %.3f s, "
                        "p%.1f %.3f s\n",
                        i, leg.c_str(), lane.count, lane.median,
                        lane.highLevel * 100.0, lane.high);
            t.jobsPerSecond += static_cast<double>(jobs.size()) / lane.median;
            t.replays += lane.count;
        }
        return t;
    };

    const Timed untraced = timed(nullptr);
    // The timed section's peak, before the checks' own replays.
    const double peak_rss = peakRssMiB();
    report.count(replays_run, replays_failed);

    // Resumed runs must equal a straight-through replay of each leg.
    std::array<sched::RunOutcome, 2> whole;
    runConcurrently(legs.size(), [&](std::size_t i) {
        whole[i] = sched::ClusterSimulator(legs[i].config)
                       .run(jobs, sched::RunOptions{});
    });
    for (std::size_t i = 0; i < legs.size(); ++i) {
        const std::string leg = legs[i].name;
        report.check(sched::metricsIdentical(whole[i].metrics,
                                             first[i].outcome.metrics),
                     leg + ": resumed metrics equal a straight-through run");
        report.check(!snapshot::DigestTrail::firstDivergence(
                          whole[i].digests, first[i].outcome.digests),
                     leg + ": resumed digest trail equals straight-through");
    }
    const double conventional =
        first[0].outcome.metrics.meanTurnaroundSeconds;
    const double hdmr = first[1].outcome.metrics.meanTurnaroundSeconds;
    report.check(hdmr < conventional,
                 "Hetero-DMR turnaround below conventional");
    std::printf("turnaround: conventional %.0f s, hetero-dmr %.0f s "
                "(%.3fx; paper %.1fx)\n",
                conventional, hdmr, conventional / hdmr,
                kPaperTurnaroundSpeedup);

    if (!options.trace) {
        report.add("setup_s", setup);
        report.add("ops_per_s", untraced.jobsPerSecond);
        report.add("ok_frac", 1.0 - static_cast<double>(replays_failed) /
                                        static_cast<double>(replays_run));
        report.add("peak_rss_mb", peak_rss);
        return;
    }

    std::vector<Tracer> tracers(lanes);
    const Timed traced = timed(&tracers);
    double sched_s = 0.0, restore_s = 0.0, replay_s = 0.0;
    for (const Tracer &t : tracers) {
        sched_s += t.selfSeconds("sched.run") + t.selfSeconds("sched.resume");
        restore_s += t.selfSeconds("snapshot.restore");
        replay_s += t.totalSeconds("grizzly.replay");
    }
    std::uint64_t epochs = 0, state_bytes = 0;
    for (const LegReplay &r : first) {
        epochs += r.outcome.digests.digests.size();
        state_bytes += r.stateBytes;
    }
    // Per round: one replay on every lane.
    const double rounds =
        static_cast<double>(traced.replays) / static_cast<double>(lanes);
    report.add("trace_overhead_frac",
               untraced.jobsPerSecond / traced.jobsPerSecond - 1.0);
    report.add("traces.generate_s", setup);
    report.add("sched.run_s", sched_s / rounds);
    report.add("sched.timed_share", sched_s / replay_s);
    report.add("sched.events", static_cast<double>(traced.events) / rounds);
    report.add("sched.ns_per_event",
               sched_s * 1e9 / static_cast<double>(traced.events));
    report.add("sched.digest_epochs", static_cast<double>(epochs));
    report.add("snapshot.state_bytes", static_cast<double>(state_bytes));
    report.add("snapshot.restore_s", restore_s / rounds);

    // The fidelity number is the gap of the default trace itself -
    // the one fig17 replays - so it does not move with the seed.
    const std::vector<traces::Job> fig17_jobs =
        traces::GrizzlyTraceGenerator(model, kDefaultTraceSeed).generate();
    std::array<double, 2> fig17_turnaround{};
    runConcurrently(legs.size(), [&](std::size_t i) {
        fig17_turnaround[i] = sched::ClusterSimulator(legs[i].config)
                                  .run(fig17_jobs, sched::RunOptions{})
                                  .metrics.meanTurnaroundSeconds;
    });
    const double fig17_speedup = fig17_turnaround[0] / fig17_turnaround[1];
    std::printf("default trace turnaround speedup %.3fx (paper %.1fx)\n",
                fig17_speedup, kPaperTurnaroundSpeedup);
    report.add("paper_gap.turnaround",
               std::fabs(fig17_speedup / kPaperTurnaroundSpeedup - 1.0));
}

} // namespace perfbench
