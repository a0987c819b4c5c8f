/**
 * @file
 * Monitoring-overhead and adaptive-speedup evaluation of the
 * src/monitor subsystem (reported the way DAMON's eval.rst reports
 * its monitoring overhead and DAMOS gains).
 *
 * Three legs per workload shape, all on the Hetero-DMR node:
 *
 *  - baseline:  monitoring disabled (the static-threshold seed).
 *  - stat:      monitoring enabled, a stat-only scheme - pure
 *               observation, so the exec-time delta against baseline
 *               *is* the monitoring overhead the budget must bound.
 *  - adaptive:  monitoring plus the shipped phase-adaptive schemes
 *               (re-earn the deployment's static guard band while hot
 *               read-dominated phases hold, and defer discretionary
 *               write work out of those phases).
 *
 * Workload shapes: steady lulesh, and a phase-heavy lulesh whose
 * store share bursts periodically (checkpoint/output phases) - the
 * mix adaptive mode control exploits.
 *
 * Gates (--smoke, run by ctest as fig19_monitor_smoke):
 *   - stat-leg overhead <= 2 % on both workload shapes;
 *   - the sampler's self-reported overhead stays within its budget;
 *   - region count respects [1, maxRegions], splits/merges engage;
 *   - a tiny budget forces duty throttling (self-enforcement);
 *   - adaptive is no worse than baseline on the steady shape;
 *   - adaptive beats baseline on the phase-heavy shape;
 *   - the monitor digest trail is bit-identical across an in-run
 *     save/restore round trip, and a fresh sampler+engine restored
 *     from the image digests identically.
 *
 * Flags (unknown flags are fatal):
 *   --smoke                small deterministic run + the gates
 *   --telemetry-out=<dir>  export metrics (CSV + JSON) plus a
 *                          BENCH_fig19_monitor.json perf record
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hh"
#include "monitor/monitor.hh"
#include "monitor/scheme.hh"
#include "node/config.hh"
#include "node/node_system.hh"
#include "snapshot/serializer.hh"
#include "telemetry/bench_record.hh"
#include "telemetry/sinks.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace
{

using namespace hdmr;

enum class Leg
{
    kBaseline,
    kStat,
    kAdaptive,
};

const char *
legName(Leg leg)
{
    switch (leg) {
      case Leg::kBaseline: return "baseline";
      case Leg::kStat: return "stat";
      case Leg::kAdaptive: return "adaptive";
    }
    return "?";
}

/**
 * Monitoring parameters the bench runs with.  The aggregation
 * interval is deliberately shorter than a workload iteration
 * (~30 us) so some aggregation windows land inside the communication
 * phases - that is what the quiet-node scheme predicate keys on.
 */
monitor::MonitorConfig
benchMonitoring()
{
    monitor::MonitorConfig mon;
    mon.enabled = true;
    mon.samplingInterval = 2 * util::kTicksPerUs;
    mon.aggregationInterval = 5 * util::kTicksPerUs;
    mon.regionUpdateInterval = 15 * util::kTicksPerUs;
    mon.minRegions = 8;
    mon.maxRegions = 64;
    mon.overheadBudget = 0.02;
    mon.sampleCheckCost = 150;
    mon.initialDuty = 0.25;
    return mon;
}

node::NodeConfig
makeConfig(bool phase_heavy, Leg leg, bool smoke)
{
    node::NodeConfig config;
    config.hierarchy = node::HierarchyConfig::hierarchy1();
    config.workload = wl::benchmarkByName("lulesh");
    config.memOpsPerCore = smoke ? 24000 : 60000;
    // Hetero-DMR prefills an entirely clean LLC (a cleaning design
    // keeps no dirty backlog), and freshly dirtied lines need the LLC
    // sets to cycle before they reach eviction depth.  The long
    // functional warm-up carries the hierarchy to its dirty
    // steady-state so the measured window exercises the write path
    // the adaptive schemes act on.
    config.warmupOpsPerCore = 150000;
    config.memorySystem = node::MemorySystemKind::kHeteroDmr;
    config.seed = 7;
    // The deployment's static per-module thresholds hold two demotion
    // steps of guard band below the qualified 4000 MT/s (they must
    // stand for the worst phase ever profiled).  All three legs start
    // at the same banded operating point; only the adaptive leg's
    // earn_margin scheme can re-earn the band online.
    config.marginGuardBandMts = 400;

    if (phase_heavy) {
        // Periodic checkpoint/output behaviour: one fifth of each
        // period writes at 0.6 (the rest compensates so the long-run
        // store share stays at lulesh's 0.18), then every rank waits
        // out the checkpoint barrier.  The period is short enough
        // that every run sees several burst/wait cycles - each burst
        // is a forced write-mode entry the adaptive policy softens,
        // and the alternation stresses the monitor's phase tracking
        // (region ages reset, node-wide samples collapse and recover).
        config.workload.writeBurstPeriodOps = 7500;
        config.workload.writeBurstDuty = 0.2;
        config.workload.writeBurstFraction = 0.6;
        config.workload.checkpointWaitUs = 10.0;
    }

    if (leg != Leg::kBaseline) {
        config.monitoring = benchMonitoring();
        if (leg == Leg::kAdaptive) {
            util::checkOk(monitor::parseSchemeConfig(
                monitor::defaultPhaseAdaptiveSchemes(),
                &config.schemes));
        } else {
            monitor::Scheme stat;
            stat.name = "stat_all";
            stat.action = monitor::SchemeAction::kStat;
            config.schemes.schemes = {stat};
        }
    }
    return config;
}

/** Publishes per-leg metrics and totals for the perf record. */
struct Recorder
{
    telemetry::Registry registry;
    std::uint64_t simEvents = 0;
    double simSeconds = 0.0;

    node::NodeStats
    run(const node::NodeConfig &config, const std::string &metric)
    {
        const node::NodeStats stats = node::NodeSystem(config).run();
        simEvents += stats.memOps;
        simSeconds += stats.execSeconds;
        auto gauge = [&](const char *leaf, double value) {
            registry.gauge("fig19." + metric + "." + leaf).set(value);
        };
        gauge("exec_seconds", stats.execSeconds);
        gauge("write_mode_entries",
              static_cast<double>(stats.writeModeEntries));
        gauge("monitor_overhead_fraction",
              stats.monitorOverheadFraction);
        gauge("monitor_regions",
              static_cast<double>(stats.monitorRegions));
        gauge("scheme_fires", static_cast<double>(stats.schemeFires));
        return stats;
    }
};

/** One monitor digest-trail entry: sampler state x engine state. */
std::uint64_t
monitorDigest(node::NodeSystem &sys)
{
    return sys.regionSampler()->digest() ^
           (sys.schemeEngine()->digest() * 0x9e3779b97f4a7c15ULL);
}

/**
 * Run the adaptive phase-heavy node recording one digest per
 * aggregation.  When `roundtrip_at` is hit, the complete monitor
 * state (sampler + engine) is serialized and immediately restored
 * in-place - a correct round trip must not perturb a single
 * subsequent digest.  The serialized image is returned through
 * `image` for the fresh-object restore check.
 */
std::vector<std::uint64_t>
runDigestTrail(bool smoke, std::uint64_t roundtrip_at,
               std::vector<std::uint8_t> *image, bool *roundtrip_ok)
{
    node::NodeSystem sys(makeConfig(true, Leg::kAdaptive, smoke));
    monitor::RegionSampler *sampler = sys.regionSampler();
    monitor::SchemeEngine *engine = sys.schemeEngine();
    std::vector<std::uint64_t> trail;
    sampler->setAggregationObserver([&](std::uint64_t index) {
        if (index == roundtrip_at && roundtrip_at != 0) {
            snapshot::Serializer out;
            sampler->saveState(out);
            engine->saveState(out);
            if (image)
                *image = out.data();
            snapshot::Deserializer in(out.data());
            const bool ok = sampler->restoreState(in) &&
                            engine->restoreState(in) && in.ok() &&
                            in.remaining() == 0;
            if (roundtrip_ok)
                *roundtrip_ok = ok;
        }
        trail.push_back(monitorDigest(sys));
    });
    sys.run();
    return trail;
}

/**
 * The gates ctest's fig19_monitor_smoke enforces.  Returns the number
 * of failed checks (0 = pass) and prints a verdict per check.
 */
int
runChecks(bool smoke, Recorder &recorder)
{
    bench::Checks check;

    // ---- The six legs. ----
    std::printf("%-14s %-10s %12s %12s %10s %8s\n", "workload", "leg",
                "exec(us)", "wm-entries", "overhead", "fires");
    node::NodeStats stats[2][3];
    for (int shape = 0; shape < 2; ++shape) {
        for (const Leg leg :
             {Leg::kBaseline, Leg::kStat, Leg::kAdaptive}) {
            const std::string metric =
                std::string(shape ? "phase_heavy" : "steady") + "." +
                legName(leg);
            const node::NodeStats s =
                recorder.run(makeConfig(shape == 1, leg, smoke), metric);
            stats[shape][static_cast<int>(leg)] = s;
            std::printf("%-14s %-10s %12.2f %12llu %9.3f%% %8llu\n",
                        shape ? "phase-heavy" : "steady", legName(leg),
                        s.execSeconds * 1.0e6,
                        static_cast<unsigned long long>(
                            s.writeModeEntries),
                        s.monitorOverheadFraction * 100.0,
                        static_cast<unsigned long long>(s.schemeFires));
        }
    }

    // ---- Overhead gates (the DAMON eval.rst measurement). ----
    for (int shape = 0; shape < 2; ++shape) {
        const double base = stats[shape][0].execSeconds;
        const double stat = stats[shape][1].execSeconds;
        check(stat <= base * 1.02,
              shape ? "phase-heavy: stat-leg overhead <= 2%"
                    : "steady: stat-leg overhead <= 2%");
        check(stats[shape][1].monitorOverheadFraction <=
                  benchMonitoring().overheadBudget,
              shape ? "phase-heavy: self-reported overhead in budget"
                    : "steady: self-reported overhead in budget");
    }

    // ---- Region-model sanity. ----
    const node::NodeStats &adaptive = stats[1][2];
    check(adaptive.monitorRegions >= 1 &&
              adaptive.monitorRegions <= benchMonitoring().maxRegions,
          "region count within [1, maxRegions]");
    check(adaptive.monitorSplits > 0 && adaptive.monitorMerges > 0,
          "region split and merge both engaged");
    check(adaptive.monitorAggregations > 0 &&
              adaptive.monitorSamples > 0,
          "sampler observed and aggregated accesses");
    check(adaptive.schemeHits > 0 && adaptive.schemeFires > 0,
          "schemes matched and fired");

    // ---- Budget self-enforcement: a near-zero budget must throttle
    // the duty window instead of blowing through. ----
    {
        node::NodeConfig starved = makeConfig(false, Leg::kStat, true);
        starved.monitoring.overheadBudget = 1.0e-4;
        const node::NodeStats s =
            recorder.run(starved, "steady.starved");
        check(s.monitorThrottles > 0,
              "starved budget engages the duty throttle");
        check(s.monitorOverheadFraction <= 0.005,
              "starved budget keeps overhead near zero");
    }

    // ---- Adaptive vs static. ----
    check(stats[0][2].execSeconds <= stats[0][0].execSeconds * 1.005,
          "steady: adaptive no worse than static (<= +0.5%)");
    check(stats[1][2].execSeconds < stats[1][0].execSeconds,
          "phase-heavy: adaptive beats static baseline");
    // One channel, two demotion steps of guard band: the earn_margin
    // scheme must walk the whole band back to the qualified rate.
    check(adaptive.marginPromotions == 2,
          "earn_margin re-earned the full guard band");

    // ---- Interrupt/resume bit-identity (digest trail). ----
    std::vector<std::uint8_t> image;
    bool roundtrip_ok = false;
    const std::vector<std::uint64_t> reference =
        runDigestTrail(true, 0, nullptr, nullptr);
    const std::vector<std::uint64_t> resumed =
        runDigestTrail(true, 10, &image, &roundtrip_ok);
    check(reference.size() > 12, "digest trail long enough to bite");
    check(roundtrip_ok, "mid-run monitor save/restore round-trips");
    check(reference == resumed,
          "digest trail bit-identical across round trip");

    // ---- Restore into fresh objects digests identically. ----
    {
        node::NodeSystem donor(makeConfig(true, Leg::kAdaptive, true));
        monitor::RegionSampler fresh_sampler(
            donor.regionSampler()->config());
        monitor::SchemeEngine fresh_engine(
            donor.schemeEngine()->config(), nullptr);
        snapshot::Deserializer in(image);
        const bool ok = fresh_sampler.restoreState(in) &&
                        fresh_engine.restoreState(in) && in.ok() &&
                        in.remaining() == 0;
        check(ok, "fresh sampler+engine restore from image");
        const std::uint64_t fresh =
            fresh_sampler.digest() ^
            (fresh_engine.digest() * 0x9e3779b97f4a7c15ULL);
        // The image was taken at aggregation 10 of the resumed run;
        // recompute what the digest was at that instant.
        std::uint64_t at_capture = 0;
        std::vector<std::uint8_t> image2;
        bool ok2 = false;
        const std::vector<std::uint64_t> again =
            runDigestTrail(true, 10, &image2, &ok2);
        at_capture = again.at(10);
        check(ok2 && image2 == image,
              "capture is deterministic across runs");
        check(fresh == at_capture,
              "fresh restore digests identically to capture");
    }

    return check.failures;
}

/** Export the registry and the perf-trajectory record. */
void
exportTelemetry(const std::string &dir, Recorder &recorder,
                const telemetry::WallTimer &timer)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        util::fatal("fig19_monitor: cannot create '%s': %s",
                    dir.c_str(), ec.message().c_str());

    std::string error;
    const std::string csv = dir + "/metrics.csv";
    if (!telemetry::writeMetricsCsv(recorder.registry, csv, &error))
        util::fatal("fig19_monitor: %s", error.c_str());
    const std::string json = dir + "/metrics.json";
    if (!telemetry::writeMetricsJson(recorder.registry, json, &error))
        util::fatal("fig19_monitor: %s", error.c_str());

    telemetry::BenchRecord record;
    record.bench = "fig19_monitor";
    record.gitSha = telemetry::currentGitSha();
    record.wallSeconds = timer.seconds();
    record.simSeconds = recorder.simSeconds;
    record.simEvents = recorder.simEvents;
    record.peakRssBytes = telemetry::currentPeakRssBytes();
    record.threads = 1;
    std::string bench_path;
    if (!telemetry::writeBenchRecord(dir, record, &error, &bench_path))
        util::fatal("fig19_monitor: %s", error.c_str());
    std::printf("\ntelemetry: %s, %s, %s\n", csv.c_str(), json.c_str(),
                bench_path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const telemetry::WallTimer timer;
    bool smoke = false;
    std::string telemetry_dir;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--smoke") == 0)
            smoke = true;
        else if (std::strncmp(arg, "--telemetry-out=", 16) == 0)
            telemetry_dir = arg + 16;
        else if (std::strcmp(arg, "--dump-schemes") == 0) {
            // The shipped default scheme text, verbatim; a ctest
            // diffs this against the checked-in copy under
            // schemas/schemes/ so the two can never drift apart.
            std::fputs(monitor::defaultPhaseAdaptiveSchemes(), stdout);
            return 0;
        } else
            util::fatal("fig19_monitor: unknown flag '%s'", arg);
    }

    std::printf("Fig. 19: bounded-overhead monitoring%s\n\n",
                smoke ? " (smoke)" : "");
    Recorder recorder;
    const int failures = runChecks(smoke, recorder);

    if (!telemetry_dir.empty())
        exportTelemetry(telemetry_dir, recorder, timer);

    if (failures > 0) {
        std::fprintf(stderr, "fig19_monitor: %d check(s) FAILED\n",
                     failures);
        return 1;
    }
    std::printf("\nfig19_monitor: all checks passed\n");
    return 0;
}
