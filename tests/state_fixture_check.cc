/**
 * @file
 * Snapshot-payload fixture check, run as a ctest.
 *
 * tests/golden/state/ holds one raw state payload per snapshot kind,
 * each produced by a fixed, seeded run:
 *
 *   cluster.bin          ClusterSimulator ("CSIM"): the determinism_check
 *                        faulted configuration stopped at day 4, with a
 *                        digest cadence longer than the stop, so the
 *                        payload carries an empty digest trail;
 *   mode_controller.bin  ModeController + its EpochGuard, driven like
 *                        the recalibration snapshot test in test_core;
 *   monitor.bin          RegionSampler + SchemeEngine of the monitored
 *                        lulesh node in determinism_check, taken at the
 *                        third aggregation;
 *   sdc_audit.bin        SdcAudit ("SDCA") halfway through a small
 *                        campaign;
 *   advisor.bin          AdvisorEngine ("ADVS") after a fixed decision
 *                        sequence.
 *
 * For every fixture the check asserts two things:
 *
 *   1. a fresh seeded run serializes to exactly the fixture bytes, so
 *      any change to a payload layout, a field width, or the state a
 *      run reaches shows up as a byte diff;
 *   2. restoring the fixture into a fresh object and saving again gives
 *      the same bytes (the reader and the writer agree field for
 *      field).
 *
 * Usage:
 *
 *     state_fixture_check <dir>          check against the .bin files in <dir>
 *     state_fixture_check --regen <dir>  rewrite the .bin files in <dir>
 *
 * Regenerating is a deliberate act: a changed fixture means the
 * snapshot format (or the simulation a fixture captures) changed, and
 * the change must say why.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/mode_controller.hh"
#include "core/replication.hh"
#include "dram/controller.hh"
#include "monitor/monitor.hh"
#include "monitor/scheme.hh"
#include "node/config.hh"
#include "node/node_system.hh"
#include "sched/cluster_sim.hh"
#include "serve/advisor.hh"
#include "serve/resilience.hh"
#include "sim/event_queue.hh"
#include "snapshot/serializer.hh"
#include "traces/job_trace.hh"
#include "util/status.hh"
#include "verify/audit.hh"

namespace
{

using namespace hdmr;
using Bytes = std::vector<std::uint8_t>;

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s: %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

// --------------------------------------------------------------------
// Cluster simulator (CSIM)
// --------------------------------------------------------------------

std::vector<traces::Job>
clusterTrace()
{
    traces::JobTraceModel model;
    model.numJobs = 2000;
    model.systemNodes = 192;
    model.spanSeconds = 10 * 86400.0;
    return traces::GrizzlyTraceGenerator(model, 11).generate();
}

/** determinism_check's faulted, margin-unaware, checkpointed leg. */
sched::ClusterConfig
clusterConfig()
{
    sched::ClusterConfig config;
    config.nodes = 192;
    config.heteroDmr = true;
    config.marginAware = false;
    config.faults.intensity = 4.0;
    config.faults.uncorrectablePerHour = 2.0e-4;
    config.faults.nodeFailuresPerHour = 2.0e-5;
    config.faults.demotionsPerHour = 1.0e-4;
    config.faults.horizonSeconds = 10 * 86400.0;
    config.resilience.checkpointIntervalSeconds = 1800.0;
    config.resilience.checkpointOverheadFraction = 0.02;
    return config;
}

Bytes
clusterFresh(const std::vector<traces::Job> &jobs)
{
    Bytes state;
    sched::RunOptions options;
    // Longer than the stop: the payload's digest trail stays empty.
    options.digestEverySeconds = 100 * 86400.0;
    options.stopAfterSeconds = 4 * 86400.0;
    options.snapshotSink = [&](const Bytes &bytes) { state = bytes; };
    sched::ClusterSimulator sim(clusterConfig());
    sim.run(jobs, options);
    return state;
}

Bytes
clusterRoundTrip(const Bytes &fixture, const std::vector<traces::Job> &jobs)
{
    sched::ClusterSimulator sim(clusterConfig());
    if (!sim.restoreState(fixture, jobs).ok())
        return {};
    // Interrupt at the first decision point: the snapshot it emits is
    // the restored state, untouched by any event.
    Bytes state;
    sched::RunOptions options;
    options.interrupted = [] { return true; };
    options.snapshotSink = [&](const Bytes &bytes) { state = bytes; };
    sim.resume(options);
    return state;
}

// --------------------------------------------------------------------
// Mode controller + epoch guard
// --------------------------------------------------------------------

/** test_core's recalibration configuration. */
core::ModeControllerConfig
modeConfig()
{
    core::ModeControllerConfig config;
    config.specSetting = dram::MemorySetting::manufacturerSpec();
    config.fastSetting = dram::MemorySetting::exploitFreqLatMargins();
    config.plan = core::ReplicationManager::planChannel(
        core::ReplicationMode::kHeteroDmr);
    config.recalibration.windowTicks = util::kTicksPerMs;
    config.recalibration.targetErrorsPerWindow = 4.0;
    config.recalibration.demoteBand = 2.0;
    config.recalibration.promoteBand = 0.25;
    config.recalibration.hysteresisWindows = 2;
    return config;
}

struct ModeRig
{
    sim::EventQueue events;
    dram::MemoryController controller;
    core::ModeController mode;

    ModeRig()
        : controller(events, core::ModeController::buildControllerConfig(
                                 modeConfig(), 1)),
          mode(events, controller, nullptr,
               [](std::uint64_t) { return true; }, modeConfig())
    {
    }
};

/** Mid demote streak with a partially filled recalibration window. */
Bytes
modeFresh()
{
    const util::Tick w = modeConfig().recalibration.windowTicks;
    ModeRig rig;
    rig.events.run(w / 2);
    rig.mode.injectDetectedErrors(9);
    rig.events.run(w + w / 2);
    rig.mode.injectDetectedErrors(3);
    snapshot::Serializer out;
    rig.mode.saveState(out);
    return out.data();
}

Bytes
modeRoundTrip(const Bytes &fixture)
{
    const util::Tick w = modeConfig().recalibration.windowTicks;
    ModeRig rig;
    rig.events.run(w + w / 2);
    snapshot::Deserializer in(fixture);
    if (!rig.mode.restoreState(in) || in.remaining() != 0)
        return {};
    snapshot::Serializer out;
    rig.mode.saveState(out);
    return out.data();
}

// --------------------------------------------------------------------
// Region sampler + scheme engine
// --------------------------------------------------------------------

/** determinism_check's monitored lulesh node. */
node::NodeConfig
monitoredNodeConfig()
{
    node::NodeConfig config;
    config.hierarchy = node::HierarchyConfig::hierarchy1();
    config.workload = wl::benchmarkByName("lulesh");
    config.memOpsPerCore = 4000;
    config.warmupOpsPerCore = 2000;
    config.memorySystem = node::MemorySystemKind::kHeteroDmr;
    config.seed = 23;
    config.marginGuardBandMts = 400;
    config.monitoring.enabled = true;
    config.monitoring.samplingInterval = 2 * util::kTicksPerUs;
    config.monitoring.aggregationInterval = 5 * util::kTicksPerUs;
    config.monitoring.regionUpdateInterval = 15 * util::kTicksPerUs;
    util::checkOk(monitor::parseSchemeConfig(
        monitor::defaultPhaseAdaptiveSchemes(), &config.schemes));
    return config;
}

Bytes
monitorFresh()
{
    node::NodeSystem sys(monitoredNodeConfig());
    monitor::RegionSampler *sampler = sys.regionSampler();
    monitor::SchemeEngine *engine = sys.schemeEngine();
    Bytes state;
    sampler->setAggregationObserver([&](std::uint64_t index) {
        if (index != 3)
            return;
        snapshot::Serializer out;
        sampler->saveState(out);
        engine->saveState(out);
        state = out.data();
    });
    sys.run();
    return state;
}

Bytes
monitorRoundTrip(const Bytes &fixture)
{
    node::NodeSystem sys(monitoredNodeConfig());
    snapshot::Deserializer in(fixture);
    if (!sys.regionSampler()->restoreState(in) ||
        !sys.schemeEngine()->restoreState(in) || in.remaining() != 0)
        return {};
    snapshot::Serializer out;
    sys.regionSampler()->saveState(out);
    sys.schemeEngine()->saveState(out);
    return out.data();
}

// --------------------------------------------------------------------
// SDC audit (SDCA)
// --------------------------------------------------------------------

/** test_verify's small campaign, stretched to six hours. */
verify::SdcAuditConfig
auditConfig()
{
    verify::SdcAuditConfig config;
    config.seed = 0x51;
    config.modules = 2;
    config.hours = 6;
    config.accessesPerHour = 5.0e7;
    config.overshootSteps = 2;
    config.wideOversample = 0.3;
    config.escapeLambda = 0.5;
    return config;
}

Bytes
auditFresh()
{
    verify::SdcAudit audit(auditConfig());
    while (audit.stepsDone() < audit.totalSteps() / 2)
        audit.step();
    snapshot::Serializer out;
    audit.saveState(out);
    return out.data();
}

Bytes
auditRoundTrip(const Bytes &fixture)
{
    verify::SdcAudit audit(auditConfig());
    snapshot::Deserializer in(fixture);
    if (!audit.restoreState(in) || in.remaining() != 0)
        return {};
    snapshot::Serializer out;
    audit.saveState(out);
    return out.data();
}

// --------------------------------------------------------------------
// Advisor engine (ADVS)
// --------------------------------------------------------------------

/** test_serve's small rollout engine. */
serve::AdvisorConfig
advisorConfig()
{
    serve::AdvisorConfig config;
    config.rolloutNodes = 8;
    config.rolloutJobs = 12;
    config.rolloutHorizonSeconds = 1800.0;
    config.seed = 42;
    return config;
}

Bytes
advisorFresh()
{
    serve::AdvisorEngine engine(advisorConfig());
    const auto request = [](std::uint64_t id, unsigned nodes,
                            unsigned usage_class, double runtime) {
        serve::AdvisorRequest r;
        r.id = id;
        r.mix = {{nodes, usage_class, runtime, 1.0}};
        return r;
    };
    // Never-expiring deadlines: every rollout completes, so the cache
    // contents do not depend on host speed.
    engine.decide(request(1, 2, 0, 600.0), serve::Deadline{});
    engine.decide(request(2, 4, 1, 900.0), serve::Deadline{});
    engine.decide(request(3, 2, 0, 600.0), serve::Deadline{}); // cached
    engine.decide(request(4, 1, 2, 1200.0), serve::Deadline{});
    serve::AdvisorRequest table_only = request(5, 3, 0, 300.0);
    table_only.allowRollout = false; // degraded: never cached
    engine.decide(table_only, serve::Deadline{});
    return engine.saveState();
}

Bytes
advisorRoundTrip(const Bytes &fixture)
{
    serve::AdvisorEngine engine(advisorConfig());
    if (!engine.restoreState(fixture).ok())
        return {};
    return engine.saveState();
}

// --------------------------------------------------------------------
// Driver
// --------------------------------------------------------------------

bool
readFile(const std::string &path, Bytes *bytes)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return false;
    bytes->assign(std::istreambuf_iterator<char>(file),
                  std::istreambuf_iterator<char>());
    return true;
}

bool
writeFile(const std::string &path, const Bytes &bytes)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(reinterpret_cast<const char *>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(file);
}

struct Fixture
{
    const char *file;
    Bytes fresh;
    Bytes (*roundTrip)(const Bytes &);
};

} // namespace

int
main(int argc, char **argv)
{
    const bool regen = argc == 3 && std::strcmp(argv[1], "--regen") == 0;
    if (!(argc == 2 || regen)) {
        std::fprintf(stderr,
                     "usage: %s <fixture-dir>\n"
                     "       %s --regen <fixture-dir>\n",
                     argv[0], argv[0]);
        return 2;
    }
    const std::string dir = argv[argc - 1];

    static const std::vector<traces::Job> jobs = clusterTrace();
    Fixture fixtures[] = {
        {"cluster.bin", clusterFresh(jobs),
         [](const Bytes &b) { return clusterRoundTrip(b, jobs); }},
        {"mode_controller.bin", modeFresh(), modeRoundTrip},
        {"monitor.bin", monitorFresh(), monitorRoundTrip},
        {"sdc_audit.bin", auditFresh(), auditRoundTrip},
        {"advisor.bin", advisorFresh(), advisorRoundTrip},
    };

    for (const Fixture &f : fixtures) {
        const std::string path = dir + "/" + f.file;
        if (regen) {
            const bool written = !f.fresh.empty() && writeFile(path, f.fresh);
            check(written, std::string("wrote ") + f.file + " (" +
                               std::to_string(f.fresh.size()) + " bytes)");
            continue;
        }
        Bytes golden;
        if (!readFile(path, &golden)) {
            check(false, std::string(f.file) + ": cannot read " + path);
            continue;
        }
        check(!golden.empty() && f.fresh == golden,
              std::string(f.file) + ": fresh seeded run matches the " +
                  "fixture bytes (" + std::to_string(golden.size()) +
                  " bytes)");
        check(f.roundTrip(golden) == golden,
              std::string(f.file) + ": restore then save reproduces " +
                  "the fixture bytes");
    }

    if (g_failures > 0) {
        std::printf("\n%d check(s) FAILED\n", g_failures);
        return 1;
    }
    std::printf("\nall state fixture checks passed\n");
    return 0;
}
