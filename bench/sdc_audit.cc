/**
 * @file
 * SDC containment audit driver (robustness extension).
 *
 * Runs verify::SdcAudit - the shadow-memory oracle campaign - over a
 * sampled module fleet and reports how detection-only Bamboo ECC holds
 * up end to end: every modeled unsafe-fast access is classified as
 * clean, detected-and-recovered, detected-uncorrectable, or a silent
 * escape, with the 2^-64 wide-error escape tail importance-sampled so
 * it is actually observed.  The report compares the measured
 * per-wide-error escape probability against the codec's analytic
 * bound and projects the fleet's MTT-SDC against the epoch guard's
 * one-billion-year target (Section III-B).
 *
 * Flags (unknown flags and malformed values are fatal):
 *   --smoke                  short deterministic campaign plus the
 *                            self-checks ctest runs (sdc_audit_smoke):
 *                            zero unclassified accesses, escape rate
 *                            consistent with the codec bound, and
 *                            bit-identical completion after a mid-run
 *                            snapshot/resume
 *   --seed=<n>               campaign seed (default 0x5dc0417)
 *   --modules=<n>            fleet size (default 8)
 *   --hours=<n>              modeled hours per module (default 72)
 *   --accesses-per-hour=<x>  modeled accesses per module-hour
 *                            (default 2e9)
 *   --overshoot=<steps>      rate steps past each module's stable
 *                            rate (default 2)
 *   --wide-oversample=<x>    minimum proposal share of wide errors
 *                            (default 0.25)
 *   --snapshot=<file>        write a resumable snapshot on completion
 *                            (and on SIGINT/SIGTERM; default
 *                            sdc_audit.snap when interrupted)
 *   --resume-from=<file>     resume an interrupted audit; if the
 *                            newest snapshot generation is corrupt,
 *                            older last-good generations (<file>.1,
 *                            <file>.2) are tried before giving up
 *   --telemetry-out=<dir>    export the audit's classification counts
 *                            as metrics (CSV + JSON) plus a
 *                            BENCH_sdc_audit.json perf record
 *
 * SIGINT/SIGTERM write a final snapshot and exit 130.  The handler is
 * strictly async-signal-safe: it sets one volatile sig_atomic_t flag
 * and nothing else; the snapshot itself is written from the main loop,
 * which polls the flag at each module-hour (epoch) boundary.  A second
 * SIGINT/SIGTERM skips the snapshot and exits 131 immediately.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "ecc/bamboo.hh"
#include "harness.hh"
#include "snapshot/keeper.hh"
#include "snapshot/serializer.hh"
#include "telemetry/bench_record.hh"
#include "telemetry/sinks.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "verify/audit.hh"

namespace
{

using namespace hdmr;
using verify::AccessClass;
using verify::OracleCounters;
using verify::SdcAudit;
using verify::SdcAuditConfig;
using verify::SdcAuditReport;

/** Strict numeric flag parsing: the whole value must consume. */
double
parseDouble(const char *flag, const char *text)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value))
        util::fatal("sdc_audit: flag %s: malformed number '%s'", flag,
                    text);
    return value;
}

std::uint64_t
parseU64(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0')
        util::fatal("sdc_audit: flag %s: malformed integer '%s'", flag,
                    text);
    return value;
}

/** Match --name=value; returns the value part or nullptr. */
const char *
flagValue(const char *arg, const char *name)
{
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=')
        return arg + len + 1;
    return nullptr;
}

void
printReport(const SdcAuditConfig &config, const SdcAuditReport &report)
{
    std::printf("\nclassification (fleet-wide):\n");
    std::printf("  %-24s %16s %22s\n", "class", "raw", "weighted");
    for (unsigned cls = 0; cls < verify::kAccessClassCount; ++cls) {
        std::printf("  %-24s %16" PRIu64 " %22.6g\n",
                    verify::accessClassName(
                        static_cast<AccessClass>(cls)),
                    report.total.raw[cls], report.total.weighted[cls]);
    }
    std::printf("  %-24s %16" PRIu64 "\n", "unclassified",
                report.total.unclassified);

    std::printf("\nimportance-sampled wide-error tail:\n");
    std::printf("  wide draws              %16" PRIu64
                "  (null-space constructed: %" PRIu64 ")\n",
                report.total.wideDraws, report.total.nullSpaceDraws);
    const double expected = ecc::BambooCodec::escapeProbability8BPlus();
    std::printf("  P(escape | wide error)  %16.4e  measured\n",
                report.escapesPerWideError());
    std::printf("  %-24s%16.4e  analytic 2^-64 bound\n", "",
                expected);

    std::printf("\nrecovery ladder (oracle):\n");
    std::printf("  retry attempts          %16" PRIu64 "\n",
                report.total.retryAttempts);
    std::printf("  retried recoveries      %16" PRIu64 "\n",
                report.total.retriedRecoveries);
    std::printf("  miscorrections          %16" PRIu64
                "  (escape weight %.3g)\n",
                report.total.miscorrections,
                report.total.miscorrectionWeight);

    std::printf("\nepoch-guard pressure:\n");
    std::printf("  detected errors         %16" PRIu64 "\n",
                report.detectedErrors);
    std::printf("  guard trips             %16" PRIu64 "\n",
                report.guardTrips);
    std::printf("  epochs observed         %16u\n",
                report.epochsObserved);

    const double fleet_accesses_per_hour =
        config.accessesPerHour * config.modules;
    const double mtt = report.projectedMttSdcYears(
        fleet_accesses_per_hour);
    std::printf("\nprojected MTT-SDC at %.3g accesses/hour: ",
                fleet_accesses_per_hour);
    if (std::isinf(mtt))
        std::printf("no escape weight observed (unbounded)\n");
    else
        std::printf("%.3g years\n", mtt);
    std::printf("epoch-guard design target: 1e9 years -> %s\n",
                std::isinf(mtt) || mtt >= 1.0e9 ? "MET" : "MISSED");
}

/**
 * Export the audit's fleet-wide counters under "verify.*" plus the
 * perf-trajectory record.  Fatal on I/O failure: an explicitly
 * requested export that silently vanished would poison the trajectory.
 */
void
exportTelemetry(const std::string &dir, const SdcAudit &audit,
                const telemetry::WallTimer &timer)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        util::fatal("sdc_audit: cannot create '%s': %s", dir.c_str(),
                    ec.message().c_str());

    telemetry::Registry registry;
    audit.publishTelemetry(registry, "verify");
    std::string error;
    const std::string csv = dir + "/metrics.csv";
    if (!telemetry::writeMetricsCsv(registry, csv, &error))
        util::fatal("sdc_audit: %s", error.c_str());
    const std::string json = dir + "/metrics.json";
    if (!telemetry::writeMetricsJson(registry, json, &error))
        util::fatal("sdc_audit: %s", error.c_str());

    const SdcAuditReport report = audit.report();
    telemetry::BenchRecord record;
    record.bench = "sdc_audit";
    record.gitSha = telemetry::currentGitSha();
    record.wallSeconds = timer.seconds();
    record.simSeconds = report.modeledHours * 3600.0;
    record.simEvents = report.total.rawTotal();
    record.peakRssBytes = telemetry::currentPeakRssBytes();
    record.threads = 1;
    std::string bench_path;
    if (!telemetry::writeBenchRecord(dir, record, &error, &bench_path))
        util::fatal("sdc_audit: %s", error.c_str());
    std::printf("telemetry: %s, %s, %s\n", csv.c_str(), json.c_str(),
                bench_path.c_str());
}

/** Serialize an audit's full mutable state to bytes. */
std::vector<std::uint8_t>
stateBytes(const SdcAudit &audit)
{
    snapshot::Serializer out;
    audit.saveState(out);
    return out.data();
}

/**
 * The checks ctest's sdc_audit_smoke gates on.  Returns the number of
 * failed checks (0 = pass) and prints a verdict per check.
 */
int
runSmokeChecks(const SdcAuditConfig &config,
               const std::string &telemetry_dir,
               const telemetry::WallTimer &timer)
{
    bench::Checks check("smoke", 44);

    // One uninterrupted reference run with the pristine oracle.
    SdcAudit reference(config);
    reference.run();
    const SdcAuditReport report = reference.report();

    const double modeled =
        config.accessesPerHour * reference.totalSteps();
    check(report.total.unclassified == 0, "zero unclassified accesses");
    check(report.total.rawTotal() ==
              static_cast<std::uint64_t>(modeled),
          "every modeled access accounted for");
    check(report.total.wideDraws > 0 && report.total.nullSpaceDraws > 0,
          "wide-error tail actually sampled");
    check(report.escapeConsistentWith(
              ecc::BambooCodec::escapeProbability8BPlus(), 2.0),
          "escape rate consistent with 2^-64 bound");
    const double mtt = report.projectedMttSdcYears(
        config.accessesPerHour * config.modules);
    check(std::isinf(mtt) || mtt >= 1.0e9,
          "projected MTT-SDC meets 1e9-year target");

    // A smaller campaign with a flaky original copy, so the recovery
    // ladder's retry rungs and the UE terminal state carry traffic.
    SdcAuditConfig flaky = config;
    flaky.modules = 1;
    flaky.hours = 2;
    flaky.accessesPerHour = 1.0e7;
    flaky.oracle.originalErrorProbability = 0.4;
    SdcAudit ladder(flaky);
    ladder.run();
    const SdcAuditReport ladder_report = ladder.report();
    check(ladder_report.total.unclassified == 0 &&
              ladder_report.total.retriedRecoveries > 0 &&
              ladder_report.total.raw[static_cast<unsigned>(
                  AccessClass::kDetectedUe)] > 0,
          "retry ladder and UE terminal state exercised");

    // Interrupt a second run at the midpoint, resume a third from the
    // snapshot, and require bit-identical completion.
    SdcAudit interrupted(config);
    for (std::uint64_t i = 0; i < interrupted.totalSteps() / 2; ++i)
        interrupted.step();
    const std::vector<std::uint8_t> mid = stateBytes(interrupted);

    SdcAudit resumed(config);
    snapshot::Deserializer in(mid);
    check(resumed.restoreState(in) && in.ok() && in.remaining() == 0,
          "mid-run snapshot restores");
    interrupted.run();
    resumed.run();
    check(stateBytes(resumed) == stateBytes(interrupted),
          "resumed run completes bit-identically");
    check(stateBytes(interrupted) == stateBytes(reference),
          "interrupted+resumed matches uninterrupted");

    printReport(config, report);
    if (!telemetry_dir.empty())
        exportTelemetry(telemetry_dir, reference, timer);
    return check.failures;
}

} // namespace

int
main(int argc, char **argv)
{
    SdcAuditConfig config;
    config.modules = 8;
    config.hours = 72;
    config.accessesPerHour = 2.0e9;
    bool smoke = false;
    std::string snapshot_path;
    std::string resume_from;
    std::string telemetry_dir;
    const telemetry::WallTimer timer;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (std::strcmp(arg, "--smoke") == 0)
            smoke = true;
        else if ((value = flagValue(arg, "--seed")))
            config.seed = parseU64("--seed", value);
        else if ((value = flagValue(arg, "--modules")))
            config.modules =
                static_cast<unsigned>(parseU64("--modules", value));
        else if ((value = flagValue(arg, "--hours")))
            config.hours =
                static_cast<unsigned>(parseU64("--hours", value));
        else if ((value = flagValue(arg, "--accesses-per-hour")))
            config.accessesPerHour =
                parseDouble("--accesses-per-hour", value);
        else if ((value = flagValue(arg, "--overshoot")))
            config.overshootSteps =
                static_cast<unsigned>(parseU64("--overshoot", value));
        else if ((value = flagValue(arg, "--wide-oversample")))
            config.wideOversample =
                parseDouble("--wide-oversample", value);
        else if ((value = flagValue(arg, "--snapshot")))
            snapshot_path = value;
        else if ((value = flagValue(arg, "--resume-from")))
            resume_from = value;
        else if ((value = flagValue(arg, "--telemetry-out")))
            telemetry_dir = value;
        else
            util::fatal("sdc_audit: unknown flag '%s'", arg);
    }

    if (smoke) {
        // Small but wide-heavy: enough erroneous accesses to exercise
        // every classification path deterministically in well under a
        // second, with the wide tail oversampled so the escape
        // estimate has support.
        config.modules = 2;
        config.hours = 8;
        config.accessesPerHour = 1.0e8;
        config.wideOversample = 0.5;
        std::printf("SDC AUDIT (smoke): %u modules x %u h x %.3g "
                    "accesses/h\n",
                    config.modules, config.hours,
                    config.accessesPerHour);
        const int failures = runSmokeChecks(config, telemetry_dir, timer);
        if (failures > 0) {
            std::fprintf(stderr, "sdc_audit: %d smoke check(s) FAILED\n",
                         failures);
            return 1;
        }
        std::printf("\nsdc_audit: all smoke checks passed\n");
        return 0;
    }

    util::checkOk(config.validate());
    std::printf("SDC AUDIT: %u modules x %u h x %.3g accesses/h "
                "(overshoot %u steps, wide oversample %.2f)\n",
                config.modules, config.hours, config.accessesPerHour,
                config.overshootSteps, config.wideOversample);

    SdcAudit audit(config);
    if (!resume_from.empty()) {
        // Walk the last-good generations newest-first; a corrupt or
        // truncated generation is logged and skipped, a well-formed
        // snapshot from a different campaign is fatal (older
        // generations of the same campaign would mismatch the same
        // way).
        const snapshot::Keeper keeper(resume_from);
        bool resumed = false;
        util::Status last = util::notFound(
            "no snapshot generation exists under '%s'",
            resume_from.c_str());
        for (unsigned g = 0; g < keeper.keep(); ++g) {
            const std::string path = keeper.generationPath(g);
            const util::Status status = audit.resumeFromFile(path);
            if (status.ok()) {
                if (g > 0)
                    std::fprintf(stderr,
                                 "sdc_audit: recovered: generation %u "
                                 "(%s) is the newest valid snapshot\n",
                                 g, path.c_str());
                std::printf("resuming from %s: %" PRIu64 "/%" PRIu64
                            " module-hours done\n",
                            path.c_str(), audit.stepsDone(),
                            audit.totalSteps());
                resumed = true;
                break;
            }
            if (status.code() ==
                util::StatusCode::kFailedPrecondition)
                util::fatal("sdc_audit: cannot resume from '%s': %s",
                            path.c_str(), status.message().c_str());
            if (status.code() != util::StatusCode::kNotFound) {
                std::fprintf(stderr,
                             "sdc_audit: warning: snapshot generation "
                             "%u unusable [%s]: %s; trying an older "
                             "generation\n",
                             g, util::statusCodeName(status.code()),
                             status.message().c_str());
                last = status;
            } else if (g == 0) {
                last = status;
            }
        }
        if (!resumed)
            util::fatal("sdc_audit: cannot resume from '%s': %s (no "
                        "older generation was valid either)",
                        resume_from.c_str(), last.message().c_str());
    }
    bench::installStopSignals();

    const std::uint64_t total = audit.totalSteps();
    const std::uint64_t stride = total < 10 ? 1 : total / 10;
    while (audit.step()) {
        // Epoch boundary: the only place the interrupt flag is acted
        // on, so the snapshot always captures a whole module-hour.
        if (bench::stopRequested()) {
            const std::string path = snapshot_path.empty()
                                         ? "sdc_audit.snap"
                                         : snapshot_path;
            snapshot::Serializer out;
            audit.saveState(out);
            const util::Status status = snapshot::Keeper(path).save(
                snapshot::kSdcAuditStateKind, out.data());
            if (!status.ok())
                util::fatal("sdc_audit: interrupt snapshot failed: %s",
                            status.message().c_str());
            std::fprintf(stderr,
                         "\nsdc_audit: interrupted at %" PRIu64 "/%"
                         PRIu64 " module-hours; state saved to %s\n"
                         "resume with: --resume-from=%s\n",
                         audit.stepsDone(), total, path.c_str(),
                         path.c_str());
            return 130;
        }
        if (audit.stepsDone() % stride == 0) {
            std::printf("  ... %" PRIu64 "/%" PRIu64
                        " module-hours (%.3g accesses modeled)\n",
                        audit.stepsDone(), total,
                        audit.report().modeledAccesses());
        }
    }

    const SdcAuditReport report = audit.report();
    if (report.total.unclassified != 0)
        util::fatal("sdc_audit: %" PRIu64 " unclassified accesses",
                    report.total.unclassified);
    printReport(config, report);

    if (!snapshot_path.empty()) {
        snapshot::Serializer out;
        audit.saveState(out);
        const util::Status status = snapshot::Keeper(snapshot_path)
                                        .save(snapshot::kSdcAuditStateKind,
                                              out.data());
        if (!status.ok())
            util::fatal("sdc_audit: snapshot failed: %s",
                        status.message().c_str());
        std::printf("snapshot written to %s\n", snapshot_path.c_str());
    }
    if (!telemetry_dir.empty())
        exportTelemetry(telemetry_dir, audit, timer);
    return 0;
}
