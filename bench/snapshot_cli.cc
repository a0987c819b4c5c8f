#include "snapshot_cli.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <variant>

#include "harness.hh"
#include "snapshot/keeper.hh"
#include "snapshot/serializer.hh"
#include "telemetry/sinks.hh"
#include "util/logging.hh"

namespace hdmr::bench
{

namespace
{

double
parseSeconds(const char *flag, const char *text)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0')
        util::fatal("%s expects a number of simulated seconds "
                    "(got '%s')",
                    flag, text);
    return value;
}

void
printUsage(const char *bench)
{
    std::printf(
        "usage: %s [options]\n"
        "  --snapshot-every=<sim seconds>  periodic crash-safe "
        "snapshots (0 = off)\n"
        "  --snapshot-path=<file>          snapshot file "
        "(default %s.snap)\n"
        "  --snapshot-keep=<n>             last-good generations to "
        "keep (default 3)\n"
        "  --resume-from=<file>            resume an interrupted "
        "sweep (falls back to\n"
        "                                  older generations if the "
        "newest is corrupt)\n"
        "  --digest-every=<sim seconds>    state-digest cadence "
        "(default 86400)\n"
        "  --telemetry-out=<dir>           export metrics CSV/JSON, a "
        "Perfetto trace,\n"
        "                                  and a BENCH_<name>.json "
        "perf record\n"
        "  --help                          this text\n"
        "\nSIGINT/SIGTERM save a final snapshot before exiting "
        "(code 130);\na second signal skips the snapshot and exits "
        "immediately (code 131).\n",
        bench, bench);
}

} // namespace

SweepRunner::SweepRunner(std::string bench_name, int argc, char **argv)
    : bench_(std::move(bench_name)), snapshotPath_(bench_ + ".snap")
{
    parseArgs(argc, argv);
    if (!resumeFrom_.empty())
        loadResumeFile();
    installStopSignals();
}

void
SweepRunner::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--snapshot-every=", 17) == 0) {
            snapshotEvery_ = parseSeconds("--snapshot-every", arg + 17);
            if (snapshotEvery_ < 0.0)
                util::fatal("--snapshot-every must be non-negative "
                            "(got %g)",
                            snapshotEvery_);
        } else if (std::strncmp(arg, "--snapshot-path=", 16) == 0) {
            snapshotPath_ = arg + 16;
            if (snapshotPath_.empty())
                util::fatal("--snapshot-path expects a file name");
        } else if (std::strncmp(arg, "--snapshot-keep=", 16) == 0) {
            char *end = nullptr;
            const unsigned long keep = std::strtoul(arg + 16, &end, 10);
            if (end == arg + 16 || *end != '\0' || keep < 1 ||
                keep > 64)
                util::fatal("--snapshot-keep expects an integer in "
                            "[1, 64] (got '%s')",
                            arg + 16);
            snapshotKeep_ = static_cast<unsigned>(keep);
        } else if (std::strncmp(arg, "--resume-from=", 14) == 0) {
            resumeFrom_ = arg + 14;
            if (resumeFrom_.empty())
                util::fatal("--resume-from expects a file name");
        } else if (std::strncmp(arg, "--digest-every=", 15) == 0) {
            digestEvery_ = parseSeconds("--digest-every", arg + 15);
            if (!(digestEvery_ > 0.0))
                util::fatal("--digest-every must be positive (got %g)",
                            digestEvery_);
        } else if (std::strncmp(arg, "--telemetry-out=", 16) == 0) {
            telemetryDir_ = arg + 16;
            if (telemetryDir_.empty())
                util::fatal("--telemetry-out expects a directory name");
        } else if (std::strcmp(arg, "--help") == 0) {
            printUsage(bench_.c_str());
            std::exit(0);
        } else {
            util::fatal("unknown argument '%s' (try --help)", arg);
        }
    }
}

void
SweepRunner::loadResumeFile()
{
    // Walk the last-good generations newest-first.  A generation that
    // fails the file envelope (magic/version/CRC) *or* the sweep-level
    // decode is logged with its structured code and skipped; the first
    // one that decodes end to end wins.  Only a well-formed image that
    // belongs to a different campaign aborts - its older siblings
    // would mismatch the same way.
    const snapshot::Keeper keeper(resumeFrom_, snapshotKeep_);
    util::Status last = util::notFound(
        "no snapshot generation exists under '%s'", resumeFrom_.c_str());
    for (unsigned g = 0; g < keeper.keep(); ++g) {
        const std::string path = keeper.generationPath(g);
        std::vector<std::uint8_t> payload;
        util::Status status = snapshot::readSnapshotFile(
            path, snapshot::kSweepStateKind, &payload);
        if (status.ok())
            status = decodeSweepPayload(payload);
        if (status.ok()) {
            resumeActive_ = !resumeActiveLabel_.empty();
            if (g > 0)
                std::fprintf(stderr,
                             "recovered: generation %u (%s) is the "
                             "newest valid snapshot\n",
                             g, path.c_str());
            std::printf("resuming sweep from %s: %zu completed "
                        "leg(s), active leg '%s'%s\n\n",
                        path.c_str(), completed_.size(),
                        resumeActive_ ? resumeActiveLabel_.c_str()
                                      : "(none)",
                        resumeActiveState_.empty()
                            ? " (not yet started)"
                            : "");
            return;
        }
        if (status.code() == util::StatusCode::kFailedPrecondition)
            util::fatal("cannot resume from '%s': %s", path.c_str(),
                        status.message().c_str());
        if (status.code() != util::StatusCode::kNotFound) {
            std::fprintf(stderr,
                         "warning: snapshot generation %u unusable "
                         "[%s]: %s; trying an older generation\n",
                         g, util::statusCodeName(status.code()),
                         status.message().c_str());
            last = status;
        } else if (g == 0) {
            last = status;
        }
    }
    util::fatal("cannot resume from '%s': %s (no older generation "
                "was valid either)",
                resumeFrom_.c_str(), last.message().c_str());
}

util::Status
SweepRunner::decodeSweepPayload(const std::vector<std::uint8_t> &payload)
{
    // A previous generation's failed decode may have half-filled the
    // resume state; start every attempt from scratch.
    completed_.clear();
    resumeActiveLabel_.clear();
    resumeActiveState_.clear();
    registry_ = telemetry::Registry{};

    snapshot::Deserializer in(payload);
    const std::string bench = in.readString();
    if (in.ok() && bench != bench_)
        return util::failedPrecondition(
            "snapshot belongs to benchmark '%s', not '%s'",
            bench.c_str(), bench_.c_str());
    // Each completed leg is at least a label length (4) plus the
    // metrics record; 8 is a safe floor for the count check.
    const std::uint64_t count = in.readCount("completed-leg list", 8);
    for (std::uint64_t i = 0; i < count && in.ok(); ++i) {
        CompletedLeg leg;
        leg.label = in.readString();
        restoreMetrics(in, &leg.metrics);
        completed_.push_back(std::move(leg));
    }
    resumeActiveLabel_ = in.readString();
    resumeActiveState_ = in.readBlob();
    HDMR_RETURN_IF_ERROR(in.status());

    // Telemetry section: presence must match this run's
    // --telemetry-out, because the registry feeds the active leg's
    // state digests.
    const bool saved_telemetry = in.readBool();
    HDMR_RETURN_IF_ERROR(in.status());
    if (saved_telemetry != telemetryEnabled())
        return util::failedPrecondition(
            "the sweep was %s --telemetry-out and this run is %s; "
            "rerun with a matching flag",
            saved_telemetry ? "saved with" : "saved without",
            telemetryEnabled() ? "using it" : "not");
    if (saved_telemetry && !registry_.restore(in))
        return in.ok() ? util::dataLoss(
                             "telemetry registry restore failed")
                       : in.status();
    HDMR_RETURN_IF_ERROR(in.status());
    if (in.remaining() != 0)
        return util::dataLoss("trailing garbage after the sweep image");
    return util::Status{};
}

void
SweepRunner::writeSweepFile() const
{
    snapshot::Serializer out;
    out.writeString(bench_);
    out.writeU64(completed_.size());
    for (const CompletedLeg &leg : completed_) {
        out.writeString(leg.label);
        saveMetrics(out, leg.metrics);
    }
    out.writeString(activeLabel_);
    out.writeBlob(activeState_);
    out.writeBool(telemetryEnabled());
    if (telemetryEnabled())
        registry_.save(out);

    const snapshot::Keeper keeper(snapshotPath_, snapshotKeep_);
    const util::Status status =
        keeper.save(snapshot::kSweepStateKind, out.data());
    if (!status.ok()) {
        // A failed periodic snapshot should not kill a long run; the
        // simulation itself is unaffected.
        std::fprintf(stderr, "warning: snapshot write failed [%s]: %s\n",
                     util::statusCodeName(status.code()),
                     status.message().c_str());
    }
}

sched::ClusterMetrics
SweepRunner::leg(const std::string &label,
                 const sched::ClusterConfig &config,
                 const std::vector<traces::Job> &jobs)
{
    if (stopped_)
        return {};

    const std::uint32_t tid = ++legIndex_;

    // Legs already completed in the resumed sweep replay from their
    // recorded metrics (and, with telemetry, from the restored
    // registry - reconciled like a live leg).
    if (nextCached_ < completed_.size()) {
        const CompletedLeg &cached = completed_[nextCached_];
        if (cached.label != label)
            util::fatal("sweep snapshot mismatch: recorded leg '%s', "
                        "benchmark asked for '%s'",
                        cached.label.c_str(), label.c_str());
        ++nextCached_;
        if (telemetryEnabled())
            reconcileLeg(label, cached.metrics);
        return cached.metrics;
    }

    // Interrupt landed between legs: save a sweep image marking this
    // leg as active-but-unstarted and stop.
    if (stopRequested()) {
        activeLabel_ = label;
        if (resumeActive_ && label == resumeActiveLabel_)
            activeState_ = resumeActiveState_;
        else
            activeState_.clear();
        writeSweepFile();
        stopped_ = true;
        return {};
    }

    sched::ClusterSimulator sim(config);
    activeLabel_ = label;
    activeState_.clear();

    if (telemetryEnabled()) {
        sim.bindTelemetry(registry_, "cluster." + label);
        sim.bindTrace(&trace_, tid);
        trace_.setThreadName(tid, label);
        trace_.beginSpan(label, "leg", 0.0, tid);
    }

    sched::RunOptions options;
    options.digestEverySeconds = digestEvery_;
    options.snapshotEverySeconds = snapshotEvery_;
    options.snapshotSink =
        [this](const std::vector<std::uint8_t> &state) {
            activeState_ = state;
            writeSweepFile();
        };
    options.interrupted = [] { return stopRequested(); };

    sched::RunOutcome outcome;
    if (resumeActive_) {
        if (label != resumeActiveLabel_)
            util::fatal("sweep snapshot mismatch: active leg '%s', "
                        "benchmark asked for '%s'",
                        resumeActiveLabel_.c_str(), label.c_str());
        resumeActive_ = false;
        if (resumeActiveState_.empty()) {
            // Interrupted before the leg started; run it fresh.
            outcome = sim.run(jobs, options);
        } else {
            const util::Status status =
                sim.restoreState(resumeActiveState_, jobs);
            if (!status.ok())
                util::fatal("cannot resume leg '%s' from '%s': %s",
                            label.c_str(), resumeFrom_.c_str(),
                            status.message().c_str());
            outcome = sim.resume(options);
        }
    } else {
        outcome = sim.run(jobs, options);
    }

    if (telemetryEnabled())
        trace_.endSpan(outcome.simSeconds * 1e6, tid, label);
    simSecondsTotal_ += outcome.simSeconds;
    simEventsTotal_ += outcome.eventsProcessed;

    if (!outcome.completed) {
        // The final snapshot already went through the sink.
        stopped_ = true;
        return outcome.metrics;
    }
    if (telemetryEnabled())
        reconcileLeg(label, outcome.metrics);
    completed_.push_back(CompletedLeg{label, outcome.metrics});
    nextCached_ = completed_.size();
    activeState_.clear();
    return outcome.metrics;
}

void
SweepRunner::reconcileLeg(const std::string &label,
                          const sched::ClusterMetrics &metrics) const
{
    const std::string prefix = "cluster." + label;
    const auto counter_value =
        [&](const char *name) -> std::uint64_t {
        const telemetry::Metric *metric =
            registry_.find(prefix + "." + name);
        const auto *counter =
            metric != nullptr ? std::get_if<telemetry::Counter>(metric)
                              : nullptr;
        if (counter == nullptr)
            util::fatal("telemetry reconciliation: counter '%s.%s' "
                        "missing from the registry",
                        prefix.c_str(), name);
        return counter->value();
    };
    const auto check = [&](const char *name, std::uint64_t expected) {
        const std::uint64_t got = counter_value(name);
        if (got != expected)
            util::fatal("telemetry reconciliation: %s.%s is %llu but "
                        "the leg's metrics say %llu",
                        prefix.c_str(), name,
                        static_cast<unsigned long long>(got),
                        static_cast<unsigned long long>(expected));
    };
    check("jobs_completed", metrics.jobsCompleted);
    check("ue_injected", metrics.ueInjected);
    check("job_kills", metrics.jobKills);
    check("requeues", metrics.requeues);
    check("jobs_dropped", metrics.jobsDropped);
    check("nodes_failed", metrics.nodesFailed);
    check("nodes_demoted", metrics.nodesDemoted);
    check("tolerant_ues", metrics.tolerantUes);
    check("critical_ues", metrics.criticalUes);
    check("jobs_degraded", metrics.jobsDegraded);
    check("pages_degraded", metrics.pagesDegraded);

    const telemetry::Metric *metric =
        registry_.find(prefix + ".turnaround_seconds");
    const auto *histogram =
        metric != nullptr
            ? std::get_if<telemetry::Log2Histogram>(metric)
            : nullptr;
    if (histogram == nullptr)
        util::fatal("telemetry reconciliation: histogram "
                    "'%s.turnaround_seconds' missing from the registry",
                    prefix.c_str());
    if (histogram->count() != metrics.jobsCompleted)
        util::fatal("telemetry reconciliation: "
                    "%s.turnaround_seconds recorded %llu samples for "
                    "%llu completed jobs",
                    prefix.c_str(),
                    static_cast<unsigned long long>(histogram->count()),
                    static_cast<unsigned long long>(
                        metrics.jobsCompleted));
    // Samples are recorded as whole seconds, so the histogram mean
    // can sit at most one second below the exact mean.
    if (metrics.jobsCompleted > 0 &&
        std::fabs(histogram->mean() - metrics.meanTurnaroundSeconds) >
            1.0)
        util::fatal("telemetry reconciliation: "
                    "%s.turnaround_seconds mean %.3f disagrees with "
                    "the leg's mean turnaround %.3f",
                    prefix.c_str(), histogram->mean(),
                    metrics.meanTurnaroundSeconds);
}

void
SweepRunner::exportTelemetry()
{
    std::error_code ec;
    std::filesystem::create_directories(telemetryDir_, ec);
    if (ec) {
        std::fprintf(stderr,
                     "warning: cannot create telemetry directory "
                     "'%s': %s\n",
                     telemetryDir_.c_str(), ec.message().c_str());
        return;
    }

    std::string error;
    const std::string csv_path = telemetryDir_ + "/metrics.csv";
    if (!telemetry::writeMetricsCsv(registry_, csv_path, &error))
        std::fprintf(stderr, "warning: %s\n", error.c_str());
    const std::string json_path = telemetryDir_ + "/metrics.json";
    if (!telemetry::writeMetricsJson(registry_, json_path, &error))
        std::fprintf(stderr, "warning: %s\n", error.c_str());
    const std::string trace_path = telemetryDir_ + "/trace.json";
    if (!trace_.writeChromeTrace(trace_path, &error))
        std::fprintf(stderr, "warning: %s\n", error.c_str());

    telemetry::BenchRecord record;
    record.bench = bench_;
    record.gitSha = telemetry::currentGitSha();
    record.wallSeconds = timer_.seconds();
    record.simSeconds = simSecondsTotal_;
    record.simEvents = simEventsTotal_;
    record.peakRssBytes = telemetry::currentPeakRssBytes();
    record.threads = 1;
    std::string record_path;
    if (!telemetry::writeBenchRecord(telemetryDir_, record, &error,
                                     &record_path))
        std::fprintf(stderr, "warning: %s\n", error.c_str());

    std::printf("\ntelemetry: %s, %s\n           %s (load in "
                "ui.perfetto.dev), %s\n",
                csv_path.c_str(), json_path.c_str(),
                trace_path.c_str(), record_path.c_str());
}

int
SweepRunner::finish()
{
    if (telemetryEnabled())
        exportTelemetry();
    if (!stopped_)
        return 0;
    std::fprintf(stderr,
                 "\n%s: interrupted during leg '%s'; sweep state "
                 "saved to %s\nresume with: --resume-from=%s\n",
                 bench_.c_str(), activeLabel_.c_str(),
                 snapshotPath_.c_str(), snapshotPath_.c_str());
    return 130;
}

} // namespace hdmr::bench
