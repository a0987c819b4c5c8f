/**
 * @file
 * Workloads `node_read` and `node_write_monitored`: node-engine grids
 * run through node::runGrid.
 *
 *  node_read             Hierarchy 1, {hpcg, bfs, linpack, lulesh} x
 *                        {Commercial Baseline, Hetero-DMR @ 800 MT/s},
 *                        40 K measured + 20 K warm-up ops per core, no
 *                        monitoring, on at most nproc workers.
 *  node_write_monitored  fig19's adaptive configuration: phase-heavy
 *                        lulesh on Hetero-DMR with write bursts, a
 *                        checkpoint wait, a 400 MT/s guard band, and
 *                        monitoring with the default phase-adaptive
 *                        schemes.
 *
 * The traced run also replays each workload's own generated streams
 * through the workloads, cache, dram and (monitored only) monitor
 * layers in isolation, since NodeSystem::run is otherwise the only
 * call into the node engine.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetcher.hh"
#include "dram/controller.hh"
#include "monitor/monitor.hh"
#include "monitor/scheme.hh"
#include "node/config.hh"
#include "node/node_system.hh"
#include "node/runner.hh"
#include "sim/event_queue.hh"
#include "stats.hh"
#include "util/logging.hh"
#include "workloads.hh"
#include "workloads/hpc_workloads.hh"

namespace perfbench
{

namespace
{

using namespace hdmr;
using node::MemorySystemKind;
using node::NodeConfig;
using node::NodeStats;

/** node_read's benchmarks: bandwidth, latency, compute, mixed. */
const char *const kReadBenchmarks[] = {"hpcg", "bfs", "linpack", "lulesh"};

std::vector<NodeConfig>
readGrid(std::uint64_t seed)
{
    std::vector<NodeConfig> configs;
    for (const char *name : kReadBenchmarks) {
        for (const MemorySystemKind kind :
             {MemorySystemKind::kCommercialBaseline,
              MemorySystemKind::kHeteroDmr}) {
            NodeConfig config;
            config.hierarchy = node::HierarchyConfig::hierarchy1();
            config.workload = wl::benchmarkByName(name);
            config.memorySystem = kind;
            config.nodeMarginMts = 800;
            config.usage = core::MemoryUsage::kUnder50;
            config.memOpsPerCore = 40000;   // EvalSizing defaults
            config.warmupOpsPerCore = 20000;
            config.seed = seed;
            configs.push_back(config);
        }
    }
    return configs;
}

/** fig19's monitoring parameters. */
monitor::MonitorConfig
fig19Monitoring()
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

/** Concurrent copies of the monitored node per repetition. */
constexpr std::size_t kMonitoredCopies = 4;

std::vector<NodeConfig>
writeMonitoredGrid(std::uint64_t seed)
{
    NodeConfig config;
    config.hierarchy = node::HierarchyConfig::hierarchy1();
    config.workload = wl::benchmarkByName("lulesh");
    config.memOpsPerCore = 60000;
    config.warmupOpsPerCore = 150000;
    config.memorySystem = MemorySystemKind::kHeteroDmr;
    config.seed = seed;
    config.marginGuardBandMts = 400;
    config.workload.writeBurstPeriodOps = 7500;
    config.workload.writeBurstDuty = 0.2;
    config.workload.writeBurstFraction = 0.6;
    config.workload.checkpointWaitUs = 10.0;
    config.monitoring = fig19Monitoring();
    util::checkOk(monitor::parseSchemeConfig(
        monitor::defaultPhaseAdaptiveSchemes(), &config.schemes));
    // Identical copies run side by side: a fixed amount of work that
    // keeps the host's cores busy (one node alone measured far less
    // steadily on a shared host), and each copy must match the others.
    return std::vector<NodeConfig>(kMonitoredCopies, config);
}

/** Every NodeStats field the model reports, compared exactly. */
bool
sameStats(const NodeStats &a, const NodeStats &b)
{
    return a.execSeconds == b.execSeconds &&
           a.instructions == b.instructions && a.memOps == b.memOps &&
           a.dramReads == b.dramReads &&
           a.dramDemandReads == b.dramDemandReads &&
           a.dramWrites == b.dramWrites &&
           a.dramWriteRankOps == b.dramWriteRankOps &&
           a.rowHits == b.rowHits &&
           a.rowMissesPlusConflicts == b.rowMissesPlusConflicts &&
           a.corrections == b.corrections &&
           a.uncorrectedErrors == b.uncorrectedErrors &&
           a.demotions == b.demotions && a.quarantines == b.quarantines &&
           a.marginPromotions == b.marginPromotions &&
           a.ladderRetries == b.ladderRetries &&
           a.ladderRecoveries == b.ladderRecoveries &&
           a.budgetDemotions == b.budgetDemotions &&
           a.cleanedLines == b.cleanedLines &&
           a.writeModeEntries == b.writeModeEntries &&
           a.avgReadLatencyNs == b.avgReadLatencyNs &&
           a.busUtilization == b.busUtilization &&
           a.readBandwidthGBs == b.readBandwidthGBs &&
           a.writeBandwidthGBs == b.writeBandwidthGBs &&
           a.commFraction == b.commFraction &&
           a.writeModeSeconds == b.writeModeSeconds &&
           a.transitionSeconds == b.transitionSeconds &&
           a.dramAccessesPerInstruction == b.dramAccessesPerInstruction &&
           a.energy.totalJ() == b.energy.totalJ() &&
           a.energy.epiNj == b.energy.epiNj &&
           a.monitorSamples == b.monitorSamples &&
           a.monitorAggregations == b.monitorAggregations &&
           a.monitorSplits == b.monitorSplits &&
           a.monitorMerges == b.monitorMerges &&
           a.monitorThrottles == b.monitorThrottles &&
           a.monitorRegions == b.monitorRegions &&
           a.schemeHits == b.schemeHits && a.schemeFires == b.schemeFires &&
           a.monitorDrains == b.monitorDrains &&
           a.monitorOverheadFraction == b.monitorOverheadFraction;
}

/**
 * runGrid over `configs`, submitted in reverse on odd calls so the
 * workers meet the configurations in a different order; the returned
 * stats are always in `configs` order.
 */
std::vector<NodeStats>
runGridOrdered(const std::vector<NodeConfig> &configs, unsigned threads,
               bool reversed)
{
    if (!reversed)
        return node::runGrid(configs, threads);
    std::vector<NodeConfig> flipped(configs.rbegin(), configs.rend());
    std::vector<NodeStats> stats = node::runGrid(flipped, threads);
    std::reverse(stats.begin(), stats.end());
    return stats;
}

// ---- Per-layer replays (traced runs only). ----

/** A memory request the cache replay sends below the LLC. */
struct DramOp
{
    std::uint64_t line = 0;
    bool write = false;
};

struct LayerReplay
{
    double streamSeconds = 0.0;
    std::uint64_t streamOps = 0;

    double cacheSeconds = 0.0;
    std::uint64_t l1Accesses = 0, l1Hits = 0, l3Accesses = 0, l3Hits = 0;

    double prefetchSeconds = 0.0;
    std::uint64_t prefetchMisses = 0, prefetchIssued = 0;

    double dramSeconds = 0.0;
    std::uint64_t dramRequests = 0, rowHits = 0, rowAccesses = 0;

    double monitorSeconds = 0.0;
    std::uint64_t monitorAccesses = 0;
};

/** Drain every rank's stream of `config`, timed. */
std::vector<std::vector<wl::Op>>
drainStreams(const NodeConfig &config, LayerReplay &out)
{
    const std::uint64_t per_rank =
        config.warmupOpsPerCore + config.memOpsPerCore;
    std::vector<std::vector<wl::Op>> ranks(config.hierarchy.cores);
    for (auto &ops : ranks)
        ops.reserve(4 * per_rank);
    const double t0 = nowSeconds();
    for (unsigned c = 0; c < config.hierarchy.cores; ++c) {
        wl::SyntheticHpcStream stream(config.workload, c, per_rank,
                                      config.seed);
        wl::Op op;
        while (stream.next(op))
            ranks[c].push_back(op);
    }
    out.streamSeconds += nowSeconds() - t0;
    for (const auto &ops : ranks)
        out.streamOps += ops.size();
    return ranks;
}

/**
 * Play the ranks' loads and stores, interleaved one op per rank,
 * through Hierarchy-1 geometry caches (per-core L1 and L2, shared L3)
 * with Cache::access/fill.  Returns the LLC-miss stream (demand reads
 * and dirty write-backs) and each core's L2-miss addresses.
 */
std::vector<DramOp>
replayCaches(const NodeConfig &config,
             const std::vector<std::vector<wl::Op>> &ranks,
             std::vector<std::vector<std::uint64_t>> &l2_misses,
             LayerReplay &out)
{
    const node::HierarchyConfig &h = config.hierarchy;
    std::vector<std::unique_ptr<cache::Cache>> l1, l2;
    for (unsigned c = 0; c < h.cores; ++c) {
        cache::CacheConfig l1c;
        l1c.sizeBytes = 64 * 1024;
        l1c.ways = 8;
        l1.push_back(std::make_unique<cache::Cache>(l1c));
        cache::CacheConfig l2c;
        l2c.sizeBytes =
            static_cast<std::uint64_t>(h.l2MiBPerCore * 1024.0 * 1024.0);
        l2c.ways = 16;
        l2.push_back(std::make_unique<cache::Cache>(l2c));
    }
    cache::CacheConfig l3c;
    l3c.sizeBytes = static_cast<std::uint64_t>(h.l3MiBPerCore * h.cores *
                                               1024.0 * 1024.0);
    l3c.ways = 16;
    cache::Cache l3(l3c);

    std::vector<DramOp> dram;
    l2_misses.assign(h.cores, {});
    auto l3_fill = [&](std::uint64_t line) {
        const cache::AccessResult r = l3.fill(line, true, false);
        if (r.evictedDirty)
            dram.push_back({r.victimAddress, true});
    };

    const double t0 = nowSeconds();
    std::size_t longest = 0;
    for (const auto &ops : ranks)
        longest = std::max(longest, ops.size());
    for (std::size_t i = 0; i < longest; ++i) {
        for (unsigned c = 0; c < h.cores; ++c) {
            if (i >= ranks[c].size())
                continue;
            const wl::Op &op = ranks[c][i];
            if (op.kind != wl::Op::Kind::kLoad &&
                op.kind != wl::Op::Kind::kStore)
                continue;
            const bool write = op.kind == wl::Op::Kind::kStore;
            const std::uint64_t line = op.address & ~63ull;
            ++out.l1Accesses;
            const cache::AccessResult r1 = l1[c]->access(line, write);
            if (r1.hit) {
                ++out.l1Hits;
                continue;
            }
            if (r1.evictedDirty) {
                const cache::AccessResult s =
                    l2[c]->fill(r1.victimAddress, true, false);
                if (s.evictedDirty)
                    l3_fill(s.victimAddress);
            }
            const cache::AccessResult r2 = l2[c]->access(line, false);
            if (r2.evictedDirty)
                l3_fill(r2.victimAddress);
            if (r2.hit)
                continue;
            l2_misses[c].push_back(line);
            ++out.l3Accesses;
            const cache::AccessResult r3 = l3.access(line, false);
            if (r3.hit) {
                ++out.l3Hits;
                continue;
            }
            dram.push_back({line, false});
            if (r3.evictedDirty)
                dram.push_back({r3.victimAddress, true});
        }
    }
    out.cacheSeconds += nowSeconds() - t0;
    return dram;
}

/** Train an L2-degree stride prefetcher per core on its L2 misses. */
void
replayPrefetchers(const std::vector<std::vector<std::uint64_t>> &l2_misses,
                  LayerReplay &out)
{
    std::vector<std::uint64_t> scratch;
    const double t0 = nowSeconds();
    for (const auto &misses : l2_misses) {
        cache::StridePrefetcher prefetcher(8);
        for (const std::uint64_t line : misses) {
            scratch.clear();
            prefetcher.observeMiss(line, scratch);
        }
        out.prefetchIssued += prefetcher.issued();
        out.prefetchMisses += misses.size();
    }
    out.prefetchSeconds += nowSeconds() - t0;
}

/** LLC-miss requests the DRAM replay feeds per workload. */
constexpr std::size_t kDramReplayRequests = 50000;

/**
 * Feed the first kDramReplayRequests of the LLC-miss stream, in
 * order, to one spec-timing memory controller on its own event queue,
 * at most 64 requests in flight.
 */
void
replayDram(const std::vector<DramOp> &all, LayerReplay &out)
{
    const std::vector<DramOp> stream(
        all.begin(),
        all.begin() + std::min(all.size(), kDramReplayRequests));
    sim::EventQueue events;
    dram::ControllerConfig config;
    config.readModeTiming = dram::DramTiming::fromSetting(
        dram::MemorySetting::manufacturerSpec());
    config.writeModeTiming = config.readModeTiming;
    dram::MemoryController controller(events, config);

    std::size_t next = 0, outstanding = 0;
    std::function<void()> pump = [&] {
        while (next < stream.size() && outstanding < 64) {
            const DramOp &op = stream[next];
            if (op.write ? controller.writeQueueFull()
                         : controller.readQueueFull())
                return;
            dram::MemRequest request;
            request.address = op.line;
            request.type = op.write ? dram::MemRequest::Type::kWrite
                                    : dram::MemRequest::Type::kRead;
            request.arrival = events.curTick();
            request.onComplete = [&](util::Tick) {
                --outstanding;
                pump();
            };
            ++outstanding;
            ++next;
            if (op.write)
                controller.enqueueWrite(std::move(request));
            else
                controller.enqueueRead(std::move(request));
        }
    };
    const double t0 = nowSeconds();
    pump();
    events.run();
    out.dramSeconds += nowSeconds() - t0;
    out.dramRequests += next;
    const dram::ControllerStats &s = controller.stats();
    out.rowHits += s.rowHits;
    out.rowAccesses += s.rowHits + s.rowMisses + s.rowConflicts;
}

/** Sample every load/store through a fig19 region sampler. */
void
replayMonitor(const NodeConfig &config,
              const std::vector<std::vector<wl::Op>> &ranks,
              LayerReplay &out)
{
    monitor::MonitorConfig mon = config.monitoring;
    mon.cores = config.hierarchy.cores;
    monitor::RegionSampler sampler(mon);
    // One node-wide clock advancing by the benchmark's nominal cost
    // per memory op, shared across the interleaved ranks.
    const util::Tick step = std::max<util::Tick>(
        1, static_cast<util::Tick>(config.workload.estimatedNsPerMemOp *
                                   util::kTicksPerNs / mon.cores));
    util::Tick now = 0;
    std::size_t longest = 0;
    for (const auto &ops : ranks)
        longest = std::max(longest, ops.size());
    const double t0 = nowSeconds();
    for (std::size_t i = 0; i < longest; ++i) {
        for (const auto &ops : ranks) {
            if (i >= ops.size())
                continue;
            const wl::Op &op = ops[i];
            if (op.kind != wl::Op::Kind::kLoad &&
                op.kind != wl::Op::Kind::kStore)
                continue;
            now += step;
            sampler.onAccess(op.address & ~63ull,
                             op.kind == wl::Op::Kind::kStore, now);
            ++out.monitorAccesses;
        }
    }
    out.monitorSeconds += nowSeconds() - t0;
}

/** Replay each distinct (workload, seed) stream of the grid. */
LayerReplay
replayLayers(const std::vector<NodeConfig> &configs, bool monitored)
{
    LayerReplay out;
    std::map<std::string, bool> seen;
    for (const NodeConfig &config : configs) {
        if (seen[config.workload.name])
            continue; // baseline and Hetero-DMR share the stream
        seen[config.workload.name] = true;
        const auto ranks = drainStreams(config, out);
        std::vector<std::vector<std::uint64_t>> l2_misses;
        const std::vector<DramOp> llc_misses =
            replayCaches(config, ranks, l2_misses, out);
        replayPrefetchers(l2_misses, out);
        replayDram(llc_misses, out);
        if (monitored)
            replayMonitor(config, ranks, out);
    }
    return out;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The shared body of both node workloads. */
void
runNodeGrid(const Options &options, Report &report, bool monitored)
{
    std::vector<std::vector<NodeConfig>> lane_grids(kSetupLanes);
    // The first `distinct` configurations differ; the rest are copies.
    std::vector<std::size_t> distincts(kSetupLanes);
    // Set-up: build the grid and construct each distinct node once
    // (cache prefill and functional warm-up), which also warms the host.
    const double setup = medianSetupSeconds([&](std::size_t lane) {
        lane_grids[lane] = monitored ? writeMonitoredGrid(options.seed)
                                     : readGrid(options.seed);
        distincts[lane] = monitored ? 1 : lane_grids[lane].size();
        for (std::size_t i = 0; i < distincts[lane]; ++i)
            node::NodeSystem warm(lane_grids[lane][i]);
    });
    const std::vector<NodeConfig> configs = std::move(lane_grids[0]);
    const std::size_t distinct = distincts[0];
    lane_grids.clear();
    const unsigned threads = std::max(
        1u, std::min<unsigned>(std::thread::hardware_concurrency(),
                               static_cast<unsigned>(configs.size())));
    std::printf("node grid: %zu configs on %u workers\n", configs.size(),
                threads);

    std::vector<NodeStats> first;
    std::uint64_t grids = 0, runs = 0, failed_runs = 0;
    auto rep = [&](Tracer *tracer) {
        std::vector<NodeStats> stats;
        {
            ScopedSpan span(tracer, "node.run_grid");
            stats = runGridOrdered(configs, threads, grids % 2 == 1);
        }
        ++grids;
        if (first.empty())
            first = stats;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const std::string name = configs[i].workload.name + "/" +
                                     node::toString(configs[i].memorySystem);
            bool ok = report.check(
                sameStats(stats[i], first[i % distinct]),
                name + ": stats identical across repetitions, orders and "
                       "copies");
            ok &= report.check(stats[i].uncorrectedErrors == 0,
                               name + ": no uncorrected errors");
            ++runs;
            failed_runs += ok ? 0 : 1;
        }
    };

    const std::vector<double> untraced =
        repeatFor(options.seconds, [&] { rep(nullptr); });
    report.count(runs, failed_runs);

    std::uint64_t mem_ops = 0;
    NodeStats sum;
    std::uint64_t row_total = 0;
    for (const NodeStats &s : first)
        mem_ops += s.memOps;
    first.resize(distinct);
    for (const NodeStats &s : first) {
        sum.execSeconds += s.execSeconds;
        sum.dramReads += s.dramReads;
        sum.dramWrites += s.dramWrites;
        sum.rowHits += s.rowHits;
        row_total += s.rowHits + s.rowMissesPlusConflicts;
        sum.writeModeEntries += s.writeModeEntries;
        sum.transitionSeconds += s.transitionSeconds;
        sum.corrections += s.corrections;
        sum.marginPromotions += s.marginPromotions;
        sum.schemeFires += s.schemeFires;
        sum.monitorRegions += s.monitorRegions;
        sum.monitorOverheadFraction = std::max(
            sum.monitorOverheadFraction, s.monitorOverheadFraction);
    }

    std::map<std::string, double> speedup;
    if (monitored) {
        const NodeStats &s = first.front();
        report.check(s.monitorOverheadFraction <= 0.02,
                     "monitoring overhead within 2 %");
        report.check(s.schemeFires >= 1, "a scheme fired");
        report.check(s.marginPromotions >= 1, "a margin promotion");
    } else {
        for (std::size_t i = 0; i + 1 < configs.size(); i += 2) {
            const std::string name = configs[i].workload.name;
            speedup[name] =
                first[i].execSeconds / first[i + 1].execSeconds;
            std::printf("%-8s hetero-dmr speedup %.4fx\n", name.c_str(),
                        speedup[name]);
        }
        report.check(speedup["hpcg"] > 1.0,
                     "Hetero-DMR faster than baseline on hpcg");
        report.check(speedup["bfs"] > 1.0,
                     "Hetero-DMR faster than baseline on bfs");
    }

    std::vector<double> rate;
    for (double s : untraced)
        rate.push_back(static_cast<double>(mem_ops) / s);
    const Summary per_rep = summarize(untraced);
    std::printf("timed: %zu repetitions of %llu memory ops, median %.3f s, "
                "p%.1f %.3f s\n",
                per_rep.count, static_cast<unsigned long long>(mem_ops),
                per_rep.median, per_rep.highLevel * 100.0, per_rep.high);

    if (!options.trace) {
        report.add("setup_s", setup);
        report.add("ops_per_s", median(rate));
        report.add("ok_frac", 1.0 - static_cast<double>(failed_runs) /
                                        static_cast<double>(runs));
        report.add("peak_rss_mb", peakRssMiB());
        return;
    }

    Tracer tracer;
    const std::vector<double> traced =
        repeatFor(options.seconds, [&] { rep(&tracer); });
    const double node_s =
        tracer.totalSeconds("node.run_grid") /
        static_cast<double>(traced.size());
    report.add("trace_overhead_frac", median(traced) / median(untraced) - 1.0);
    report.add("node.run_s", node_s);
    report.add("node.ns_per_mem_op",
               node_s * 1e9 / static_cast<double>(mem_ops));
    report.add("node.sim.exec_s", sum.execSeconds);
    report.add("node.sim.dram_reads", static_cast<double>(sum.dramReads));
    report.add("node.sim.dram_writes", static_cast<double>(sum.dramWrites));
    report.add("node.sim.row_hit_ratio",
               ratio(static_cast<double>(sum.rowHits),
                     static_cast<double>(row_total)));
    report.add("node.sim.write_mode_entries",
               static_cast<double>(sum.writeModeEntries));
    report.add("node.sim.transition_s", sum.transitionSeconds);
    report.add("node.sim.corrections", static_cast<double>(sum.corrections));
    report.add("node.sim.margin_promotions",
               static_cast<double>(sum.marginPromotions));
    report.add("node.sim.monitor_overhead", sum.monitorOverheadFraction);
    for (const auto &[name, value] : speedup)
        report.add("node.sim.hdmr_speedup." + name, value);

    const LayerReplay layers = replayLayers(configs, monitored);
    auto per = [](double seconds, std::uint64_t n) {
        return n ? seconds * 1e9 / static_cast<double>(n) : 0.0;
    };
    report.add("workloads.ns_per_op",
               per(layers.streamSeconds, layers.streamOps));
    report.add("cache.ns_per_access",
               per(layers.cacheSeconds, layers.l1Accesses));
    report.add("cache.l1_hit_ratio",
               ratio(static_cast<double>(layers.l1Hits),
                     static_cast<double>(layers.l1Accesses)));
    report.add("cache.l3_hit_ratio",
               ratio(static_cast<double>(layers.l3Hits),
                     static_cast<double>(layers.l3Accesses)));
    report.add("cache.prefetch_ns_per_miss",
               per(layers.prefetchSeconds, layers.prefetchMisses));
    report.add("cache.prefetch_issued",
               static_cast<double>(layers.prefetchIssued));
    report.add("dram.ns_per_request",
               per(layers.dramSeconds, layers.dramRequests));
    report.add("dram.row_hit_ratio",
               ratio(static_cast<double>(layers.rowHits),
                     static_cast<double>(layers.rowAccesses)));
    if (monitored) {
        report.add("monitor.ns_per_access",
                   per(layers.monitorSeconds, layers.monitorAccesses));
        report.add("monitor.regions", static_cast<double>(sum.monitorRegions));
        report.add("monitor.scheme_fires",
                   static_cast<double>(sum.schemeFires));
    }
}

} // namespace

void
runNodeRead(const Options &options, Report &report)
{
    runNodeGrid(options, report, false);
}

void
runNodeWriteMonitored(const Options &options, Report &report)
{
    runNodeGrid(options, report, true);
}

} // namespace perfbench
