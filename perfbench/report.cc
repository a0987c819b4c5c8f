#include "report.hh"

#include <chrono>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

#include "stats.hh"

namespace perfbench
{

double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> table = {
        {"setup_s", "s"},
        {"ops_per_s", "1/s"},
        {"ok_frac", "frac"},
        {"peak_rss_mb", "MiB"},
    };
    return table;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> table = {
        {"host.calib_ns", "ns"},
        {"trace_overhead_frac", "frac"},
        {"paper_gap.turnaround", "frac"},
        {"traces.generate_s", "s"},
        {"sched.run_s", "s"},
        {"sched.timed_share", "frac"},
        {"sched.ns_per_event", "ns"},
        {"sched.events", "count"},
        {"sched.digest_epochs", "count"},
        {"snapshot.state_bytes", "bytes"},
        {"snapshot.restore_s", "s"},
        {"workloads.ns_per_op", "ns"},
        {"cache.ns_per_access", "ns"},
        {"cache.l1_hit_ratio", "frac"},
        {"cache.l3_hit_ratio", "frac"},
        {"cache.prefetch_ns_per_miss", "ns"},
        {"cache.prefetch_issued", "count"},
        {"dram.ns_per_request", "ns"},
        {"dram.row_hit_ratio", "frac"},
        {"monitor.ns_per_access", "ns"},
        {"monitor.regions", "count"},
        {"monitor.scheme_fires", "count"},
        {"node.run_s", "s"},
        {"node.ns_per_mem_op", "ns"},
        {"node.sim.exec_s", "sim_s"},
        {"node.sim.dram_reads", "count"},
        {"node.sim.dram_writes", "count"},
        {"node.sim.row_hit_ratio", "frac"},
        {"node.sim.write_mode_entries", "count"},
        {"node.sim.transition_s", "sim_s"},
        {"node.sim.corrections", "count"},
        {"node.sim.margin_promotions", "count"},
        {"node.sim.hdmr_speedup.hpcg", "x"},
        {"node.sim.hdmr_speedup.bfs", "x"},
        {"node.sim.hdmr_speedup.linpack", "x"},
        {"node.sim.hdmr_speedup.lulesh", "x"},
        {"node.sim.monitor_overhead", "frac"},
        {"serve.p50_us", "us"},
        {"serve.p99_us", "us"},
        {"serve.max_rps", "1/s"},
        {"serve.decide_exact_us", "us"},
        {"serve.decide_cached_us", "us"},
        {"serve.cache_hit_ratio", "frac"},
        {"serve.shed_queue_full", "count"},
        {"serve.rollout_deadline_hits", "count"},
        {"serve.queue_depth_max", "count"},
        {"serve.wire_roundtrip_ns", "ns"},
        {"serve.submit_ns", "ns"},
        {"serve.loadgen_late_p99_us", "us"},
        {"serve.degraded_frac", "frac"},
        {"serve.failed_frac", "frac"},
    };
    return table;
}

void
Report::add(const std::string &name, double value)
{
    if (!std::isfinite(value)) {
        check(false, name + " is finite");
        value = 0.0;
    }
    values_[name] = value;
}

bool
Report::check(bool ok, const std::string &what)
{
    if (!ok) {
        correct_ = false;
        std::printf("check FAILED: %s\n", what.c_str());
    }
    return ok;
}

void
Report::count(std::uint64_t n, std::uint64_t failed)
{
    attempted_ += n;
    failed_ += failed;
}

void
Report::print(bool traced)
{
    const std::vector<MetricSpec> &table =
        traced ? perLayerMetrics() : endToEndMetrics();
    std::size_t known = 0;
    for (const MetricSpec &spec : table)
        known += values_.count(spec.name);
    check(known == values_.size(),
          "every reported metric belongs to the printed table");
    std::string json;
    char buf[256];
    for (const MetricSpec &spec : table) {
        const auto it = values_.find(spec.name);
        if (it == values_.end() && !traced)
            check(false, std::string(spec.name) + " was measured");
        const double value = it == values_.end() ? 0.0 : it->second;
        std::printf("%-32s %.6g %s\n", spec.name, value, spec.unit);
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", spec.name, value,
                      spec.unit);
        json += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), json.c_str());
    std::fflush(stdout);
}

std::size_t
Tracer::begin(const char *name)
{
    spans_.push_back({name, nowSeconds(), 0.0, open_});
    open_ = spans_.size() - 1;
    return open_;
}

void
Tracer::end(std::size_t id)
{
    spans_[id].end = nowSeconds();
    open_ = spans_[id].parent;
}

double
Tracer::selfSeconds(const std::string &name) const
{
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name != name)
            continue;
        total += spans_[i].end - spans_[i].start;
        for (const Span &child : spans_)
            if (child.parent == i)
                total -= child.end - child.start;
    }
    return total;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            total += s.end - s.start;
    return total;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.end - s.start);
    return out;
}

double
hostCalibrationNs()
{
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        // A dependent multiply/xor-shift chain: integer-pipeline bound,
        // no memory traffic, and the result is consumed so it cannot
        // be folded away.
        volatile std::uint64_t sink = 0;
        std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(rep);
        const double start = nowSeconds();
        for (int i = 0; i < 20'000'000; ++i) {
            x ^= x >> 29;
            x *= 0xbf58476d1ce4e5b9ULL;
        }
        sink = x;
        (void)sink;
        samples.push_back((nowSeconds() - start) * 1e9);
    }
    return median(samples);
}

double
peakRssMiB()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
