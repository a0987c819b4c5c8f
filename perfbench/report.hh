/**
 * @file
 * Result reporting and tracing for the benchmark.
 *
 * Report collects the named metrics, the output checks and the
 * attempted/failed operation counts of one run and prints them as the
 * final JSON line.  Tracer keeps spans in memory - name, start, end
 * and the enclosing span - recorded by the benchmark's own code
 * around each call into a layer; a layer's self time is its spans'
 * duration minus the part their child spans cover.  A null Tracer
 * records nothing, which is how the untraced runs measure.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the monotonic clock since an arbitrary epoch. */
double nowSeconds();

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
};

/** A metric the benchmark reports: its name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, printed by every untraced run. */
const std::vector<MetricSpec> &endToEndMetrics();
/** The per-layer metrics, printed by every traced run. */
const std::vector<MetricSpec> &perLayerMetrics();

/**
 * Metrics, checks and operation counts of one run.  Every metric
 * name must come from one of the two tables above, which fix the
 * units and the printing order.
 */
class Report
{
  public:
    void add(const std::string &name, double value);

    /** Record one output check; a failure makes the run incorrect. */
    bool check(bool ok, const std::string &what);

    /** Count `n` attempted operations, `failed` of which failed. */
    void count(std::uint64_t n, std::uint64_t failed);

    bool correct() const { return correct_; }

    /**
     * Print the metrics of one table - per-layer when `traced`, else
     * end-to-end - as text, then the JSON result line.  A per-layer
     * metric the workload did not set reads 0 (its layer was not
     * called); a missing end-to-end metric fails the run.
     */
    void print(bool traced);

  private:
    std::map<std::string, double> values_;
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** In-memory span recorder (see file comment). */
class Tracer
{
  public:
    /** Open a span under the innermost open one; returns its id. */
    std::size_t begin(const char *name);
    void end(std::size_t id);

    /** Summed self time of the spans named `name`, seconds. */
    double selfSeconds(const std::string &name) const;
    /** Summed duration of the spans named `name`, seconds. */
    double totalSeconds(const std::string &name) const;
    /** Duration of each span named `name`, seconds. */
    std::vector<double> durations(const std::string &name) const;

  private:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        std::size_t parent = kNone;
    };
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<Span> spans_;
    std::size_t open_ = kNone;
};

/** RAII span; records nothing when the tracer is null. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->begin(name) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    std::size_t id_;
};

/**
 * Nanoseconds a fixed integer reference loop takes on this host
 * (median of five), for normalising records across hosts.
 */
double hostCalibrationNs();

/** Peak resident set of this process, MiB. */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
