/**
 * @file
 * Workload `advisor`: an open loop against serve::AdvisorService with
 * its default two workers; every request asks for its longest deadline.
 *
 * One generator thread sends Poisson arrivals drawn from a Zipf(1.0)
 * pool of 10,000 distinct mixes - larger than the 4096-entry decision
 * cache, so hits, misses, rollouts and evictions all occur.  Every
 * request goes encodeRequest -> appendFrame -> nextFrame ->
 * parseRequest before submit().  The load runs at the nominal
 * 2,000 req/s and then up a fixed ladder of 1 k .. 32 k req/s; each
 * request is timed from its due time, so a generator stall is charged
 * to the requests behind it.  A last, closed-loop step keeps the
 * service saturated and measures its capacity.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "serve/advisor.hh"
#include "serve/resilience.hh"
#include "serve/service.hh"
#include "serve/wire.hh"
#include "stats.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace hdmr;
using namespace hdmr::serve;

constexpr std::size_t kPoolSize = 10000;
constexpr double kNominalRps = 2000.0;
constexpr double kLadderRps[] = {1000, 2000, 4000, 8000, 16000, 32000};
/** Zipf draws the set-up sends closed-loop to warm the cache. */
constexpr std::size_t kWarmupDraws = 6000;
/**
 * Requests the saturated step submits at once: below the service's
 * queue capacity of 64, so none is shed, and enough to keep both
 * workers busy until the burst drains.
 */
constexpr std::size_t kBurst = 48;
/** One throughput window of the saturated step, seconds. */
constexpr double kWindowSeconds = 0.25;

/**
 * A seeded pool of mixes with pairwise distinct cache keys.  Every
 * request asks for the service's longest deadline: under the 10 ms
 * default, a host stall of that length expired the requests queued
 * behind it, so how many failed followed the host, not the service.
 */
std::vector<AdvisorRequest>
mixPool(std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<AdvisorRequest> pool;
    std::set<std::uint64_t> keys;
    while (pool.size() < kPoolSize) {
        AdvisorRequest request;
        request.deadlineMicros = ServiceConfig{}.maxDeadlineMicros;
        const std::size_t classes = 1 + rng.uniformInt(0, 2);
        for (std::size_t c = 0; c < classes; ++c) {
            MixClass mix;
            mix.nodes = static_cast<std::uint32_t>(rng.uniformInt(1, 48));
            mix.usageClass = static_cast<std::uint32_t>(rng.uniformInt(0, 2));
            mix.runtimeSeconds = rng.uniform(300.0, 7200.0);
            mix.weight = rng.uniform(0.5, 4.0);
            request.mix.push_back(mix);
        }
        if (keys.insert(AdvisorEngine::cacheKey(request)).second)
            pool.push_back(request);
    }
    return pool;
}

/** Zipf(1.0) over pool ranks; rank r maps to a seeded pool slot. */
class ZipfPicker
{
  public:
    ZipfPicker(std::size_t n, std::uint64_t seed) : slot_(n)
    {
        double total = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            total += 1.0 / static_cast<double>(r + 1);
            cdf_.push_back(total);
        }
        for (double &c : cdf_)
            c /= total;
        for (std::size_t i = 0; i < n; ++i)
            slot_[i] = i;
        util::Rng rng(seed ^ 0x5a17f00dULL);
        std::shuffle(slot_.begin(), slot_.end(), rng);
    }

    std::size_t
    pick(util::Rng &rng) const
    {
        const auto it =
            std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
        const std::size_t rank = std::min<std::size_t>(
            static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
        return slot_[rank];
    }

  private:
    std::vector<double> cdf_;
    std::vector<std::size_t> slot_;
};

double
nowMicros()
{
    return nowSeconds() * 1e6;
}

/** Sleep to just before `due_us`, then spin to it. */
void
waitUntil(double due_us)
{
    const double early = due_us - nowMicros() - 200.0;
    if (early > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(early));
    while (nowMicros() < due_us) {
    }
}

/** What a decision says, without the request id and quality tag. */
bool
sameAnswer(const AdvisorDecision &a, const AdvisorDecision &b)
{
    return a.marginGroup == b.marginGroup && a.heteroDmr == b.heteroDmr &&
           a.expectedSpeedup == b.expectedSpeedup &&
           a.rolloutTurnaroundSeconds == b.rolloutTurnaroundSeconds;
}

/**
 * The wire path every request takes before submit: encodeRequest ->
 * appendFrame -> nextFrame -> parseRequest.  False when the round
 * trip fails or returns another request.
 */
bool
wireRoundTrip(const AdvisorRequest &request, std::vector<std::uint8_t> &stream,
              AdvisorRequest *parsed)
{
    stream.clear();
    appendFrame(encodeRequest(request), &stream);
    std::size_t offset = 0;
    const std::uint8_t *payload = nullptr;
    std::size_t size = 0;
    return nextFrame(stream.data(), stream.size(), &offset, &payload, &size)
               .ok() &&
           parseRequest(payload, size, parsed).ok() && *parsed == request;
}

/** Output checks and per-run tallies shared by every step. */
struct Checker
{
    /** Exact answers by cache key: the memo cached answers must equal. */
    std::map<std::uint64_t, AdvisorDecision> exact;
    std::uint64_t mismatches = 0;
    std::uint64_t invalid = 0;
    std::uint64_t wireMismatches = 0;
    std::uint64_t duplicateOrMissing = 0;

    void
    observe(const AdvisorRequest &request, const AdvisorDecision &d)
    {
        if (!d.validate().ok())
            ++invalid;
        if (d.quality == Quality::kDegraded)
            return;
        const auto [it, fresh] =
            exact.try_emplace(AdvisorEngine::cacheKey(request), d);
        if (!fresh && !sameAnswer(it->second, d))
            ++mismatches;
    }
};

/**
 * One request's slot: the first response callback fills it and then
 * sets `published`; later callbacks only count themselves.
 */
struct Slot
{
    std::atomic<std::uint32_t> responses{0};
    std::atomic<bool> published{false};
    double doneUs = 0.0;
    bool ok = false;
    AdvisorDecision decision;
};

/**
 * The slots of a group of requests.  Shared with the callbacks, so a
 * response arriving after the wait for it gives up still writes into
 * live memory.
 */
struct Responses
{
    explicit Responses(std::size_t n) : slots(n) {}
    std::vector<Slot> slots;
    std::atomic<std::uint64_t> answered{0};
};

/** The response callback of request `i` of `responses`. */
ResponseCallback
respondInto(const std::shared_ptr<Responses> &responses, std::size_t i)
{
    return [responses, i](const ServedResponse &r) {
        Slot &slot = responses->slots[i];
        if (slot.responses.fetch_add(1) == 0) {
            slot.doneUs = nowMicros();
            slot.ok = r.status.ok();
            slot.decision = r.decision;
            slot.published.store(true, std::memory_order_release);
        }
        responses->answered.fetch_add(1, std::memory_order_release);
    };
}

/** Wait (at most 10 s) until every request of `responses` is answered. */
void
awaitAll(const Responses &responses)
{
    const std::uint64_t n = responses.slots.size();
    const double give_up = nowMicros() + 10e6;
    while (responses.answered.load(std::memory_order_acquire) < n &&
           nowMicros() < give_up)
        std::this_thread::yield();
}

/**
 * Wait (at most 10 s) until no request of `responses` is still queued:
 * the service's queue is empty and its workers serve the last ones.
 * Spins on the burst's own counter first, and polls the queue, which
 * takes the service's lock, only for the burst's last requests.
 */
void
awaitDequeued(const AdvisorService &service, const Responses &responses)
{
    const std::uint64_t n = responses.slots.size();
    const std::uint64_t workers = ServiceConfig{}.workers;
    const double give_up = nowMicros() + 10e6;
    while (responses.answered.load(std::memory_order_acquire) + workers < n &&
           nowMicros() < give_up)
        std::this_thread::yield();
    while (service.queueDepth() > 0 && nowMicros() < give_up)
        std::this_thread::yield();
}

/**
 * Check the response in `slot` to `request` (as drawn from the pool).
 * True when it arrived exactly once and is ok.
 */
bool
harvest(const Slot &slot, const AdvisorRequest &request, Checker &checker)
{
    if (!slot.published.load(std::memory_order_acquire) ||
        slot.responses.load() != 1) {
        ++checker.duplicateOrMissing;
        return false;
    }
    if (slot.ok)
        checker.observe(request, slot.decision);
    return slot.ok;
}

struct StepResult
{
    double rateRps = 0.0;
    StepOutcome outcome;
    std::uint64_t degraded = 0;
    bool backlogGrew = false;
    std::size_t queueDepthMax = 0;
};

/**
 * Drive one open-loop step at `rate_rps` for `seconds`; `tracer`
 * wraps the wire round trip and the submit call in spans.
 */
StepResult
runStep(AdvisorService &service, const std::vector<AdvisorRequest> &pool,
        const ZipfPicker &zipf, double rate_rps, double seconds,
        std::uint64_t seed, std::uint64_t first_id, Checker &checker,
        Tracer *tracer)
{
    util::Rng rng(seed);
    const std::size_t n =
        std::max<std::size_t>(1, static_cast<std::size_t>(rate_rps * seconds));
    std::vector<double> due(n);
    std::vector<std::size_t> pick(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += rng.exponential(rate_rps) * 1e6;
        due[i] = t;
        pick[i] = zipf.pick(rng);
    }

    const auto responses = std::make_shared<Responses>(n);
    std::vector<Slot> &slots = responses->slots;
    std::atomic<std::uint64_t> &answered = responses->answered;
    std::vector<RequestTiming> timing(n);
    std::vector<double> outstanding;
    outstanding.reserve(n);
    StepResult result;
    result.rateRps = rate_rps;

    std::vector<std::uint8_t> stream;
    const double start = nowMicros() + 1000.0;
    for (std::size_t i = 0; i < n; ++i) {
        timing[i].dueUs = start + due[i];
        waitUntil(timing[i].dueUs);
        timing[i].sentUs = nowMicros();

        AdvisorRequest request = pool[pick[i]];
        request.id = first_id + i;
        AdvisorRequest parsed;
        {
            ScopedSpan span(tracer, "serve.wire");
            if (!wireRoundTrip(request, stream, &parsed))
                ++checker.wireMismatches;
        }
        {
            ScopedSpan span(tracer, "serve.submit");
            service.submit(parsed, respondInto(responses, i));
        }
        outstanding.push_back(static_cast<double>(
            i + 1 - answered.load(std::memory_order_relaxed)));
        if (i % 64 == 0)
            result.queueDepthMax =
                std::max(result.queueDepthMax, service.queueDepth());
    }
    awaitAll(*responses);
    for (std::size_t i = 0; i < n; ++i) {
        timing[i].ok = harvest(slots[i], pool[pick[i]], checker);
        if (!timing[i].ok)
            continue;
        timing[i].doneUs = slots[i].doneUs;
        if (slots[i].decision.quality == Quality::kDegraded)
            ++result.degraded;
    }
    result.outcome = accountStep(timing);
    result.backlogGrew = backlogGrows(outstanding);
    return result;
}

/** What the saturated step measured. */
struct SaturationResult
{
    std::size_t requests = 0;
    std::size_t failed = 0;
    /** Requests answered ok per second, one value per window. */
    std::vector<double> windowRps;
    /** The service's queue depth right after each burst was submitted. */
    std::vector<double> depthAfterBurst;
};

/**
 * Keep the service saturated for `seconds`: submit kBurst requests at
 * once, and the next burst the moment the queue is empty again, while
 * the workers still serve the last requests of the one before - so
 * they never wait for work.  Each burst goes through the wire path
 * while the one before it is being served.  A burst, not a fixed
 * number outstanding, keeps the LIFO queue from starving its oldest
 * requests past their deadline: nothing is queued under a new burst.
 */
SaturationResult
runSaturated(AdvisorService &service, const std::vector<AdvisorRequest> &pool,
             const ZipfPicker &zipf, double seconds, std::uint64_t seed,
             std::uint64_t first_id, Checker &checker)
{
    util::Rng rng(seed);
    std::vector<std::uint8_t> stream;
    std::uint64_t next_id = first_id;
    struct Burst
    {
        std::vector<std::size_t> picks;
        std::vector<AdvisorRequest> parsed;
        std::shared_ptr<Responses> responses;
    };
    auto prepare = [&] {
        Burst b;
        b.responses = std::make_shared<Responses>(kBurst);
        for (std::size_t i = 0; i < kBurst; ++i) {
            b.picks.push_back(zipf.pick(rng));
            AdvisorRequest request = pool[b.picks.back()];
            request.id = next_id++;
            b.parsed.emplace_back();
            if (!wireRoundTrip(request, stream, &b.parsed.back()))
                ++checker.wireMismatches;
        }
        return b;
    };

    SaturationResult result;
    std::size_t window_ok = 0;
    auto collect = [&](const Burst &b) {
        awaitAll(*b.responses);
        for (std::size_t i = 0; i < kBurst; ++i) {
            const bool ok =
                harvest(b.responses->slots[i], pool[b.picks[i]], checker);
            window_ok += ok ? 1 : 0;
            result.failed += ok ? 0 : 1;
        }
        result.requests += kBurst;
    };

    Burst next = prepare();
    Burst current, previous;
    const double start = nowSeconds();
    double window_start = start;
    for (;;) {
        if (current.responses)
            awaitDequeued(service, *current.responses);
        const double now = nowSeconds();
        const bool done = now - start >= seconds;
        if (!done) {
            for (std::size_t i = 0; i < kBurst; ++i)
                service.submit(next.parsed[i], respondInto(next.responses, i));
            result.depthAfterBurst.push_back(
                static_cast<double>(service.queueDepth()));
        }
        if (previous.responses)
            collect(previous);
        if (now - window_start >= kWindowSeconds) {
            result.windowRps.push_back(static_cast<double>(window_ok) /
                                       (now - window_start));
            window_start = now;
            window_ok = 0;
        }
        if (done) {
            if (current.responses)
                collect(current);
            return result;
        }
        previous = std::move(current);
        current = std::move(next);
        next = prepare();
    }
}

/** Single-threaded engine replay: exact then cached decide() cost. */
void
replayEngine(const std::vector<AdvisorRequest> &pool, Report &report)
{
    AdvisorEngine engine{AdvisorConfig{}};
    const std::size_t n = 300;
    std::vector<double> exact_us, cached_us;
    std::vector<AdvisorDecision> exact(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double t0 = nowMicros();
        exact[i] = engine.decide(pool[i], Deadline());
        exact_us.push_back(nowMicros() - t0);
    }
    bool same = true;
    for (std::size_t i = 0; i < n; ++i) {
        const double t0 = nowMicros();
        const AdvisorDecision cached = engine.decide(pool[i], Deadline());
        cached_us.push_back(nowMicros() - t0);
        same &= exact[i].quality == Quality::kExact &&
                cached.quality == Quality::kCached &&
                sameAnswer(exact[i], cached);
    }
    report.check(same, "replayed cached answers equal their exact answers");
    report.add("serve.decide_exact_us", median(exact_us));
    report.add("serve.decide_cached_us", median(cached_us));
}

void
printStep(const char *label, const StepResult &s, bool passes)
{
    const StepOutcome &o = s.outcome;
    std::printf("%-8s %6.0f rps  n=%-6zu failed=%-5zu p50=%.0f p99=%.0f "
                "p%.2f=%.0f us  late p99=%.0f p%.2f=%.0f us  backlog %s  "
                "%s\n",
                label, s.rateRps, o.requests, o.failed, o.latency.median,
                o.latencyP99Us, o.latency.highLevel * 100.0, o.latency.high,
                o.latenessP99Us, o.lateness.highLevel * 100.0,
                o.lateness.high, s.backlogGrew ? "grows" : "flat",
                passes ? "pass" : "FAIL");
}

} // namespace

void
runAdvisor(const Options &options, Report &report)
{
    struct Setup
    {
        std::vector<AdvisorRequest> pool;
        std::unique_ptr<ZipfPicker> zipf;
        std::unique_ptr<AdvisorService> service;
        Checker checker;
    };
    std::vector<Setup> setups(kSetupLanes);
    // Set-up: the pool, the service, and a closed-loop cache warm-up.
    const double setup = medianSetupSeconds([&](std::size_t lane) {
        Setup &u = setups[lane];
        u.service.reset();
        u.checker = Checker{};
        u.pool = mixPool(options.seed);
        u.zipf = std::make_unique<ZipfPicker>(u.pool.size(), options.seed);
        u.service = std::make_unique<AdvisorService>(ServiceConfig{},
                                                     AdvisorConfig{});
        util::Rng rng(options.seed ^ 0x3a3a3a3aULL);
        for (std::size_t i = 0; i < kWarmupDraws; ++i) {
            const AdvisorRequest &request = u.pool[u.zipf->pick(rng)];
            u.checker.observe(request,
                              u.service->engine().decide(request, Deadline()));
        }
    });
    const std::vector<AdvisorRequest> pool = std::move(setups[0].pool);
    const std::unique_ptr<ZipfPicker> zipf = std::move(setups[0].zipf);
    const std::unique_ptr<AdvisorService> service =
        std::move(setups[0].service);
    Checker checker = std::move(setups[0].checker);
    setups.clear();
    const AdvisorStats warm = service->engine().stats();

    // A run's time: 30 % at the nominal rate, 40 % up the ladder and
    // 30 % saturated.
    const double nominal_s = 0.3 * options.seconds;
    const double rung_s = 0.4 * options.seconds /
                          static_cast<double>(std::size(kLadderRps));
    const double saturated_s = 0.3 * options.seconds;
    std::uint64_t next_id = 1;
    std::uint64_t step_seed = options.seed * 0x9e3779b97f4a7c15ULL;
    auto step = [&](double rate, double seconds, Tracer *tracer) {
        const StepResult r =
            runStep(*service, pool, *zipf, rate, seconds, ++step_seed,
                    next_id, checker, tracer);
        next_id += r.outcome.requests;
        return r;
    };

    const StepResult nominal = step(kNominalRps, nominal_s, nullptr);
    std::vector<StepResult> rungs;
    std::vector<LadderStep> ladder;
    for (const double rate : kLadderRps) {
        rungs.push_back(step(rate, rung_s, nullptr));
        const StepResult &s = rungs.back();
        LadderStep l;
        l.rateRps = s.rateRps;
        l.requests = s.outcome.requests;
        l.failed = s.outcome.failed;
        l.p99Us = s.outcome.latencyP99Us;
        l.lateP99Us = s.outcome.latenessP99Us;
        l.backlogGrew = s.backlogGrew;
        ladder.push_back(l);
    }
    const double max_rps = maxSustainedRps(ladder);
    const SaturationResult saturated =
        runSaturated(*service, pool, *zipf, saturated_s, ++step_seed,
                     next_id, checker);
    next_id += saturated.requests;

    printStep("nominal", nominal, true);
    for (std::size_t i = 0; i < rungs.size(); ++i)
        printStep("ladder", rungs[i], stepPasses(ladder[i]));
    std::printf("max_rps %.0f (p99 <= %.0f us, failed <= %.0f%%, flat "
                "backlog, generator on time)\n",
                max_rps, kP99LimitUs, kMaxFailedFraction * 100.0);
    const Summary capacity = summarize(saturated.windowRps);
    const double depth_after_burst = median(saturated.depthAfterBurst);
    std::printf("saturated: n=%zu failed=%zu in bursts of %zu, %zu windows "
                "of %.2f s: median %.0f rps, p%.1f %.0f rps; queue depth "
                "after a burst: median %.0f\n",
                saturated.requests, saturated.failed, kBurst, capacity.count,
                kWindowSeconds, capacity.median, capacity.highLevel * 100.0,
                capacity.high, depth_after_burst);

    report.check(checker.duplicateOrMissing == 0,
                 "every submitted request received exactly one response");
    report.check(checker.invalid == 0, "every ok decision validates");
    report.check(checker.wireMismatches == 0,
                 "every wire round trip returned the same request");
    report.check(checker.mismatches == 0,
                 "cached answers equal the exact answers they memoize");
    // The capacity figure is the service's only while the workers, not
    // the generator, set the pace: most of each burst must still be
    // queued when its last request has been submitted.
    report.check(depth_after_burst >= 0.5 * static_cast<double>(kBurst),
                 "the saturated step kept the service's queue full");

    const StepOutcome &nom = nominal.outcome;
    report.count(nom.requests + saturated.requests,
                 nom.failed + saturated.failed);
    const double answered = static_cast<double>(nom.requests - nom.failed);
    if (!options.trace) {
        report.add("setup_s", setup);
        // Throughput: the service's capacity, the median over the
        // saturated step's windows.
        report.add("ops_per_s", capacity.median);
        report.add("ok_frac", (answered - static_cast<double>(nominal.degraded)) /
                                  static_cast<double>(nom.requests));
        report.add("peak_rss_mb", peakRssMiB());
        return;
    }

    Tracer tracer;
    const StepResult traced = step(kNominalRps, nominal_s, &tracer);
    report.add("trace_overhead_frac",
               traced.outcome.latency.median / nom.latency.median - 1.0);
    const AdvisorStats stats = service->engine().stats();
    const ServiceCounters counters = service->counters();
    const double hits = static_cast<double>(stats.cacheHits - warm.cacheHits);
    const double misses =
        static_cast<double>(stats.cacheMisses - warm.cacheMisses);
    std::size_t depth = nominal.queueDepthMax;
    for (const StepResult &s : rungs)
        depth = std::max(depth, s.queueDepthMax);
    // A p99 above every answered request (more than 1 % failed) reads
    // as the whole step's duration: above any limit, but finite.
    report.add("serve.p50_us", nom.latency.median);
    report.add("serve.p99_us", std::isfinite(nom.latencyP99Us)
                                   ? nom.latencyP99Us
                                   : nominal_s * 1e6);
    report.add("serve.max_rps", max_rps);
    report.add("serve.cache_hit_ratio", hits / (hits + misses));
    report.add("serve.shed_queue_full",
               static_cast<double>(counters.shedQueueFull));
    report.add("serve.rollout_deadline_hits",
               static_cast<double>(stats.rolloutsDeadlineHit -
                                   warm.rolloutsDeadlineHit));
    report.add("serve.queue_depth_max", static_cast<double>(depth));
    report.add("serve.loadgen_late_p99_us", nom.latenessP99Us);
    report.add("serve.degraded_frac",
               answered > 0.0 ? static_cast<double>(nominal.degraded) / answered
                              : 0.0);
    report.add("serve.failed_frac", static_cast<double>(nom.failed) /
                                        static_cast<double>(nom.requests));
    // Medians of the live spans: a host stall inside one span would
    // dominate a mean.
    report.add("serve.wire_roundtrip_ns",
               median(tracer.durations("serve.wire")) * 1e9);
    report.add("serve.submit_ns",
               median(tracer.durations("serve.submit")) * 1e9);
    replayEngine(pool, report);
}

} // namespace perfbench
