#include "serve/advisor.hh"

#include <algorithm>
#include <cmath>

#include "fault/slow_path.hh"
#include "snapshot/state_visitor.hh"
#include "telemetry/metrics.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace hdmr::serve
{

namespace
{

/** Runtime quantum for cache keys: mixes within the same minute of
 *  per-class runtime share a cached decision. */
constexpr double kRuntimeQuantumSeconds = 60.0;
/** Weight-share quantum for cache keys (1/256ths of the mix). */
constexpr double kWeightQuantum = 1.0 / 256.0;

/** Eligible-mix thresholds of the table policy: at least half the mix
 *  under 50 % usage recommends the 0.8 GT/s bucket, at least a quarter
 *  the 0.6 GT/s bucket, less recommends staying at spec. */
constexpr double kAt800EligibleFraction = 0.5;
constexpr double kAt600EligibleFraction = 0.25;

/** Rollout verdict: under this accelerated fraction the recommended
 *  bucket is demoted one step (the table was too optimistic). */
constexpr double kDemoteBelowAcceleratedFraction = 0.5;

double
totalWeight(const AdvisorRequest &request)
{
    double w = 0.0;
    for (const MixClass &c : request.mix)
        w += c.weight;
    return w;
}

} // namespace

util::Status
AdvisorConfig::validate() const
{
    HDMR_RETURN_IF_ERROR(speedups.validate());
    HDMR_RETURN_IF_ERROR(breaker.validate());
    double sum = 0.0;
    for (std::size_t g = 0; g < sched::kGroups; ++g) {
        const double f = groupFractions[g];
        if (!std::isfinite(f) || f < 0.0 || f > 1.0)
            return util::invalidArgument(
                "AdvisorConfig.groupFractions[%zu] = %g outside [0, 1]",
                g, f);
        sum += f;
    }
    if (std::fabs(sum - 1.0) > 1e-6)
        return util::invalidArgument(
            "AdvisorConfig.groupFractions sum to %g, not 1", sum);
    if (rolloutNodes == 0)
        return util::invalidArgument(
            "AdvisorConfig.rolloutNodes must be >= 1");
    if (rolloutJobs == 0)
        return util::invalidArgument(
            "AdvisorConfig.rolloutJobs must be >= 1");
    if (!std::isfinite(rolloutHorizonSeconds) ||
        rolloutHorizonSeconds <= 0.0)
        return util::invalidArgument(
            "AdvisorConfig.rolloutHorizonSeconds = %g is not a finite "
            "positive duration",
            rolloutHorizonSeconds);
    if (cacheCapacity == 0)
        return util::invalidArgument(
            "AdvisorConfig.cacheCapacity must be >= 1");
    return util::Status{};
}

AdvisorEngine::AdvisorEngine(AdvisorConfig config)
    : config_(config), breaker_(config.breaker)
{
    util::checkOk(config_.validate());
}

std::uint64_t
AdvisorEngine::configDigest() const
{
    snapshot::Fnv1a fnv;
    fnv.addDouble(config_.speedups.at800);
    fnv.addDouble(config_.speedups.at600);
    for (double f : config_.groupFractions)
        fnv.addDouble(f);
    fnv.addU32(config_.rolloutNodes);
    fnv.addU64(config_.rolloutJobs);
    fnv.addDouble(config_.rolloutHorizonSeconds);
    fnv.addU64(config_.cacheCapacity);
    fnv.addU64(config_.seed);
    fnv.addU32(config_.breaker.openAfterFailures);
    fnv.addU64(config_.breaker.cooldownMicros);
    return fnv.value();
}

std::uint64_t
AdvisorEngine::cacheKey(const AdvisorRequest &request)
{
    const double total = totalWeight(request);
    snapshot::Fnv1a fnv;
    fnv.addU64(request.mix.size());
    for (const MixClass &c : request.mix) {
        fnv.addU32(c.nodes);
        fnv.addU32(c.usageClass);
        fnv.addU64(static_cast<std::uint64_t>(
            c.runtimeSeconds / kRuntimeQuantumSeconds));
        const double share = total > 0.0 ? c.weight / total : 0.0;
        fnv.addU64(static_cast<std::uint64_t>(share / kWeightQuantum));
    }
    return fnv.value();
}

double
AdvisorEngine::eligibleFraction(const AdvisorRequest &request)
{
    const double total = totalWeight(request);
    if (total <= 0.0)
        return 0.0;
    double eligible = 0.0;
    for (const MixClass &c : request.mix)
        if (c.usageClass < 2)
            eligible += c.weight;
    return eligible / total;
}

AdvisorDecision
AdvisorEngine::tableDecision(const AdvisorRequest &request) const
{
    AdvisorDecision d;
    d.id = request.id;
    d.quality = Quality::kDegraded;
    const double eligible = eligibleFraction(request);
    if (eligible >= kAt800EligibleFraction)
        d.marginGroup = 0;
    else if (eligible >= kAt600EligibleFraction)
        d.marginGroup = 1;
    else
        d.marginGroup = 2;
    d.heteroDmr = d.marginGroup < 2;
    const double speedup = config_.speedups.forGroup(d.marginGroup);
    d.expectedSpeedup =
        std::max(1.0, 1.0 + eligible * (speedup - 1.0));
    d.rolloutTurnaroundSeconds = 0.0;
    return d;
}

std::vector<traces::Job>
AdvisorEngine::rolloutTrace(const AdvisorRequest &request,
                            std::uint64_t key) const
{
    // Purely a function of (config seed, quantized mix): two requests
    // that share a cache key roll out the same synthetic trace, so an
    // exact answer and its cached replay describe the same experiment.
    util::Rng rng(config_.seed ^ key);
    const double total = totalWeight(request);
    std::vector<traces::Job> jobs;
    jobs.reserve(config_.rolloutJobs);
    for (std::size_t i = 0; i < config_.rolloutJobs; ++i) {
        double pick = rng.uniform() * total;
        const MixClass *chosen = &request.mix.back();
        for (const MixClass &c : request.mix) {
            pick -= c.weight;
            if (pick <= 0.0) {
                chosen = &c;
                break;
            }
        }
        traces::Job job;
        job.id = static_cast<unsigned>(i + 1);
        job.submitSeconds =
            rng.uniform(0.0, config_.rolloutHorizonSeconds * 0.5);
        job.nodes = std::max(
            1u, std::min(chosen->nodes, config_.rolloutNodes));
        job.runtimeSeconds =
            std::max(1.0, chosen->runtimeSeconds * rng.uniform(0.5, 1.5));
        job.walltimeSeconds = job.runtimeSeconds * 1.5;
        job.usageClass = chosen->usageClass;
        jobs.push_back(job);
    }
    std::sort(jobs.begin(), jobs.end(),
              [](const traces::Job &a, const traces::Job &b) {
                  return a.submitSeconds < b.submitSeconds ||
                         (a.submitSeconds == b.submitSeconds &&
                          a.id < b.id);
              });
    return jobs;
}

Quality
AdvisorEngine::rolloutRefine(const AdvisorRequest &request,
                             std::uint64_t key, const Deadline &deadline,
                             AdvisorDecision *decision)
{
    stats_.rolloutsAttempted.fetch_add(1, std::memory_order_relaxed);

    sched::ClusterConfig cc;
    cc.nodes = config_.rolloutNodes;
    cc.groupFractions = config_.groupFractions;
    cc.heteroDmr = true;
    cc.marginAware = true;
    cc.speedups = config_.speedups;
    cc.seed = config_.seed ^ key;
    sched::ClusterSimulator sim(cc);

    sched::RunOptions options;
    options.digestEverySeconds = config_.rolloutHorizonSeconds * 1e3;
    fault::SlowPathInjector *injector =
        injector_.load(std::memory_order_acquire);
    options.deadlineExpired = [injector, &deadline]() {
        if (injector != nullptr)
            injector->perturb();
        return deadline.expired();
    };

    const sched::RunOutcome outcome =
        sim.run(rolloutTrace(request, key), options);
    const std::uint64_t now = monotonicMicros();
    if (outcome.deadlineHit || !outcome.completed) {
        // The deadline (or a drain cancel) fired mid-rollout: the
        // table answer stands, and the slow rollout counts toward
        // opening the breaker.
        stats_.rolloutsDeadlineHit.fetch_add(1,
                                             std::memory_order_relaxed);
        breaker_.recordFailure(now);
        return Quality::kDegraded;
    }
    stats_.rolloutsCompleted.fetch_add(1, std::memory_order_relaxed);
    breaker_.recordSuccess(now);

    // Refine the table's recommendation with what the rollout saw:
    // when fewer than half the eligible jobs actually ran fast (group
    // contention, fragmentation), demote the bucket one step.
    const double accelerated = outcome.metrics.acceleratedFraction;
    if (decision->marginGroup < 2 &&
        accelerated < kDemoteBelowAcceleratedFraction) {
        decision->marginGroup =
            static_cast<std::uint8_t>(decision->marginGroup + 1);
        decision->heteroDmr = decision->marginGroup < 2;
    }
    const double speedup =
        config_.speedups.forGroup(decision->marginGroup);
    decision->expectedSpeedup =
        std::max(1.0, 1.0 + accelerated * (speedup - 1.0));
    decision->rolloutTurnaroundSeconds =
        outcome.metrics.meanTurnaroundSeconds;
    return Quality::kExact;
}

bool
AdvisorEngine::cacheLookup(std::uint64_t key,
                           AdvisorDecision *decision) const
{
    std::shared_lock<std::shared_mutex> lock(cacheMu_);
    const auto it = cache_.find(key);
    if (it == cache_.end())
        return false;
    *decision = it->second;
    return true;
}

void
AdvisorEngine::cacheInsert(std::uint64_t key,
                           const AdvisorDecision &decision)
{
    std::unique_lock<std::shared_mutex> lock(cacheMu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        it->second = decision; // raced duplicate; keep its order slot
        return;
    }
    cache_.emplace(key, decision);
    cacheOrder_.push_back(key);
    while (cacheOrder_.size() > config_.cacheCapacity) {
        cache_.erase(cacheOrder_.front());
        cacheOrder_.pop_front();
        stats_.cacheEvictions.fetch_add(1, std::memory_order_relaxed);
    }
}

AdvisorDecision
AdvisorEngine::decide(const AdvisorRequest &request,
                      const Deadline &deadline)
{
    const std::uint64_t key = cacheKey(request);

    if (request.allowCached) {
        AdvisorDecision cached;
        if (cacheLookup(key, &cached)) {
            stats_.cacheHits.fetch_add(1, std::memory_order_relaxed);
            stats_.decisionsCached.fetch_add(1,
                                             std::memory_order_relaxed);
            cached.id = request.id;
            cached.quality = Quality::kCached;
            return cached;
        }
        stats_.cacheMisses.fetch_add(1, std::memory_order_relaxed);
    }

    AdvisorDecision decision = tableDecision(request);
    if (request.allowRollout && !deadline.expired()) {
        if (breaker_.allow(monotonicMicros())) {
            if (rolloutRefine(request, key, deadline, &decision) ==
                Quality::kExact) {
                decision.quality = Quality::kExact;
                // Cache the exact answer under the *request's* id;
                // cache hits rewrite the id on the way out.
                cacheInsert(key, decision);
                stats_.decisionsExact.fetch_add(
                    1, std::memory_order_relaxed);
                return decision;
            }
        } else {
            stats_.rolloutsBreakerRejected.fetch_add(
                1, std::memory_order_relaxed);
        }
    }
    decision.quality = Quality::kDegraded;
    stats_.decisionsDegraded.fetch_add(1, std::memory_order_relaxed);
    return decision;
}

template <class V>
void
AdvisorEngine::visitState(V &v)
{
    v.expect("advisor state: config digest does not match this engine's",
             configDigest());
    // One cache entry is key + id + group + dmr + quality + 2 doubles.
    v.list(cacheOrder_, "advisor cache entries", 8 + 8 + 1 + 1 + 1 + 8 + 8,
           [&](std::uint64_t &key) {
               v(key);
               if constexpr (V::kReading)
                   v.check(cache_.try_emplace(key).second,
                           "advisor state: duplicate cache key");
               AdvisorDecision &d = cache_.at(key);
               v(d.id, d.marginGroup, d.heteroDmr, d.quality,
                 d.expectedSpeedup, d.rolloutTurnaroundSeconds);
               v.check(d.validate());
           });
    v.check(cacheOrder_.size() <= config_.cacheCapacity,
            "advisor state: cache entries exceed the configured capacity",
            util::StatusCode::kResourceExhausted);
}

std::vector<std::uint8_t>
AdvisorEngine::saveState() const
{
    std::shared_lock<std::shared_mutex> lock(cacheMu_);
    snapshot::Serializer out;
    snapshot::writeState(*this, out);
    return out.data();
}

util::Status
AdvisorEngine::restoreState(const std::vector<std::uint8_t> &state)
{
    // Decode into a fresh engine and adopt its cache only on success.
    AdvisorEngine scratch(config_);
    snapshot::Deserializer in(state);
    snapshot::StateReader reader(in);
    scratch.visitState(reader);
    HDMR_RETURN_IF_ERROR(reader.status());
    if (in.remaining() != 0)
        return util::dataLoss("advisor state: %zu trailing bytes",
                              in.remaining());

    std::unique_lock<std::shared_mutex> lock(cacheMu_);
    cache_ = std::move(scratch.cache_);
    cacheOrder_ = std::move(scratch.cacheOrder_);
    return util::Status{};
}

void
AdvisorEngine::setSlowPathInjector(fault::SlowPathInjector *injector)
{
    injector_.store(injector, std::memory_order_release);
}

AdvisorStats
AdvisorEngine::stats() const
{
    AdvisorStats s;
    s.decisionsExact =
        stats_.decisionsExact.load(std::memory_order_relaxed);
    s.decisionsCached =
        stats_.decisionsCached.load(std::memory_order_relaxed);
    s.decisionsDegraded =
        stats_.decisionsDegraded.load(std::memory_order_relaxed);
    s.rolloutsAttempted =
        stats_.rolloutsAttempted.load(std::memory_order_relaxed);
    s.rolloutsCompleted =
        stats_.rolloutsCompleted.load(std::memory_order_relaxed);
    s.rolloutsDeadlineHit =
        stats_.rolloutsDeadlineHit.load(std::memory_order_relaxed);
    s.rolloutsBreakerRejected =
        stats_.rolloutsBreakerRejected.load(std::memory_order_relaxed);
    s.cacheHits = stats_.cacheHits.load(std::memory_order_relaxed);
    s.cacheMisses = stats_.cacheMisses.load(std::memory_order_relaxed);
    s.cacheEvictions =
        stats_.cacheEvictions.load(std::memory_order_relaxed);
    return s;
}

std::size_t
AdvisorEngine::cacheSize() const
{
    std::shared_lock<std::shared_mutex> lock(cacheMu_);
    return cache_.size();
}

void
AdvisorEngine::publishMetrics(telemetry::Registry &registry,
                              const std::string &prefix) const
{
    const AdvisorStats s = stats();
    registry.counter(prefix + ".decisions_exact").set(s.decisionsExact);
    registry.counter(prefix + ".decisions_cached")
        .set(s.decisionsCached);
    registry.counter(prefix + ".decisions_degraded")
        .set(s.decisionsDegraded);
    registry.counter(prefix + ".rollouts_attempted")
        .set(s.rolloutsAttempted);
    registry.counter(prefix + ".rollouts_completed")
        .set(s.rolloutsCompleted);
    registry.counter(prefix + ".rollouts_deadline_hit")
        .set(s.rolloutsDeadlineHit);
    registry.counter(prefix + ".rollouts_breaker_rejected")
        .set(s.rolloutsBreakerRejected);
    registry.counter(prefix + ".cache_hits").set(s.cacheHits);
    registry.counter(prefix + ".cache_misses").set(s.cacheMisses);
    registry.counter(prefix + ".cache_evictions").set(s.cacheEvictions);
    registry.gauge(prefix + ".cache_entries")
        .set(static_cast<double>(cacheSize()));
    registry.gauge(prefix + ".breaker_state")
        .set(static_cast<double>(
            static_cast<std::uint8_t>(breaker_.state())));
    registry.counter(prefix + ".breaker_opened")
        .set(breaker_.openedCount());
    registry.counter(prefix + ".breaker_half_opened")
        .set(breaker_.halfOpenedCount());
    registry.counter(prefix + ".breaker_reclosed")
        .set(breaker_.reclosedCount());
    registry.counter(prefix + ".breaker_rejected")
        .set(breaker_.rejectedCount());
}

} // namespace hdmr::serve
