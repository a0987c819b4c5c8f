/**
 * @file
 * The advisor engine: answers "which margin bucket / mode schedule
 * for this job mix?" using the node-level SpeedupTable plus, when the
 * latency budget and the circuit breaker permit, a small
 * deadline-bounded cluster-sim rollout of the mix.
 *
 * Degradation ladder (DESIGN.md section 16), best first:
 *
 *   exact     fresh rollout finished inside the deadline;
 *   cached    a prior exact decision for the same (quantized) mix,
 *             served from the decision cache;
 *   degraded  table-only answer - the deadline expired mid-rollout,
 *             the breaker is open, or the request forbade rollouts.
 *
 * The engine itself always answers (shedding is the service layer's
 * job); every answer carries its Quality tag so callers can tell how
 * much to trust it.
 *
 * Thread safety: decide() is safe from any number of worker threads.
 * The speedup table and config are read-only after construction, the
 * decision cache is guarded by a shared_mutex (read-mostly), rollouts
 * build their own throwaway ClusterSimulator, and the stats are
 * atomics.  saveState()/restoreState() must not race decide() -
 * the service calls them only at startup and during drain.
 */

#ifndef HDMR_SERVE_ADVISOR_HH
#define HDMR_SERVE_ADVISOR_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/cluster_sim.hh"
#include "serve/resilience.hh"
#include "serve/wire.hh"
#include "util/status.hh"

namespace hdmr::fault
{
class SlowPathInjector;
} // namespace hdmr::fault

namespace hdmr::telemetry
{
class Registry;
} // namespace hdmr::telemetry

namespace hdmr::serve
{

/** Engine configuration. */
struct AdvisorConfig
{
    /** Node-level Hetero-DMR speedups (the read-mostly shared table). */
    sched::SpeedupTable speedups;
    /** Fleet margin-group fractions (Fig. 11 defaults). */
    std::array<double, sched::kGroups> groupFractions = {0.62, 0.36,
                                                         0.02};
    /** Rollout cluster size (small on purpose: latency over fidelity). */
    unsigned rolloutNodes = 48;
    /** Synthetic jobs per rollout. */
    std::size_t rolloutJobs = 96;
    /** Simulated horizon one rollout covers. */
    double rolloutHorizonSeconds = 4.0 * 3600.0;
    /** Decision-cache capacity (entries; FIFO eviction). */
    std::size_t cacheCapacity = 4096;
    /** Seed for the deterministic synthetic rollout traces. */
    std::uint64_t seed = 1;
    /** Breaker around the rollout path. */
    BreakerConfig breaker;

    /**
     * Reject zero rollout sizes/horizon, bad group fractions, and the
     * nested SpeedupTable/BreakerConfig problems, naming the field.
     */
    util::Status validate() const;
};

/** Engine-level decision statistics (all monotonic). */
struct AdvisorStats
{
    std::uint64_t decisionsExact = 0;
    std::uint64_t decisionsCached = 0;
    std::uint64_t decisionsDegraded = 0;
    std::uint64_t rolloutsAttempted = 0;
    std::uint64_t rolloutsCompleted = 0;
    std::uint64_t rolloutsDeadlineHit = 0;
    std::uint64_t rolloutsBreakerRejected = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;
};

/** The engine. */
class AdvisorEngine
{
  public:
    /** checkOk()s config.validate() - a bad config is a caller bug. */
    explicit AdvisorEngine(AdvisorConfig config);

    /**
     * Answer one (already wire-validated) request under `deadline`.
     * Always returns a decision; the Quality tag says how it was
     * produced.  The request's allowCached/allowRollout gates and the
     * breaker pick the path; a deadline that expires mid-rollout
     * degrades to the table answer and counts as a rollout failure
     * toward the breaker.
     */
    AdvisorDecision decide(const AdvisorRequest &request,
                           const Deadline &deadline);

    /**
     * Serialize the warm-start state: config digest + the decision
     * cache in insertion order (so a restored engine serves
     * bit-identical cached answers).  Wrap in a snapshot file or hand
     * to snapshot::Keeper::save(kAdvisorStateKind, ...).
     */
    std::vector<std::uint8_t> saveState() const;

    /**
     * Restore a saveState() image.  kFailedPrecondition when the image
     * was saved under a different config digest, kDataLoss on
     * truncation/corruption or caps exceeded.  On any error the engine
     * keeps its current state - never half-restored.
     */
    util::Status restoreState(const std::vector<std::uint8_t> &state);

    /** Inject artificial per-event rollout latency (soak/chaos). */
    void setSlowPathInjector(fault::SlowPathInjector *injector);

    /**
     * Copy the stats, breaker counters, and cache gauge into
     * `registry` under `prefix` (e.g. "advisor").  The registry is not
     * thread-safe, so callers serialize publishMetrics() externally;
     * the sources read here are atomics/locked and may race decide().
     */
    void publishMetrics(telemetry::Registry &registry,
                        const std::string &prefix) const;

    AdvisorStats stats() const;
    std::size_t cacheSize() const;
    CircuitBreaker &breaker() { return breaker_; }
    const CircuitBreaker &breaker() const { return breaker_; }

    /** FNV-1a fingerprint of the configuration (stored in images). */
    std::uint64_t configDigest() const;

    /** Cache key of a request's quantized mix (exposed for tests). */
    static std::uint64_t cacheKey(const AdvisorRequest &request);

    const AdvisorConfig &config() const { return config_; }

    /**
     * The warm-start state's one field list (see
     * snapshot/state_visitor.hh); callers hold cacheMu_.
     */
    template <class V>
    void visitState(V &v);

  private:
    /** Pure table-driven answer (the degraded floor and the prior). */
    AdvisorDecision tableDecision(const AdvisorRequest &request) const;

    /** Weighted fraction of the mix with usageClass < 2. */
    static double eligibleFraction(const AdvisorRequest &request);

    /** Build the deterministic synthetic rollout trace for a mix. */
    std::vector<traces::Job> rolloutTrace(const AdvisorRequest &request,
                                          std::uint64_t key) const;

    /** Run one deadline-bounded rollout; returns quality achieved. */
    Quality rolloutRefine(const AdvisorRequest &request,
                          std::uint64_t key, const Deadline &deadline,
                          AdvisorDecision *decision);

    void cacheInsert(std::uint64_t key, const AdvisorDecision &decision);
    bool cacheLookup(std::uint64_t key, AdvisorDecision *decision) const;

    AdvisorConfig config_;
    CircuitBreaker breaker_;
    std::atomic<fault::SlowPathInjector *> injector_{nullptr};

    mutable std::shared_mutex cacheMu_;
    std::unordered_map<std::uint64_t, AdvisorDecision> cache_;
    /** Insertion order for FIFO eviction and deterministic saves. */
    std::deque<std::uint64_t> cacheOrder_;

    struct AtomicStats
    {
        std::atomic<std::uint64_t> decisionsExact{0};
        std::atomic<std::uint64_t> decisionsCached{0};
        std::atomic<std::uint64_t> decisionsDegraded{0};
        std::atomic<std::uint64_t> rolloutsAttempted{0};
        std::atomic<std::uint64_t> rolloutsCompleted{0};
        std::atomic<std::uint64_t> rolloutsDeadlineHit{0};
        std::atomic<std::uint64_t> rolloutsBreakerRejected{0};
        std::atomic<std::uint64_t> cacheHits{0};
        std::atomic<std::uint64_t> cacheMisses{0};
        std::atomic<std::uint64_t> cacheEvictions{0};
    };
    mutable AtomicStats stats_;
};

} // namespace hdmr::serve

#endif // HDMR_SERVE_ADVISOR_HH
