/**
 * @file
 * The SDC epoch guard of Section III-B.
 *
 * Detection-only Bamboo ECC misses an "8B+" (wider than 8 bytes)
 * error with probability 2^-64, so the system would suffer one silent
 * data corruption per ~1.8e19 *detected* 8B+ errors.  To bound the
 * mean time to SDC at one billion years even under the unreal worst
 * case where every detected error is 8B+, Hetero-DMR counts detected
 * errors per one-hour epoch and, past a threshold of
 *
 *     2^64 / (1e9 years expressed in hours)  ~=  2.1e6 errors/hour,
 *
 * stops exploiting margins (drops to specification) for the rest of
 * the epoch.  Replication and fast operation resume at the next epoch
 * boundary.
 */

#ifndef HDMR_CORE_EPOCH_GUARD_HH
#define HDMR_CORE_EPOCH_GUARD_HH

#include <cstdint>

#include "snapshot/state_visitor.hh"
#include "util/units.hh"

namespace hdmr::core
{

using util::Tick;

/** Epoch-guard parameters. */
struct EpochGuardConfig
{
    Tick epochLength = 3600ull * util::kTicksPerSec; ///< one hour
    /** Target mean time to SDC, in years. */
    double mttSdcYears = 1.0e9;

    /** The per-epoch detected-error budget implied by the target. */
    std::uint64_t
    errorThreshold() const
    {
        // 2^64 detected 8B+ errors per escape, spread over the MTTSDC
        // expressed in *epochs*: a half-hour epoch gets half the
        // hourly budget, a two-hour epoch twice, so the target MTT-SDC
        // holds for any epoch length (the paper's 2.1e6/hour is the
        // one-hour instance).
        const double escapes_per_sdc = 18446744073709551616.0;
        const double hours = mttSdcYears * 365.25 * 24.0;
        const double epoch_hours =
            static_cast<double>(epochLength) /
            static_cast<double>(3600ull * util::kTicksPerSec);
        return static_cast<std::uint64_t>(escapes_per_sdc / hours *
                                          epoch_hours);
    }
};

/** Tracks detected errors per epoch and trips past the threshold. */
class EpochGuard
{
  public:
    explicit EpochGuard(EpochGuardConfig config = {});

    /**
     * Record one detected error at `now`.  Returns true if this error
     * tripped the guard (margin exploitation must stop until the next
     * epoch).
     */
    bool recordError(Tick now);

    /** True while the guard is tripped at time `now`. */
    bool tripped(Tick now);

    /** Tick at which the current epoch (at `now`) ends. */
    Tick epochEnd(Tick now) const;

    /**
     * Adopt a new epoch length at time `now` (clamped to >= 1 tick).
     * The detected-error threshold rescales with the length (see
     * EpochGuardConfig::errorThreshold) so the MTT-SDC target is
     * preserved, and the epoch cursor re-anchors so the epoch
     * containing `now` continues rather than spuriously rolling.
     * Re-applying the current length is a no-op - monitors re-assert
     * their hold levels after a snapshot restore.
     */
    void setEpochLength(Tick length, Tick now);

    /** Epoch length currently in effect. */
    Tick epochLength() const { return config_.epochLength; }
    /** Epoch length the guard was constructed with. */
    Tick baseEpochLength() const { return baseEpochLength_; }

    std::uint64_t errorsThisEpoch() const { return errorsThisEpoch_; }
    std::uint64_t totalErrors() const { return totalErrors_; }
    std::uint64_t trips() const { return trips_; }
    const EpochGuardConfig &config() const { return config_; }

    /**
     * Serialize the guard's mutable state (epoch cursor, per-epoch and
     * total error counts, trip flag) plus a fingerprint of the
     * configuration it was built with.
     */
    void saveState(snapshot::Serializer &out) const { writeState(*this, out); }

    /**
     * Restore a captured state.  Fails the deserializer (and returns
     * false, leaving the guard untouched) when the image is truncated
     * or was taken under a different epoch configuration.
     */
    bool
    restoreState(snapshot::Deserializer &in)
    {
        return readState(*this, in).ok();
    }

    /** The guard's one field list (see snapshot/state_visitor.hh). */
    template <class V>
    void
    visitState(V &v)
    {
        v.expect("epoch-guard snapshot was taken under a different "
                 "epoch configuration",
                 baseEpochLength_, config_.mttSdcYears);
        v(config_.epochLength);
        v.check(config_.epochLength >= 1,
                "epoch-guard snapshot carries a zero epoch length");
        v(epochIndex_, errorsThisEpoch_, totalErrors_, trips_,
          trippedThisEpoch_);
        if constexpr (V::kReading)
            threshold_ = config_.errorThreshold();
    }

  private:
    void rollEpoch(Tick now);

    EpochGuardConfig config_;
    /** Construction-time epoch length (setEpochLength scales off it). */
    Tick baseEpochLength_;
    std::uint64_t threshold_;
    std::uint64_t epochIndex_ = 0;
    std::uint64_t errorsThisEpoch_ = 0;
    std::uint64_t totalErrors_ = 0;
    std::uint64_t trips_ = 0;
    bool trippedThisEpoch_ = false;
};

} // namespace hdmr::core

#endif // HDMR_CORE_EPOCH_GUARD_HH
