#include "core/epoch_guard.hh"

namespace hdmr::core
{

EpochGuard::EpochGuard(EpochGuardConfig config)
    : config_(config), baseEpochLength_(config.epochLength),
      threshold_(config.errorThreshold())
{
}

void
EpochGuard::setEpochLength(Tick length, Tick now)
{
    if (length < 1)
        length = 1;
    if (length == config_.epochLength)
        return;
    config_.epochLength = length;
    threshold_ = config_.errorThreshold();
    // Re-anchor: the epoch containing `now` under the new length
    // continues with the counts accumulated so far.
    epochIndex_ = now / config_.epochLength;
}

void
EpochGuard::rollEpoch(Tick now)
{
    const std::uint64_t epoch = now / config_.epochLength;
    if (epoch != epochIndex_) {
        epochIndex_ = epoch;
        errorsThisEpoch_ = 0;
        trippedThisEpoch_ = false;
    }
}

bool
EpochGuard::recordError(Tick now)
{
    rollEpoch(now);
    ++errorsThisEpoch_;
    ++totalErrors_;
    if (!trippedThisEpoch_ && errorsThisEpoch_ > threshold_) {
        trippedThisEpoch_ = true;
        ++trips_;
        return true;
    }
    return false;
}

bool
EpochGuard::tripped(Tick now)
{
    rollEpoch(now);
    return trippedThisEpoch_;
}

Tick
EpochGuard::epochEnd(Tick now) const
{
    return (now / config_.epochLength + 1) * config_.epochLength;
}

} // namespace hdmr::core
