/**
 * @file
 * Small pieces every self-gating bench binary shares: the gate
 * counter behind the printed PASS/FAIL lines, and the double-signal
 * stop protocol of the resumable runs.
 *
 * Stop protocol.  installStopSignals() routes SIGINT and SIGTERM to a
 * handler that stays strictly async-signal-safe: the first signal only
 * sets a flag, which the run polls through stopRequested() at its own
 * safe points (a scheduler decision point, a module-hour boundary, a
 * drain) and answers in normal context by writing a final snapshot and
 * exiting 130.  A *second* signal means that graceful path is stuck
 * (most likely a snapshot write hanging on a dead disk): the handler
 * _exit()s at once with kForcedExitCode, skipping the snapshot -
 * _exit() is async-signal-safe and flushes nothing, which is exactly
 * right when the process state is suspect.
 */

#ifndef HDMR_BENCH_HARNESS_HH
#define HDMR_BENCH_HARNESS_HH

namespace hdmr::bench
{

/** Exit code of the second-signal immediate exit (130 = graceful). */
inline constexpr int kForcedExitCode = 131;

/** Install the SIGINT/SIGTERM handlers of the stop protocol. */
void installStopSignals();

/** True once a first SIGINT/SIGTERM has arrived. */
bool stopRequested();

/**
 * Gate counter: each call prints "<prefix>: <what> PASS|FAIL" with
 * `what` left-aligned in `width` columns, and counts the failures.
 */
struct Checks
{
    explicit Checks(const char *prefix = "check", int width = 52)
        : prefix(prefix), width(width)
    {
    }

    void operator()(bool ok, const char *what);

    const char *prefix;
    int width;
    int failures = 0;
};

} // namespace hdmr::bench

#endif // HDMR_BENCH_HARNESS_HH
