#include "harness.hh"

#include <csignal>
#include <cstdio>
#include <unistd.h>

namespace hdmr::bench
{

namespace
{

volatile std::sig_atomic_t g_stopRequested = 0;

extern "C" void
handleStopSignal(int)
{
    if (g_stopRequested != 0)
        _exit(kForcedExitCode);
    g_stopRequested = 1;
}

} // namespace

void
installStopSignals()
{
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
}

bool
stopRequested()
{
    return g_stopRequested != 0;
}

void
Checks::operator()(bool ok, const char *what)
{
    std::printf("%s: %-*s %s\n", prefix, width, what, ok ? "PASS" : "FAIL");
    failures += ok ? 0 : 1;
}

} // namespace hdmr::bench
