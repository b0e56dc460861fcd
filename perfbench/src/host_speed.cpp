/**
 * @file
 * The host speed sampler and the process CPU clock the gated metrics
 * use.
 *
 * On a shared host the speed of a CPU second drifts: other guests on the
 * same cores slow every instruction down, by tens of percent over
 * minutes, and no clock leaves that out. A thread of the sampler runs a
 * fixed probe computation every kProbePeriodMs throughout a pass, so its
 * samples see the same drift the workload does, and scaling each
 * repetition's CPU seconds by the probes taken during it cancels most of
 * the drift.
 *
 * The probe shares no code with the program, so a change to the program
 * cannot move it. It keeps to the core: xorshift draws fed through
 * floating-point math and pushes and pops on a binary heap of 32 KiB,
 * which stays in the core's own caches. A probe that walked main memory
 * would also feel the workload's own memory traffic and would cancel
 * part of a real change in it.
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <time.h>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr int kDraws = 100000;
constexpr int kHeapSize = 4096;
constexpr int kHeapOps = 20000;

std::uint64_t
xorshift(std::uint64_t& x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

double
clockSeconds(clockid_t clock)
{
    timespec ts{};
    ::clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
        1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Thread CPU seconds of one probe run. */
double
probeOnce(std::uint64_t& x)
{
    const double start = clockSeconds(CLOCK_THREAD_CPUTIME_ID);
    double acc = 0.0;
    for (int i = 0; i < kDraws; ++i) {
        const double u =
            static_cast<double>(xorshift(x) >> 11) * 0x1.0p-53 + 1e-12;
        acc += u * (1.0 - u) / (0.5 + u);
    }
    std::priority_queue<double, std::vector<double>, std::greater<>> heap;
    for (int i = 0; i < kHeapSize; ++i)
        heap.push(static_cast<double>(xorshift(x) >> 11));
    for (int i = 0; i < kHeapOps; ++i) {
        const double t = heap.top();
        heap.pop();
        heap.push(t + static_cast<double>(xorshift(x) >> 40));
    }
    const double took = clockSeconds(CLOCK_THREAD_CPUTIME_ID) - start;
    // Consume the results so the optimizer keeps both loops.
    if (acc < 0.0 || heap.top() < 0.0)
        throw std::logic_error("speed probe: impossible result");
    return took;
}

/** The live sampler, whose thread processCpuSeconds() leaves out. */
std::atomic<const HostSpeed*> gActive{nullptr};

} // namespace

struct HostSpeed::State
{
    struct Sample
    {
        Clock::time_point end;
        double seconds;
    };

    mutable std::mutex mutex;
    std::condition_variable wake;
    bool stop = false;
    std::vector<Sample> samples;
    clockid_t threadClock{};
    std::thread thread;

    ~State()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stop = true;
        }
        wake.notify_all();
        if (thread.joinable())
            thread.join();
    }

    void run()
    {
        std::uint64_t x = 0x2545f4914f6cdd1dull;
        std::unique_lock<std::mutex> lock(mutex);
        while (!stop) {
            lock.unlock();
            const double took = probeOnce(x);
            const Clock::time_point end = Clock::now();
            lock.lock();
            samples.push_back(Sample{end, took});
            wake.wait_for(lock, std::chrono::milliseconds(kProbePeriodMs),
                          [this] { return stop; });
        }
    }
};

HostSpeed::HostSpeed() : state_(std::make_unique<State>())
{
    state_->thread = std::thread([st = state_.get()] { st->run(); });
    if (::pthread_getcpuclockid(state_->thread.native_handle(),
                                &state_->threadClock) != 0)
        throw std::runtime_error("host speed: no CPU clock for the sampler");
    const HostSpeed* none = nullptr;
    if (!gActive.compare_exchange_strong(none, this))
        throw std::logic_error("host speed: one sampler at a time");
}

HostSpeed::~HostSpeed()
{
    const HostSpeed* self = this;
    gActive.compare_exchange_strong(self, nullptr);
}

double
HostSpeed::cpuSeconds() const
{
    return clockSeconds(state_->threadClock);
}

std::size_t
HostSpeed::samples() const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->samples.size();
}

double
HostSpeed::factor(Clock::time_point from, Clock::time_point to) const
{
    std::vector<double> inWindow, all;
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        for (const State::Sample& s : state_->samples) {
            all.push_back(s.seconds);
            if (s.end >= from && s.end <= to)
                inWindow.push_back(s.seconds);
        }
    }
    const double m = median(inWindow.empty() ? all : inWindow);
    return m > 0.0 ? kProbeReferenceSeconds / m : 1.0;
}

double
processCpuSeconds()
{
    const double process = clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const HostSpeed* host = gActive.load();
    return host ? process - host->cpuSeconds() : process;
}

std::string
hostFactorNote(const std::vector<double>& factors, const HostSpeed& host)
{
    const auto [lo, hi] = std::minmax_element(factors.begin(), factors.end());
    char line[192];
    std::snprintf(line, sizeof line,
                  "host speed: CPU seconds scaled to the reference host by "
                  "%.4f (median; %.4f-%.4f over %zu repetitions, %zu probes)",
                  median(factors), *lo, *hi, factors.size(), host.samples());
    return line;
}

} // namespace perfbench
