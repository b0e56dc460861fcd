/**
 * @file
 * Per-call microbenchmark rows, driven through public functions.
 *
 * The inputs mirror what the fig12 sweep's tick loop feeds these calls:
 * unit normals from a per-entity stream, child streams keyed by entity
 * id, one schedule-and-fire cycle per event with an engine-sized
 * capture, quality queries on an st16 instance with six co-residents
 * (every resident asks once per 2 s tick, so one query in six recomputes
 * and the rest hit the tick cache), and retention polls of an idle
 * instance at the default 10x retention multiple.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/instance_type.hpp"
#include "cloud/machine.hpp"
#include "cloud/provider_profile.hpp"
#include "cloud/spin_up.hpp"
#include "common.hpp"
#include "core/retention.hpp"
#include "profiling/quasar.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

constexpr int kBatches = 7;

/** Keeps a value alive past the optimizer without a library. */
template <typename T>
void
keep(const T& value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/** Median ns per call of @p body(calls) over kBatches batches. */
template <typename Body>
double
nsPerCall(std::size_t calls, Body body)
{
    body(calls / 4); // warm caches and lazy state
    std::vector<double> perCall;
    for (int b = 0; b < kBatches; ++b) {
        const Clock::time_point start = Clock::now();
        body(calls);
        perCall.push_back(secondsSince(start) * 1e9 /
                          static_cast<double>(calls));
    }
    return median(perCall);
}

} // namespace

void
addMicroRows(WorkloadResult& result, std::uint64_t seed)
{
    using namespace hcloud;

    sim::Rng rng(seed);
    result.set("sim.rng_normal_ns", nsPerCall(400000, [&](std::size_t n) {
                   double acc = 0.0;
                   for (std::size_t i = 0; i < n; ++i)
                       acc += rng.normal(0.0, 1.0);
                   keep(acc);
               }),
               "ns");

    const sim::Rng parent(seed ^ 0x9e3779b97f4a7c15ull);
    result.set("sim.rng_child_ns", nsPerCall(20000, [&](std::size_t n) {
                   std::uint64_t acc = 0;
                   for (std::size_t i = 0; i < n; ++i)
                       acc += parent.child(static_cast<std::uint64_t>(i))
                                  .seed();
                   keep(acc);
               }),
               "ns");

    sim::Simulator simulator;
    struct Payload
    {
        double a[6] = {1, 2, 3, 4, 5, 6};
        std::uint64_t n = 0;
    } payload;
    result.set("sim.event_cycle_ns", nsPerCall(400000, [&](std::size_t n) {
                   for (std::size_t i = 0; i < n; ++i) {
                       simulator.after(1.0, [payload]() mutable {
                           ++payload.n;
                       });
                       simulator.step();
                   }
               }),
               "ns");

    const cloud::ProviderProfile gce = cloud::ProviderProfile::gce();
    const cloud::InstanceType& st16 =
        cloud::InstanceTypeCatalog::defaultCatalog().byName("st16");
    cloud::Machine host(1, true, {}, sim::Rng(seed + 3));
    host.allocate(16);
    cloud::Instance busy(1, st16, gce, &host, false, sim::Rng(seed + 9),
                         0.0);
    constexpr sim::JobId kResidents = 6;
    for (sim::JobId job = 1; job <= kResidents; ++job)
        busy.addResident(job, {2.0, 0.1 * static_cast<double>(job)}, 0.0);
    sim::Time qt = 1.0;
    result.set("cloud.effective_quality_ns",
               nsPerCall(300000, [&](std::size_t n) {
                   double acc = 0.0;
                   for (std::size_t i = 0; i < n; ++i) {
                       const sim::JobId self =
                           1 + static_cast<sim::JobId>(i % kResidents);
                       if (self == 1)
                           qt += 2.0;
                       acc += busy.effectiveQuality(qt, 0.6, self);
                   }
                   keep(acc);
               }),
               "ns");

    cloud::Machine idleHost(2, true, {}, sim::Rng(seed + 5));
    idleHost.allocate(16);
    cloud::Instance idle(2, st16, gce, &idleHost, false,
                         sim::Rng(seed + 11), 0.0);
    idle.setState(cloud::InstanceState::Running);
    const cloud::SpinUpModel spinUp(gce, sim::Rng(seed + 13));
    const core::RetentionPolicy retention(10.0, 0.70);
    sim::Time rt = 1.0;
    result.set("core.should_release_ns",
               nsPerCall(300000, [&](std::size_t n) {
                   std::uint64_t released = 0;
                   for (std::size_t i = 0; i < n; ++i) {
                       rt += 2.0;
                       released += retention.shouldRelease(idle, spinUp, rt);
                   }
                   keep(released);
               }),
               "ns");
}

double
bootstrapSeconds()
{
    std::vector<double> samples;
    for (int i = 0; i < 3; ++i) {
        const Clock::time_point start = Clock::now();
        hcloud::profiling::Quasar quasar(hcloud::profiling::QuasarConfig{});
        quasar.warmUp();
        samples.push_back(secondsSince(start));
        keep(quasar);
    }
    return median(samples);
}

} // namespace perfbench
