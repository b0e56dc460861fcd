#include "workload/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>
#include <vector>

#include "sim/rng.hpp"
#include "workload/archetypes.hpp"
#include "workload/latency_model.hpp"

namespace hcloud::workload {

namespace {

constexpr double kPi = 3.14159265358979323846;

/** One Gaussian load spike of the high-variability scenario. */
struct Spike
{
    sim::Time center;
    double peak;   // cores above base
    double width;  // Gaussian sigma in seconds
};

/** Spike schedule calibrated so the aggregate peaks near 1226 cores. */
const Spike kHighVarSpikes[] = {
    {1000.0, 600.0, 90.0},   {2200.0, 1026.0, 110.0},
    {3300.0, 500.0, 85.0},   {4500.0, 1026.0, 115.0},
    {5800.0, 650.0, 95.0},
};

double
gaussian(double t, double center, double width)
{
    const double z = (t - center) / width;
    return std::exp(-z * z);
}

/** Low-variability mid-scenario surge (mostly latency-critical load). */
double
lowVarHump(sim::Time t)
{
    return 295.0 * gaussian(t, 3600.0, 1400.0);
}

} // namespace

const char*
toString(ScenarioKind kind)
{
    switch (kind) {
      case ScenarioKind::Static:
        return "static";
      case ScenarioKind::LowVariability:
        return "low-variability";
      case ScenarioKind::HighVariability:
        return "high-variability";
    }
    return "?";
}

double
targetLoad(ScenarioKind kind, sim::Time t)
{
    switch (kind) {
      case ScenarioKind::Static:
        // 854-core steady state with a +/-5% slow ripple (max:min ~1.1).
        return 854.0 + 40.0 * std::sin(2.0 * kPi * t / 2400.0);
      case ScenarioKind::LowVariability:
        return 605.0 + lowVarHump(t);
      case ScenarioKind::HighVariability: {
        double load = 200.0 + 15.0 * std::sin(2.0 * kPi * t / 1700.0);
        for (const auto& s : kHighVarSpikes)
            load += s.peak * gaussian(t, s.center, s.width);
        return load;
      }
    }
    return 0.0;
}

double
targetBatchLoad(ScenarioKind kind, sim::Time t)
{
    switch (kind) {
      case ScenarioKind::Static:
        return 0.55 * targetLoad(kind, t);
      case ScenarioKind::LowVariability:
        // The surge is mostly latency-critical: batch takes only 25% of it.
        return 0.55 * 605.0 + 0.25 * lowVarHump(t);
      case ScenarioKind::HighVariability:
        return 0.60 * targetLoad(kind, t);
    }
    return 0.0;
}

double
targetLcLoad(ScenarioKind kind, sim::Time t)
{
    return targetLoad(kind, t) - targetBatchLoad(kind, t);
}

namespace {

/** Per-scenario job-size/duration distributions. */
struct ShapeParams
{
    double batchDurationMedian;
    double batchDurationSigma;
    double lcLifetimeMedian;
    double lcLifetimeSigma;
};

ShapeParams
shapeParams(ScenarioKind kind)
{
    switch (kind) {
      case ScenarioKind::Static:
        return {300.0, 0.60, 420.0, 0.45};
      case ScenarioKind::LowVariability:
        return {300.0, 0.60, 420.0, 0.45};
      case ScenarioKind::HighVariability:
        // Shorter jobs (paper: 8.1 min average) so load can fall quickly.
        return {400.0, 0.50, 540.0, 0.40};
    }
    return {300.0, 0.6, 420.0, 0.45};
}

/** Draw batch job cores; large deficits get large jobs. */
double
drawBatchCores(sim::Rng& rng, double deficit)
{
    if (deficit > 30.0)
        return rng.bernoulli(0.5) ? 16.0 : 8.0;
    static const std::vector<double> weights = {0.45, 0.35, 0.15, 0.05};
    static const double sizes[] = {1.0, 2.0, 4.0, 8.0};
    return sizes[rng.weightedIndex(weights)];
}

/**
 * Draw LC service cores; large deficits get large services. Services are
 * at least 4 cores: real memcached deployments shard across a few cores
 * so a one-core sizing error never halves capacity.
 */
double
drawLcCores(sim::Rng& rng, double deficit)
{
    if (deficit > 30.0)
        return 16.0;
    static const std::vector<double> weights = {0.55, 0.35, 0.10};
    static const double sizes[] = {4.0, 8.0, 16.0};
    return sizes[rng.weightedIndex(weights)];
}

AppKind
drawBatchKind(sim::Rng& rng, double sensitiveFraction)
{
    if (sensitiveFraction >= 0.0) {
        // Figure 16 mode: kind is chosen by the sensitivity split already;
        // this function is only called for the insensitive batch pool.
        static const std::vector<double> weights = {0.35, 0.25, 0.25, 0.15};
        static const AppKind kinds[] = {
            AppKind::HadoopRecommender, AppKind::HadoopSvm,
            AppKind::HadoopMatFac, AppKind::SparkAnalytics};
        return kinds[rng.weightedIndex(weights)];
    }
    static const std::vector<double> weights = {0.30, 0.20, 0.20, 0.20,
                                                0.10};
    static const AppKind kinds[] = {
        AppKind::HadoopRecommender, AppKind::HadoopSvm,
        AppKind::HadoopMatFac, AppKind::SparkAnalytics,
        AppKind::SparkRealtime};
    return kinds[rng.weightedIndex(weights)];
}

double
memoryPerCore(AppKind kind, sim::Rng& rng)
{
    switch (kind) {
      case AppKind::Memcached:
        return rng.uniform(3.0, 5.5);
      case AppKind::SparkAnalytics:
      case AppKind::SparkRealtime:
        return rng.uniform(2.0, 3.5);
      default:
        return rng.uniform(1.0, 2.0);
    }
}

} // namespace

namespace {

/** FNV-1a over the raw bytes of @p value, continuing from @p h. */
template <typename T>
std::uint64_t
fnv1aMix(std::uint64_t h, const T& value)
{
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

std::uint64_t
digest(const ScenarioConfig& config)
{
    std::uint64_t h = 1469598103934665603ull; // FNV offset basis
    h = fnv1aMix(h, static_cast<std::uint32_t>(config.kind));
    h = fnv1aMix(h, config.duration);
    h = fnv1aMix(h, config.seed);
    h = fnv1aMix(h, config.sensitiveFraction);
    h = fnv1aMix(h, config.loadScale);
    return h;
}

ArrivalTrace
generateScenario(const ScenarioConfig& config)
{
    sim::Rng root(config.seed);
    sim::Rng arrival_rng = root.child("arrival");
    sim::Rng size_rng = root.child("size");
    sim::Rng kind_rng = root.child("kind");
    sim::Rng sens_rng = root.child("sensitivity");

    const ShapeParams shape = shapeParams(config.kind);

    // Outstanding nominal demand per class, drained by a min-heap of
    // (nominal end, cores, isBatch).
    struct Active
    {
        sim::Time end;
        double cores;
        bool batch;
        bool operator>(const Active& o) const { return end > o.end; }
    };
    std::priority_queue<Active, std::vector<Active>, std::greater<Active>>
        active;
    double demand_batch = 0.0;
    double demand_lc = 0.0;

    ArrivalTrace trace;
    sim::JobId next_id = 1;
    sim::Time t = 0.0;
    // Stop arrivals early enough that nominal completions fit the horizon.
    const sim::Time arrival_cutoff = config.duration * 0.93;

    while (true) {
        t += arrival_rng.exponential(1.0);
        if (t >= arrival_cutoff)
            break;
        while (!active.empty() && active.top().end <= t) {
            const Active& a = active.top();
            (a.batch ? demand_batch : demand_lc) -= a.cores;
            active.pop();
        }

        const double target_b =
            targetBatchLoad(config.kind, t) * config.loadScale;
        const double target_l =
            targetLcLoad(config.kind, t) * config.loadScale;
        const double deficit_b = target_b - demand_batch;
        const double deficit_l = target_l - demand_lc;
        if (deficit_b <= 0.0 && deficit_l <= 0.0) {
            // Demand satisfied. Users keep submitting, though: a trickle
            // of small short batch jobs arrives regardless, keeping the
            // ~1 s inter-arrival cadence of Table 2 (the deficit feedback
            // absorbs their load).
            if (!kind_rng.bernoulli(0.60))
                continue;
            JobSpec filler;
            filler.id = next_id++;
            filler.arrival = t;
            if (kind_rng.bernoulli(0.12) && config.duration - t > 240.0) {
                filler.kind = AppKind::Memcached;
                filler.coresIdeal = 4.0;
                filler.lcLifetime = std::clamp(
                    size_rng.lognormal(std::log(240.0), 0.4), 120.0,
                    config.duration - t);
                filler.lcLoadRps = filler.coresIdeal *
                    latency_model::kRpsPerCore * 0.50;
                filler.lcQosUs = latency_model::qosTargetUs(
                    filler.lcLoadRps, filler.coresIdeal);
                active.push(Active{t + filler.lcLifetime, 4.0, false});
                demand_lc += 4.0;
            } else {
                filler.kind =
                    drawBatchKind(kind_rng, config.sensitiveFraction);
                filler.coresIdeal = 1.0;
                // Never outlives the scenario, even when less than the
                // floor remains (hence no std::clamp, which needs lo <= hi).
                filler.idealDuration = std::min(
                    std::max(size_rng.lognormal(std::log(150.0), 0.4), 60.0),
                    config.duration - t);
                active.push(Active{t + filler.idealDuration, 1.0, true});
                demand_batch += 1.0;
            }
            filler.sensitivity =
                generateSensitivity(filler.kind, sens_rng);
            filler.memoryPerCore = memoryPerCore(filler.kind, size_rng);
            trace.add(std::move(filler));
            continue;
        }

        // Pick the class. With a sensitivity override (Figure 16), split
        // by the requested fraction; otherwise weight by deficit.
        bool is_batch;
        AppKind kind;
        if (config.sensitiveFraction >= 0.0) {
            const bool sensitive =
                sens_rng.bernoulli(config.sensitiveFraction);
            if (sensitive) {
                is_batch = sens_rng.bernoulli(0.5);
                kind = is_batch ? AppKind::SparkRealtime
                                : AppKind::Memcached;
            } else {
                is_batch = true;
                kind = drawBatchKind(kind_rng, config.sensitiveFraction);
            }
            // Respect aggregate demand: skip if the total is satisfied.
            if (deficit_b + deficit_l <= 0.0)
                continue;
        } else {
            const double wb = std::max(deficit_b, 0.0);
            const double wl = std::max(deficit_l, 0.0);
            is_batch = kind_rng.uniform(0.0, wb + wl) < wb;
            kind = is_batch ? drawBatchKind(kind_rng, -1.0)
                            : AppKind::Memcached;
        }

        const double deficit = is_batch ? std::max(deficit_b, 0.0)
                                        : std::max(deficit_l, 0.0);

        JobSpec spec;
        spec.id = next_id++;
        spec.kind = kind;
        spec.arrival = t;
        spec.sensitivity = generateSensitivity(kind, sens_rng);
        spec.memoryPerCore = memoryPerCore(kind, size_rng);

        const sim::Duration remaining = config.duration - t;
        // Burst-driven jobs (spawned while demand lags a load spike) are
        // short-lived, so aggregate load can fall as fast as it rose —
        // the defining property of the high-variability scenario.
        const bool burst_job = deficit > 30.0;
        if (classOf(kind) == JobClass::Batch) {
            spec.coresIdeal = std::min(drawBatchCores(size_rng, deficit),
                                       std::max(deficit, 1.0));
            spec.coresIdeal = std::max(1.0, std::floor(spec.coresIdeal));
            const double median =
                shape.batchDurationMedian / (burst_job ? 3.0 : 1.0);
            // The job never outlives the scenario, even when less than the
            // floor remains (hence no std::clamp, which needs lo <= hi).
            spec.idealDuration = std::min(
                std::max(size_rng.lognormal(std::log(median),
                                            shape.batchDurationSigma),
                         60.0),
                remaining);
        } else {
            spec.coresIdeal = std::min(drawLcCores(size_rng, deficit),
                                       std::max(deficit, 4.0));
            spec.coresIdeal = std::max(4.0, std::floor(spec.coresIdeal));
            const double median =
                shape.lcLifetimeMedian / (burst_job ? 2.5 : 1.0);
            spec.lcLifetime = std::min(
                std::max(size_rng.lognormal(std::log(median),
                                            shape.lcLifetimeSigma),
                         120.0),
                remaining);
            // Services operate near 50% utilization at the ideal size,
            // leaving the usual tail-latency headroom.
            spec.lcLoadRps = spec.coresIdeal *
                latency_model::kRpsPerCore * 0.50;
            spec.lcQosUs = latency_model::qosTargetUs(spec.lcLoadRps,
                                                      spec.coresIdeal);
        }

        const sim::Duration nominal = classOf(kind) == JobClass::Batch
            ? spec.idealDuration
            : spec.lcLifetime;
        active.push(Active{t + nominal, spec.coresIdeal,
                           classOf(kind) == JobClass::Batch});
        (classOf(kind) == JobClass::Batch ? demand_batch : demand_lc) +=
            spec.coresIdeal;
        trace.add(std::move(spec));
    }

    trace.seal();
    return trace;
}

} // namespace hcloud::workload
