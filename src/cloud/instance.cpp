#include "cloud/instance.hpp"

#include <algorithm>
#include <cassert>

namespace hcloud::cloud {

namespace {

/** Quality floor: even badly interfered instances make some progress. */
constexpr double kQualityFloor = 0.02;

/**
 * Impact of external-tenant pressure on delivered quality. Calibrated so
 * small shared instances reproduce the ~2x batch slowdown of Figure 1
 * under the paper's 25% external load.
 */
constexpr double kExternalImpact = 1.8;

/**
 * Impact of co-resident (our own) jobs' pressure: much milder, since the
 * scheduler controls and accounts for these placements.
 */
constexpr double kInternalImpact = 0.45;

} // namespace

Instance::Instance(sim::InstanceId id, const InstanceType& type,
                   const ProviderProfile& profile, Machine* host,
                   bool reserved, sim::Rng rng, sim::Time now)
    : id_(id),
      type_(&type),
      host_(host),
      reserved_(reserved),
      acquiredAt_(now),
      idleSince_(now),
      exposure_(profile.externalExposure.at(type.vcpus)),
      networkExposure_(profile.networkExposure),
      temporal_(0.0, profile.temporalRelaxation,
                profile.temporalStddev.at(type.vcpus), rng.child("temporal"))
{
    // Spatial quality: Beta(mean * kappa, (1-mean) * kappa).
    const double mean = profile.spatialMean.at(type.vcpus);
    const double kappa = profile.spatialConcentration.at(type.vcpus);
    sim::Rng spatial_rng = rng.child("spatial");
    spatialQuality_ = spatial_rng.beta(mean * kappa, (1.0 - mean) * kappa);
    if (type.family == Family::Micro &&
        spatial_rng.bernoulli(profile.microKillProbability)) {
        faulty_ = true;
    }
}

double
Instance::baseQuality(sim::Time t)
{
    if (t == baseQualityT_)
        return baseQualityCached_;
    const double q = spatialQuality_ + temporal_.advanceTo(t);
    baseQualityT_ = t;
    baseQualityCached_ = std::clamp(q, kQualityFloor, 1.0);
    return baseQualityCached_;
}

double
Instance::interferencePressure(sim::Time t, std::optional<sim::JobId> self)
{
    if (t == pressureT_ && residentsVersion_ == pressureVersion_ &&
        self == pressureSelf_) {
        return pressureCached_;
    }
    double external = 0.0;
    if (host_) {
        const double u = host_->externalUtilization(t);
        external = (exposure_ + networkExposure_) * u;
    }
    double internal = 0.0;
    for (const ResidentEntry& e : residents_) {
        if (self && e.job == *self)
            continue;
        internal += e.share;
    }
    pressureT_ = t;
    pressureVersion_ = residentsVersion_;
    pressureSelf_ = self;
    pressureCached_ = std::clamp(kExternalImpact * external +
                                     kInternalImpact * internal,
                                 0.0, 1.0);
    return pressureCached_;
}

double
Instance::effectiveQuality(sim::Time t, double sensitivity,
                           std::optional<sim::JobId> self)
{
    if (t == effQualityT_ && residentsVersion_ == effQualityVersion_ &&
        sensitivity == effQualitySens_ && self == effQualitySelf_) {
        return effQualityCached_;
    }
    const double base = baseQuality(t);
    const double pressure = interferencePressure(t, self);
    // Even interference-tolerant jobs lose raw capacity to neighbours
    // (CPU stealing); sensitivity scales the part beyond that.
    const double factor = 0.25 + 0.75 * std::clamp(sensitivity, 0.0, 1.0);
    const double loss = std::min(1.0, factor * pressure);
    effQualityT_ = t;
    effQualityVersion_ = residentsVersion_;
    effQualitySens_ = sensitivity;
    effQualitySelf_ = self;
    effQualityCached_ = std::clamp(base * (1.0 - loss), kQualityFloor, 1.0);
    return effQualityCached_;
}

std::vector<ResidentEntry>::iterator
Instance::findResident(sim::JobId job)
{
    return std::lower_bound(
        residents_.begin(), residents_.end(), job,
        [](const ResidentEntry& e, sim::JobId id) { return e.job < id; });
}

bool
Instance::addResident(sim::JobId job, const Resident& r, sim::Time now)
{
    const auto pos = findResident(job);
    assert((pos == residents_.end() || pos->job != job) &&
           "job is already resident");
    if (r.cores > coresFree() + 1e-9)
        return false;
    residents_.insert(pos, ResidentEntry{job, r, shareOf(r)});
    ++residentsVersion_;
    coresUsed_ += r.cores;
    idleSince_ = sim::kTimeNever;
    (void)now;
    return true;
}

void
Instance::resizeResident(sim::JobId job, double cores)
{
    const auto it = findResident(job);
    assert(it != residents_.end() && it->job == job &&
           "resize of a job that is not resident");
    coresUsed_ += cores - it->resident.cores;
    it->resident.cores = cores;
    it->share = shareOf(it->resident);
    ++residentsVersion_;
}

void
Instance::removeResident(sim::JobId job, sim::Time now)
{
    const auto it = findResident(job);
    if (it == residents_.end() || it->job != job)
        return;
    coresUsed_ -= it->resident.cores;
    residents_.erase(it);
    ++residentsVersion_;
    if (residents_.empty()) {
        coresUsed_ = 0.0; // kill accumulated floating-point drift
        idleSince_ = now;
    }
}

} // namespace hcloud::cloud
