/**
 * @file
 * Instance: an acquired VM and its quality model.
 *
 * Every instance carries the two variability components of Figures 1-2:
 *  - a *spatial* base quality drawn once at creation (which physical
 *    server / neighbourhood you landed on), and
 *  - a *temporal* Ornstein–Uhlenbeck noise component.
 *
 * Delivered capacity for a job is
 *     cores * effectiveQuality(t, sensitivity)
 * where effective quality discounts the base quality by the job's
 * sensitivity-weighted interference pressure (external tenants plus
 * co-resident jobs of our own).
 */

#ifndef HCLOUD_CLOUD_INSTANCE_HPP
#define HCLOUD_CLOUD_INSTANCE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "cloud/instance_type.hpp"
#include "cloud/machine.hpp"
#include "cloud/provider_profile.hpp"
#include "sim/ou_process.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace hcloud::cloud {

/** Lifecycle of an instance. */
enum class InstanceState
{
    SpinningUp, ///< acquire() issued; not yet usable.
    Running,    ///< usable (may be idle or hosting jobs).
    Released,   ///< given back to the provider.
};

/**
 * A job resident on an instance, as the cloud layer sees it: an id, a core
 * allocation, and a scalar pressure it exerts on shared resources.
 */
struct Resident
{
    double cores = 0.0;
    /** Average pressure this job puts on shared resources, in [0, 1]. */
    double pressure = 0.0;
};

/**
 * One entry of Instance::residents(): the job, its allocation, and the
 * share of shared-resource pressure it contributes to its neighbours,
 * pressure * (cores / coresTotal()), refreshed on every add and resize.
 */
struct ResidentEntry
{
    sim::JobId job = 0;
    Resident resident;
    double share = 0.0;
};

/**
 * An acquired VM.
 */
class Instance
{
  public:
    /**
     * Construct; called by CloudProvider only.
     *
     * @param id Unique id.
     * @param type Shape.
     * @param profile Provider variability profile.
     * @param host Backing physical machine (owns external load).
     * @param reserved True for reserved-pool members.
     * @param rng Stream for quality draws.
     * @param now Acquisition time.
     */
    Instance(sim::InstanceId id, const InstanceType& type,
             const ProviderProfile& profile, Machine* host, bool reserved,
             sim::Rng rng, sim::Time now);

    sim::InstanceId id() const { return id_; }
    const InstanceType& type() const { return *type_; }
    bool reserved() const { return reserved_; }
    Machine* host() const { return host_; }

    InstanceState state() const { return state_; }
    void setState(InstanceState s) { state_ = s; }

    sim::Time acquiredAt() const { return acquiredAt_; }
    sim::Time availableAt() const { return availableAt_; }
    void setAvailableAt(sim::Time t) { availableAt_ = t; }
    sim::Time releasedAt() const { return releasedAt_; }
    void setReleasedAt(sim::Time t) { releasedAt_ = t; }

    /** True for instances whose platform kills workloads (EC2 micro). */
    bool faulty() const { return faulty_; }
    void markFaulty() { faulty_ = true; }

    /** True for spot instances (interruptible, market-priced). */
    bool spot() const { return spot_; }
    void markSpot(double bidHourly)
    {
        spot_ = true;
        spotBid_ = bidHourly;
    }
    /** The bid this spot instance was acquired at ($/hour). */
    double spotBid() const { return spotBid_; }

    /** Spatial base quality in [0, 1], fixed for the instance lifetime. */
    double spatialQuality() const { return spatialQuality_; }

    /**
     * Base quality at time @p t: spatial component plus temporal noise,
     * clamped to [0.02, 1].
     *
     * Tick-coherent: memoized per exact @p t. The temporal OU process is
     * idempotent at fixed t (the RNG draw happens only when the clock
     * advances), so repeated same-tick callers get the cached value with
     * identical bits and identical RNG state.
     */
    double baseQuality(sim::Time t);

    /**
     * Sensitivity-weighted interference pressure a job would feel here at
     * time @p t: external-tenant pressure plus pressure from co-resident
     * jobs other than @p self.
     *
     * Tick-coherent: memoized per exact (t, self, resident set). Any
     * resident add/resize/remove bumps an internal version, so mid-tick
     * placement changes invalidate the cache. A miss folds the cached
     * per-resident shares in JobId order, skipping @p self: the same
     * additions in the same order as summing pressure * (cores / total)
     * over a JobId-ordered map, so the bits match. (A running total
     * minus self's share would round differently.)
     */
    double interferencePressure(sim::Time t,
                                std::optional<sim::JobId> self);

    /**
     * Capacity multiplier for a job with the given interference
     * sensitivity, in [0.02, 1]. Memoized per exact
     * (t, sensitivity, self, resident set), like interferencePressure.
     */
    double effectiveQuality(sim::Time t, double sensitivity,
                            std::optional<sim::JobId> self);

    /**
     * Last materialized quality without advancing anything: the memoized
     * effective quality when one has been computed, else the memoized
     * base quality, else the spatial component alone. Read-only — safe
     * for samplers (obs::Timeline) that must not move an RNG draw.
     */
    double observedQuality() const
    {
        if (effQualityT_ >= 0.0)
            return effQualityCached_;
        if (baseQualityT_ >= 0.0)
            return baseQualityCached_;
        return spatialQuality_;
    }

    // --- Occupancy -------------------------------------------------------

    double coresTotal() const { return type_->vcpus; }
    double coresUsed() const { return coresUsed_; }
    double coresFree() const { return coresTotal() - coresUsed_; }
    bool idle() const { return residents_.empty(); }
    std::size_t residentCount() const { return residents_.size(); }

    /** Time the instance last became idle (kTimeNever if occupied). */
    sim::Time idleSince() const { return idleSince_; }

    /** Place a job. @return false if the cores do not fit. */
    bool addResident(sim::JobId job, const Resident& r, sim::Time now);

    /** Update a resident's core allocation in place. */
    void resizeResident(sim::JobId job, double cores);

    /** Remove a job (no-op if absent). */
    void removeResident(sim::JobId job, sim::Time now);

    /** Residents in ascending JobId order. */
    const std::vector<ResidentEntry>& residents() const
    {
        return residents_;
    }

  private:
    /** First entry whose job is not below @p job. */
    std::vector<ResidentEntry>::iterator findResident(sim::JobId job);
    double shareOf(const Resident& r) const
    {
        return r.pressure * (r.cores / coresTotal());
    }

    sim::InstanceId id_;
    const InstanceType* type_;
    Machine* host_;
    bool reserved_;
    bool faulty_ = false;
    bool spot_ = false;
    double spotBid_ = 0.0;
    InstanceState state_ = InstanceState::SpinningUp;

    sim::Time acquiredAt_;
    sim::Time availableAt_ = sim::kTimeNever;
    sim::Time releasedAt_ = sim::kTimeNever;
    sim::Time idleSince_;

    double spatialQuality_;
    double exposure_;
    double networkExposure_;
    sim::OuProcess temporal_;

    double coresUsed_ = 0.0;
    /** Sorted by job: a few entries, so a flat vector beats a tree. */
    std::vector<ResidentEntry> residents_;

    // --- Tick-coherent memoization ---------------------------------------
    // Caches are keyed on the exact query time (plus self/sensitivity and
    // the resident-set version where those are inputs); they only skip
    // *repeat* evaluations within one tick and never change which tick
    // first advances the underlying stochastic processes. Any new
    // time-dependent model input must join the key or bump the version.
    /** Bumped by addResident/resizeResident/removeResident. */
    std::uint64_t residentsVersion_ = 0;
    sim::Time baseQualityT_ = -1.0;
    double baseQualityCached_ = 0.0;
    sim::Time pressureT_ = -1.0;
    std::uint64_t pressureVersion_ = 0;
    std::optional<sim::JobId> pressureSelf_;
    double pressureCached_ = 0.0;
    sim::Time effQualityT_ = -1.0;
    std::uint64_t effQualityVersion_ = 0;
    double effQualitySens_ = 0.0;
    std::optional<sim::JobId> effQualitySelf_;
    double effQualityCached_ = 0.0;
};

} // namespace hcloud::cloud

#endif // HCLOUD_CLOUD_INSTANCE_HPP
