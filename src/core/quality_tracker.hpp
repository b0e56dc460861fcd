/**
 * @file
 * Per-instance-type quality tracker.
 *
 * The dynamic policy compares the quality an on-demand instance type
 * delivers with 90% confidence ("Q90", monitored over time) against the
 * target quality QT a job needs (Section 4.2 / Figure 8). This tracker
 * accumulates observed base-quality samples per type, seeded with prior
 * draws from the provider profile so early decisions are sensible.
 */

#ifndef HCLOUD_CORE_QUALITY_TRACKER_HPP
#define HCLOUD_CORE_QUALITY_TRACKER_HPP

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "cloud/instance_type.hpp"
#include "cloud/provider_profile.hpp"
#include "sim/rng.hpp"

namespace hcloud::core {

/**
 * Rolling per-type distribution of observed instance quality.
 */
class QualityTracker
{
  public:
    /** Number of prior pseudo-samples per type. */
    static constexpr std::size_t kPriorSamples = 40;
    /** Rolling-window capacity per type. */
    static constexpr std::size_t kMaxSamples = 512;

    /**
     * @param profile Provider profile used to draw priors.
     * @param rng Stream for prior draws.
     */
    QualityTracker(const cloud::ProviderProfile& profile, sim::Rng rng);
    /** The tracker keeps a reference: a temporary profile would dangle. */
    QualityTracker(cloud::ProviderProfile&&, sim::Rng) = delete;

    /** Record an observed base-quality sample for @p type. */
    void record(const cloud::InstanceType& type, double quality);

    /**
     * Quality delivered by @p type with the given confidence, i.e. the
     * (1 - confidence) quantile of the observed distribution. The paper's
     * Q90 is qualityAtConfidence(type, 0.90); tightening the confidence
     * lowers the reported quality, steering more jobs to reserved.
     */
    double qualityAtConfidence(const cloud::InstanceType& type,
                               double confidence = 0.90) const;

    /** Number of recorded samples (including priors). */
    std::size_t samples(const cloud::InstanceType& type) const;

  private:
    struct TypeState
    {
        std::deque<double> window;
        /**
         * @c window's values in ascending order, kept in step by
         * record(): each sample is inserted at its rank and the one that
         * leaves the window is erased by value, so a query never sorts.
         */
        std::vector<double> sorted;
    };

    TypeState& stateFor(const cloud::InstanceType& type) const;

    const cloud::ProviderProfile& profile_;
    mutable sim::Rng rng_;
    mutable std::map<std::string, TypeState> types_;
};

} // namespace hcloud::core

#endif // HCLOUD_CORE_QUALITY_TRACKER_HPP
