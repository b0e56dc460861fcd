#include "core/quality_tracker.hpp"

#include <algorithm>
#include <vector>

namespace hcloud::core {

QualityTracker::QualityTracker(const cloud::ProviderProfile& profile,
                               sim::Rng rng)
    : profile_(profile), rng_(rng)
{
}

QualityTracker::TypeState&
QualityTracker::stateFor(const cloud::InstanceType& type) const
{
    auto it = types_.find(type.name);
    if (it != types_.end())
        return it->second;
    // Seed with prior draws from the profile's spatial distribution so
    // decisions made before any observation are reasonable.
    TypeState state;
    const double mean = profile_.spatialMean.at(type.vcpus);
    const double kappa = profile_.spatialConcentration.at(type.vcpus);
    for (std::size_t i = 0; i < kPriorSamples; ++i) {
        state.window.push_back(
            rng_.beta(mean * kappa, (1.0 - mean) * kappa));
    }
    state.sorted.assign(state.window.begin(), state.window.end());
    std::sort(state.sorted.begin(), state.sorted.end());
    return types_.emplace(type.name, std::move(state)).first->second;
}

void
QualityTracker::record(const cloud::InstanceType& type, double quality)
{
    TypeState& s = stateFor(type);
    const double q = std::clamp(quality, 0.0, 1.0);
    s.window.push_back(q);
    s.sorted.insert(std::upper_bound(s.sorted.begin(), s.sorted.end(), q),
                    q);
    if (s.window.size() > kMaxSamples) {
        // Equal values are interchangeable, so erasing any copy of the
        // evicted value leaves exactly the sorted window.
        s.sorted.erase(std::lower_bound(s.sorted.begin(), s.sorted.end(),
                                        s.window.front()));
        s.window.pop_front();
    }
}

double
QualityTracker::qualityAtConfidence(const cloud::InstanceType& type,
                                    double confidence) const
{
    const std::vector<double>& sorted = stateFor(type).sorted;
    const double q = std::clamp(1.0 - confidence, 0.0, 1.0);
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::size_t
QualityTracker::samples(const cloud::InstanceType& type) const
{
    return stateFor(type).window.size();
}

} // namespace hcloud::core
