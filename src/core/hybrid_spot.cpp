#include "core/hybrid_spot.hpp"

#include <vector>

namespace hcloud::core {

HybridSpotStrategy::HybridSpotStrategy(EngineContext& ctx,
                                       SpotPolicyConfig spotConfig)
    : HybridStrategy(ctx, /*mixed=*/true), spotConfig_(spotConfig)
{
}

bool
HybridSpotStrategy::spotEligible(const workload::Job& job,
                                 const JobSizing& s) const
{
    // Only throughput-bound work with relaxed requirements; a service
    // that loses its instance mid-session breaks its clients.
    if (job.spec().jobClass() != workload::JobClass::Batch)
        return false;
    if (s.quality > spotConfig_.maxQuality)
        return false;
    // Do not enter an expensive market: the bid would be underwater
    // almost immediately.
    return ctx_.provider.spotMarket().priceFraction(
               largeType(), ctx_.simulator.now()) <
        spotConfig_.maxEntryFraction;
}

void
HybridSpotStrategy::submitSpot(workload::Job& job, const JobSizing& s)
{
    // Pack onto an existing live spot instance when possible.
    const sim::Time now = ctx_.simulator.now();
    cloud::Instance* best = nullptr;
    for (cloud::Instance* inst : cluster_.onDemand()) {
        if (!inst->spot() ||
            inst->state() == cloud::InstanceState::Released ||
            inst->coresFree() + 1e-9 < s.cores) {
            continue;
        }
        if (!best || inst->coresFree() < best->coresFree())
            best = inst;
    }
    if (best) {
        ctx_.tracer.decision(now, obs::DecisionReason::SpotEntry,
                             job.id(), best->id(), s.cores, "packed");
        assignToInstance(job, best, s, /*reserved=*/false);
        return;
    }
    const double bid =
        spotConfig_.bidFraction * largeType().onDemandHourly;
    cloud::Instance* inst = ctx_.provider.acquireSpot(
        largeType(), bid,
        [this](cloud::Instance* ready) { onInstanceReady(ready); },
        [this](cloud::Instance* reclaimed) {
            onSpotInterrupted(reclaimed);
        });
    (void)now;
    cluster_.addOnDemand(inst);
    ctx_.metrics.countAcquisition();
    ctx_.tracer.decision(now, obs::DecisionReason::SpotEntry, job.id(),
                         inst->id(), bid, inst->type().name);
    assignToInstance(job, inst, s, /*reserved=*/false);
}

void
HybridSpotStrategy::onSpotInterrupted(cloud::Instance* instance)
{
    ++interruptions_;
    ctx_.metrics.countSpotInterruption();
    const sim::Time now = ctx_.simulator.now();
    // Evict every resident; batch progress is retained (checkpointing),
    // and the job re-enters the normal mapping path.
    std::vector<workload::Job*> evicted;
    for (const cloud::ResidentEntry& resident : instance->residents()) {
        auto it = jobIndex_.find(resident.job);
        if (it != jobIndex_.end())
            evicted.push_back(it->second);
    }
    for (workload::Job* job : evicted) {
        instance->removeResident(job->id(), now);
        job->instance = nullptr;
        job->state = workload::JobState::Pending;
    }
    pending_.erase(instance->id());
    cluster_.removeOnDemand(instance);
    // The provider releases the instance after this handler returns; we
    // only resubmit the displaced work.
    for (workload::Job* job : evicted)
        HybridStrategy::submit(*job);
}

void
HybridSpotStrategy::submit(workload::Job& job)
{
    const JobSizing s = sizeJob(job);
    if (spotEligible(job, s)) {
        // Spot replaces the on-demand leg for tolerant batch work when
        // the reserved pool is past its soft limit.
        const double util = cluster_.reservedUtilization();
        if (util >= softLimit() || !tryPlaceReserved(job, s)) {
            submitSpot(job, s);
            return;
        }
        return; // placed on reserved below the soft limit
    }
    HybridStrategy::submit(job);
}

} // namespace hcloud::core
