/**
 * @file
 * Unit tests for machines, instances, spin-up and external load.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>

#include "cloud/external_load.hpp"
#include "cloud/instance.hpp"
#include "cloud/machine.hpp"
#include "cloud/provider_profile.hpp"
#include "cloud/spin_up.hpp"
#include "sim/stats.hpp"

namespace hcloud::cloud {
namespace {

const InstanceType&
typeNamed(const char* name)
{
    return InstanceTypeCatalog::defaultCatalog().byName(name);
}

TEST(SizeCurve, InterpolatesAndClamps)
{
    SizeCurve curve{{1, 10.0}, {2, 20.0}, {4, 40.0}};
    EXPECT_DOUBLE_EQ(curve.at(0.5), 10.0); // clamp low
    EXPECT_DOUBLE_EQ(curve.at(1.0), 10.0);
    EXPECT_DOUBLE_EQ(curve.at(1.5), 15.0);
    EXPECT_DOUBLE_EQ(curve.at(3.0), 30.0);
    EXPECT_DOUBLE_EQ(curve.at(16.0), 40.0); // clamp high
}

TEST(ExternalLoad, BoundedAndAroundMean)
{
    ExternalLoadConfig cfg;
    cfg.meanUtilization = 0.25;
    cfg.band = 0.10;
    ExternalLoadModel model(cfg, sim::Rng(3));
    sim::OnlineStats stats;
    for (int i = 1; i <= 5000; ++i) {
        const double u = model.utilization(i * 10.0);
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
        stats.add(u);
    }
    EXPECT_NEAR(stats.mean(), 0.25, 0.02);
    // Fluctuation should roughly stay within the +/-10% band (2 sigma).
    EXPECT_NEAR(stats.stddev(), 0.05, 0.02);
}

TEST(ExternalLoad, BurstsRaiseUtilization)
{
    ExternalLoadConfig calm;
    calm.burstInterval = 0.0;
    ExternalLoadConfig bursty = calm;
    bursty.burstInterval = 120.0;
    bursty.burstMagnitude = 0.4;
    bursty.burstDuration = 30.0;
    ExternalLoadModel a(calm, sim::Rng(5));
    ExternalLoadModel b(bursty, sim::Rng(5));
    double sum_a = 0.0;
    double sum_b = 0.0;
    for (int i = 1; i <= 2000; ++i) {
        sum_a += a.utilization(i * 5.0);
        sum_b += b.utilization(i * 5.0);
    }
    EXPECT_GT(sum_b, sum_a);
}

TEST(Machine, AllocationInvariants)
{
    Machine m(1, /*shared=*/true, {}, sim::Rng(1));
    EXPECT_EQ(m.freeVcpus(), kMachineVcpus);
    EXPECT_TRUE(m.allocate(10));
    EXPECT_EQ(m.freeVcpus(), 6);
    EXPECT_FALSE(m.allocate(7));
    EXPECT_TRUE(m.allocate(6));
    EXPECT_EQ(m.freeVcpus(), 0);
    m.free(16);
    EXPECT_EQ(m.freeVcpus(), 16);
}

TEST(Machine, DedicatedSeesLessExternalLoad)
{
    ExternalLoadConfig cfg;
    cfg.meanUtilization = 0.4;
    Machine shared(1, true, cfg, sim::Rng(2));
    Machine dedicated(2, false, cfg, sim::Rng(2));
    double shared_sum = 0.0;
    double dedicated_sum = 0.0;
    for (int i = 1; i <= 500; ++i) {
        shared_sum += shared.externalUtilization(i * 10.0);
        dedicated_sum += dedicated.externalUtilization(i * 10.0);
    }
    EXPECT_LT(dedicated_sum, shared_sum);
}

TEST(SpinUp, MedianInPaperRangeAndSizeOrdered)
{
    const ProviderProfile gce = ProviderProfile::gce();
    SpinUpModel model(gce, sim::Rng(7));
    const double m16 = model.median(typeNamed("st16"));
    const double m1 = model.median(typeNamed("st1"));
    EXPECT_GE(m16, 12.0);
    EXPECT_LE(m16, 19.0);
    EXPECT_GT(m1, m16) << "smaller instances spin up slower";
}

TEST(SpinUp, SampleDistributionHasPaperTail)
{
    const ProviderProfile gce = ProviderProfile::gce();
    SpinUpModel model(gce, sim::Rng(7));
    sim::SampleSet samples;
    for (int i = 0; i < 20000; ++i)
        samples.add(model.sample(typeNamed("st16")));
    // Typical draws near the median; p95 out at ~2 minutes.
    EXPECT_NEAR(samples.quantile(0.5), 12.5, 2.0);
    EXPECT_GT(samples.quantile(0.95), 60.0);
    EXPECT_LT(samples.quantile(0.95), 220.0);
}

TEST(SpinUp, ScaleAndFixedOverride)
{
    SpinUpModel model(ProviderProfile::gce(), sim::Rng(7));
    const double base = model.median(typeNamed("st16"));
    model.setScale(2.0);
    EXPECT_DOUBLE_EQ(model.median(typeNamed("st16")), 2.0 * base);
    model.setFixedOverride(0.0);
    EXPECT_DOUBLE_EQ(model.sample(typeNamed("st16")), 0.0);
    model.setFixedOverride(30.0);
    EXPECT_DOUBLE_EQ(model.sample(typeNamed("st1")), 30.0);
}

TEST(Instance, QualityBoundedAndSpatialFixed)
{
    const ProviderProfile gce = ProviderProfile::gce();
    Machine host(1, true, {}, sim::Rng(1));
    host.allocate(4);
    Instance inst(1, typeNamed("st4"), gce, &host, false, sim::Rng(11),
                  0.0);
    const double spatial = inst.spatialQuality();
    EXPECT_GT(spatial, 0.0);
    EXPECT_LE(spatial, 1.0);
    for (int i = 1; i <= 100; ++i) {
        const double q = inst.baseQuality(i * 10.0);
        EXPECT_GE(q, 0.02);
        EXPECT_LE(q, 1.0);
    }
    EXPECT_DOUBLE_EQ(inst.spatialQuality(), spatial);
}

TEST(Instance, SmallInstancesDeliverLowerQuality)
{
    const ProviderProfile gce = ProviderProfile::gce();
    sim::OnlineStats small;
    sim::OnlineStats large;
    for (int i = 0; i < 200; ++i) {
        Machine shared(1, true, {}, sim::Rng(100 + i));
        Machine dedicated(2, false, {}, sim::Rng(300 + i));
        Instance s(1, typeNamed("st1"), gce, &shared, false,
                   sim::Rng(1000 + i), 0.0);
        Instance l(2, typeNamed("st16"), gce, &dedicated, false,
                   sim::Rng(2000 + i), 0.0);
        small.add(s.effectiveQuality(100.0, 0.5, std::nullopt));
        large.add(l.effectiveQuality(100.0, 0.5, std::nullopt));
    }
    EXPECT_LT(small.mean() + 0.15, large.mean());
}

TEST(Instance, ResidentAccounting)
{
    const ProviderProfile gce = ProviderProfile::gce();
    Machine host(1, false, {}, sim::Rng(1));
    host.allocate(16);
    Instance inst(1, typeNamed("st16"), gce, &host, true, sim::Rng(5),
                  0.0);
    EXPECT_TRUE(inst.idle());
    EXPECT_DOUBLE_EQ(inst.coresFree(), 16.0);

    EXPECT_TRUE(inst.addResident(1, {6.0, 0.5}, 1.0));
    EXPECT_TRUE(inst.addResident(2, {8.0, 0.3}, 2.0));
    EXPECT_FALSE(inst.addResident(3, {4.0, 0.2}, 3.0)) << "must not fit";
    EXPECT_DOUBLE_EQ(inst.coresUsed(), 14.0);
    EXPECT_EQ(inst.idleSince(), sim::kTimeNever);

    inst.resizeResident(1, 7.0);
    EXPECT_DOUBLE_EQ(inst.coresUsed(), 15.0);

    inst.removeResident(1, 4.0);
    inst.removeResident(2, 5.0);
    EXPECT_TRUE(inst.idle());
    EXPECT_DOUBLE_EQ(inst.coresUsed(), 0.0);
    EXPECT_DOUBLE_EQ(inst.idleSince(), 5.0);
}

TEST(Instance, CoResidentsRaisePressure)
{
    const ProviderProfile gce = ProviderProfile::gce();
    Machine host(1, false, {}, sim::Rng(1));
    host.allocate(16);
    Instance inst(1, typeNamed("st16"), gce, &host, true, sim::Rng(5),
                  0.0);
    const double alone = inst.interferencePressure(10.0, 7);
    inst.addResident(8, {8.0, 0.8}, 10.0);
    const double crowded = inst.interferencePressure(10.0, 7);
    EXPECT_GT(crowded, alone);
    // A job never presses on itself.
    const double self_view = inst.interferencePressure(10.0, 8);
    EXPECT_NEAR(self_view, alone, 1e-9);
}

TEST(Instance, FlatPressureMatchesMapWalkBitForBit)
{
    // The reference is the original model: residents in a JobId-ordered
    // map, pressure re-summed per query. No host, so the external term
    // is exactly zero and the result is clamp(kInternalImpact * sum),
    // with kInternalImpact = 0.45 as in instance.cpp.
    const ProviderProfile gce = ProviderProfile::gce();
    Instance inst(1, typeNamed("st16"), gce, nullptr, true, sim::Rng(5),
                  0.0);
    std::map<sim::JobId, Resident> reference;
    const auto expected = [&](std::optional<sim::JobId> self) {
        double internal = 0.0;
        for (const auto& [job, r] : reference) {
            if (self && job == *self)
                continue;
            internal += r.pressure * (r.cores / inst.coresTotal());
        }
        return std::clamp(1.8 * 0.0 + 0.45 * internal, 0.0, 1.0);
    };
    const auto check = [&](sim::Time t, std::optional<sim::JobId> self) {
        const double got = inst.interferencePressure(t, self);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(expected(self)))
            << "t " << t << " self " << (self ? int(*self) : -1);
    };

    sim::Rng rng(77);
    for (int step = 1; step <= 4000; ++step) {
        const auto job = static_cast<sim::JobId>(rng.uniformInt(1, 24));
        const double cores = 0.25 * double(rng.uniformInt(1, 16));
        const bool present = reference.count(job) != 0;
        switch (rng.uniformInt(0, 2)) {
          case 0: {
            if (present)
                break;
            const Resident r{cores, rng.uniform()};
            if (inst.addResident(job, r, step))
                reference.emplace(job, r);
            break;
          }
          case 1:
            if (present) {
                inst.resizeResident(job, cores);
                reference[job].cores = cores;
            }
            break;
          default: // remove, present or not
            inst.removeResident(job, step);
            reference.erase(job);
            break;
        }
        // The container stays JobId-sorted with fresh cached shares.
        ASSERT_EQ(inst.residents().size(), reference.size());
        auto it = reference.begin();
        for (const ResidentEntry& e : inst.residents()) {
            ASSERT_EQ(e.job, it->first);
            EXPECT_EQ(e.resident.cores, it->second.cores);
            EXPECT_EQ(e.share, it->second.pressure *
                                   (it->second.cores / inst.coresTotal()));
            ++it;
        }
        // Half the steps share a tick with the step before (memo hits
        // across a mutation); self absent, each resident, and a stranger.
        const sim::Time t = double(step / 2);
        check(t, std::nullopt);
        for (const auto& [id, r] : reference) {
            check(t, id);
            check(t, id); // memo hit
        }
        check(t, sim::JobId{1000});
    }
}

TEST(Instance, EffectiveQualityDecreasesWithSensitivity)
{
    const ProviderProfile gce = ProviderProfile::gce();
    Machine host(1, true, {}, sim::Rng(1));
    host.allocate(2);
    Instance inst(1, typeNamed("st2"), gce, &host, false, sim::Rng(5),
                  0.0);
    const double tolerant =
        inst.effectiveQuality(50.0, 0.1, std::nullopt);
    const double sensitive =
        inst.effectiveQuality(50.0, 0.9, std::nullopt);
    EXPECT_LT(sensitive, tolerant);
}

TEST(Instance, Ec2MicroSometimesFaulty)
{
    const ProviderProfile ec2 = ProviderProfile::ec2();
    int faulty = 0;
    for (int i = 0; i < 300; ++i) {
        Machine host(1, true, {}, sim::Rng(i));
        host.allocate(1);
        Instance inst(1, typeNamed("micro"), ec2, &host, false,
                      sim::Rng(5000 + i), 0.0);
        faulty += inst.faulty();
    }
    // 10% kill probability: expect a meaningful but minority share.
    EXPECT_GT(faulty, 8);
    EXPECT_LT(faulty, 90);
}

} // namespace
} // namespace hcloud::cloud
