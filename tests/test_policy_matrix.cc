/**
 * @file
 * Cross-policy relational properties over the configuration matrix —
 * orderings that held on the paper's testbed and must hold in the
 * simulator for the reproduction to be meaningful (robust relations
 * only: each is far from the noise floor in the Fig. 9/18 data).
 */

#include <gtest/gtest.h>

#include "core/sibyl_policy.hh"
#include "sim/experiment.hh"
#include "trace/workloads.hh"

namespace sibyl
{
namespace
{

double
runPolicy(const std::string &name, const std::string &config,
          const std::string &workload, std::size_t requests = 0)
{
    sim::ExperimentConfig cfg;
    cfg.hssConfig = config;
    trace::Trace t = trace::makeWorkload(workload, requests);
    auto policy = sim::makePolicy(
        name, sim::numHssDevices(cfg.hssConfig, cfg.fastCapacityFrac));
    return sim::runPolicyExperiment(cfg, t, *policy,
                                    sim::computeFastOnlyBaseline(cfg, t))
        .normalizedLatency;
}

// ---------------------------------------------------------------------
// Slow-Only is the ceiling on hot workloads: any caching policy that
// uses the fast device at all must beat it where reuse is plentiful.
// ---------------------------------------------------------------------

class HotWorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(HotWorkloadTest, EveryCachingPolicyBeatsSlowOnlyInHL)
{
    const std::string wl = GetParam();
    const double slowOnly = runPolicy("Slow-Only", "H&L", wl, 8000);
    for (const char *policy : {"CDE", "Sibyl", "Oracle"}) {
        EXPECT_LT(runPolicy(policy, "H&L", wl, 8000), slowOnly)
            << policy << " on " << wl;
    }
}

INSTANTIATE_TEST_SUITE_P(HotWorkloads, HotWorkloadTest,
                         ::testing::Values("prxy_0", "rsrch_0",
                                           "wdev_2", "mds_0"));

// ---------------------------------------------------------------------
// The device gap governs the stakes: for every policy, normalized
// latency in H&L exceeds H&M on hot workloads (the HDD magnifies every
// slow-device service).
// ---------------------------------------------------------------------

TEST(ConfigGap, HlMagnifiesNormalizedLatency)
{
    for (const char *policy : {"Slow-Only", "CDE", "Sibyl"}) {
        const double hm = runPolicy(policy, "H&M", "rsrch_0", 8000);
        const double hl = runPolicy(policy, "H&L", "rsrch_0", 8000);
        EXPECT_GT(hl, hm) << policy;
    }
}

// ---------------------------------------------------------------------
// Oracle sanity: future knowledge must not lose badly to any online
// policy on workloads with strong reuse (it may tie within noise).
// ---------------------------------------------------------------------

TEST(OracleSanity, NotWorseThanHeuristicsOnHotHL)
{
    for (const char *wl : {"prxy_0", "wdev_2"}) {
        const double oracle = runPolicy("Oracle", "H&L", wl, 8000);
        EXPECT_LT(oracle, runPolicy("HPS", "H&L", wl, 8000)) << wl;
        EXPECT_LT(oracle, runPolicy("Archivist", "H&L", wl, 8000))
            << wl;
        EXPECT_LT(oracle, runPolicy("RNN-HSS", "H&L", wl, 8000)) << wl;
    }
}

// ---------------------------------------------------------------------
// Fast-capacity monotonicity: for the admission-based Oracle, more
// fast capacity can only help (Belady eviction + future-aware
// admission is monotone in cache size).
// ---------------------------------------------------------------------

TEST(CapacityMonotonicity, OracleImprovesWithCapacity)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", 8000);
    double prev = 1e18;
    for (double frac : {0.02, 0.10, 0.40}) {
        sim::ExperimentConfig cfg;
        cfg.hssConfig = "H&L";
        cfg.fastCapacityFrac = frac;
        auto policy = sim::makePolicy("Oracle", 2);
        const double lat =
            sim::runPolicyExperiment(cfg, t, *policy,
                                     sim::computeFastOnlyBaseline(cfg, t))
                .normalizedLatency;
        EXPECT_LT(lat, prev * 1.02) << "capacity " << frac;
        prev = lat;
    }
}

// ---------------------------------------------------------------------
// Tri-hybrid: Sibyl's 3-device extension must beat parking everything
// on the slowest device, and the heuristic must run on both tri
// configurations.
// ---------------------------------------------------------------------

class TriConfigTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TriConfigTest, SibylAndHeuristicFunctional)
{
    sim::ExperimentConfig cfg;
    cfg.hssConfig = GetParam();
    cfg.fastCapacityFrac = 0.05; // §8.7 restricts H to 5%
    const std::uint32_t numDevices =
        sim::numHssDevices(cfg.hssConfig, cfg.fastCapacityFrac);
    ASSERT_EQ(numDevices, 3u);
    trace::Trace t = trace::makeWorkload("rsrch_0", 6000);
    const auto base = sim::computeFastOnlyBaseline(cfg, t);

    auto heuristic = sim::makePolicy("Heuristic-Tri-Hybrid", numDevices);
    const auto hr = sim::runPolicyExperiment(cfg, t, *heuristic, base);
    EXPECT_EQ(hr.metrics.placements.size(), 3u);

    core::SibylPolicy sibyl(core::SibylConfig(), numDevices);
    const auto sr = sim::runPolicyExperiment(cfg, t, sibyl, base);
    auto slowOnly = sim::makePolicy("Slow-Only", numDevices);
    const auto so = sim::runPolicyExperiment(cfg, t, *slowOnly, base);
    EXPECT_LT(sr.normalizedLatency, so.normalizedLatency);
}

INSTANTIATE_TEST_SUITE_P(TriConfigs, TriConfigTest,
                         ::testing::Values("H&M&L", "H&M&L_SSD"));

// ---------------------------------------------------------------------
// Eviction-volume structure (Fig. 18): HPS and RNN-HSS are the
// conservative baselines; CDE is aggressive.
// ---------------------------------------------------------------------

TEST(EvictionStructure, CdeEvictsMoreThanConservativeBaselines)
{
    sim::ExperimentConfig cfg;
    cfg.hssConfig = "H&M";
    trace::Trace t = trace::makeWorkload("rsrch_0", 8000);
    const auto base = sim::computeFastOnlyBaseline(cfg, t);

    auto evictions = [&](const char *name) {
        auto policy = sim::makePolicy(name, 2);
        return sim::runPolicyExperiment(cfg, t, *policy, base)
            .metrics.evictionFraction;
    };
    const double cde = evictions("CDE");
    EXPECT_GT(cde, evictions("HPS"));
    EXPECT_GT(cde, evictions("RNN-HSS"));
}

} // namespace
} // namespace sibyl
