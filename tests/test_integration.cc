/**
 * @file
 * End-to-end integration tests: full policy lineups over synthesized
 * workloads, checking the cross-cutting invariants the paper's
 * evaluation relies on.
 */

#include <gtest/gtest.h>

#include "core/sibyl_policy.hh"
#include "sim/experiment.hh"
#include "trace/workloads.hh"

namespace sibyl
{
namespace
{

using sim::computeFastOnlyBaseline;
using sim::ExperimentConfig;
using sim::makePolicy;
using sim::runPolicyExperiment;

TEST(Integration, EveryPolicyRunsOnEveryConfig)
{
    for (const char *cfgName : {"H&M", "H&L"}) {
        ExperimentConfig cfg;
        cfg.hssConfig = cfgName;
        trace::Trace t = trace::makeWorkload("usr_0", 2000);
        const auto base = computeFastOnlyBaseline(cfg, t);
        for (const auto &name : sim::standardPolicyLineup()) {
            auto p = makePolicy(name, 2);
            auto r = runPolicyExperiment(cfg, t, *p, base);
            EXPECT_GT(r.metrics.avgLatencyUs, 0.0)
                << name << " on " << cfgName;
            EXPECT_EQ(r.metrics.requests, 2000u);
        }
    }
}

TEST(Integration, SlowOnlyNeverTouchesFastDevice)
{
    trace::Trace t = trace::makeWorkload("rsrch_0", 2000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages(), 0.10);
    hss::HybridSystem sys(specs, 1);
    auto p = makePolicy("Slow-Only", 2);
    sim::runSimulation(t, sys, *p);
    EXPECT_EQ(sys.device(0).counters().reads, 0u);
    EXPECT_EQ(sys.device(0).counters().writes, 0u);
    EXPECT_EQ(sys.counters().placements[0], 0u);
}

TEST(Integration, FastOnlyWithFullCapacityNeverEvicts)
{
    trace::Trace t = trace::makeWorkload("usr_0", 2000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages(), 1.5);
    hss::HybridSystem sys(specs, 1);
    auto p = makePolicy("Fast-Only", 2);
    auto m = sim::runSimulation(t, sys, *p);
    EXPECT_EQ(m.evictionFraction, 0.0);
    EXPECT_EQ(sys.device(1).counters().reads +
                  sys.device(1).counters().writes,
              0u);
}

TEST(Integration, FastOnlyIsTheLowerBound)
{
    // Every policy on the capacity-limited system is at least as slow as
    // Fast-Only on an unlimited fast device (normalized >= ~1).
    ExperimentConfig cfg;
    cfg.hssConfig = "H&M";
    trace::Trace t = trace::makeWorkload("prxy_0", 3000);
    const auto base = computeFastOnlyBaseline(cfg, t);
    for (const char *name : {"Slow-Only", "CDE", "HPS", "Sibyl", "Oracle"}) {
        auto p = makePolicy(name, 2);
        auto r = runPolicyExperiment(cfg, t, *p, base);
        EXPECT_GE(r.normalizedLatency, 0.95) << name;
    }
}

TEST(Integration, CachingBeatsSlowOnlyOnHotWorkload)
{
    // prxy_0: 97% writes, extremely hot -> any sensible placement policy
    // must beat Slow-Only in the cost-oriented config.
    ExperimentConfig cfg;
    cfg.hssConfig = "H&L";
    trace::Trace t = trace::makeWorkload("prxy_0", 4000);
    const auto base = computeFastOnlyBaseline(cfg, t);
    auto slowR = runPolicyExperiment(cfg, t, *makePolicy("Slow-Only", 2), base);
    for (const char *name : {"CDE", "Sibyl", "Oracle"}) {
        auto r = runPolicyExperiment(cfg, t, *makePolicy(name, 2), base);
        EXPECT_LT(r.normalizedLatency, slowR.normalizedLatency * 0.8)
            << name;
    }
}

TEST(Integration, SibylLearnsOnline)
{
    // Online adaptation (§8.1): after convergence Sibyl must do clearly
    // better than during its warmup. Compare the last third of the run
    // against the first third on a hot, read-dominated workload.
    trace::Trace t = trace::makeWorkload("hm_1", 18000);
    auto specs = hss::makeHssConfig("H&L", t.uniquePages(), 0.10);
    hss::HybridSystem sys(specs, 1);
    core::SibylConfig scfg;
    core::SibylPolicy sibyl(scfg, 2);
    RunningStat firstThird, lastThird;
    SimTime prevFinish = 0.0;
    for (std::size_t i = 0; i < t.size(); i++) {
        SimTime arrival = std::max(t[i].timestamp, prevFinish);
        DeviceId a = sibyl.selectPlacement(sys, t[i], i);
        auto res = sys.serve(arrival, t[i], a);
        sibyl.observeOutcome(sys, t[i], a, res);
        prevFinish = res.finishUs;
        if (i < t.size() / 3)
            firstThird.add(res.latencyUs);
        else if (i >= 2 * t.size() / 3)
            lastThird.add(res.latencyUs);
    }
    EXPECT_LT(lastThird.mean(), firstThird.mean());
}

TEST(Integration, TriHybridSibylRunsAndBeatsSlowestOnly)
{
    ExperimentConfig cfg;
    cfg.hssConfig = "H&M&L";
    cfg.fastCapacityFrac = 0.05;
    trace::Trace t = trace::makeWorkload("prxy_0", 4000);
    const auto base = computeFastOnlyBaseline(cfg, t);
    auto sibylR = runPolicyExperiment(cfg, t, *makePolicy("Sibyl", 3), base);
    auto slowR =
        runPolicyExperiment(cfg, t, *makePolicy("Slow-Only", 3), base);
    EXPECT_LT(sibylR.normalizedLatency, slowR.normalizedLatency);
    auto heurR = runPolicyExperiment(
        cfg, t, *makePolicy("Heuristic-Tri-Hybrid", 3), base);
    EXPECT_GT(heurR.metrics.requests, 0u);
}

TEST(Integration, MixedWorkloadsRunEndToEnd)
{
    ExperimentConfig cfg;
    cfg.hssConfig = "H&M";
    trace::Trace t = trace::makeMixedWorkload("mix2", 1500);
    auto r = runPolicyExperiment(cfg, t, *makePolicy("Sibyl", 2),
                                 computeFastOnlyBaseline(cfg, t));
    EXPECT_GT(r.metrics.requests, 2900u);
    EXPECT_GT(r.normalizedLatency, 0.0);
}

TEST(Integration, DeterministicAcrossRuns)
{
    ExperimentConfig cfg;
    cfg.hssConfig = "H&M";
    trace::Trace t = trace::makeWorkload("wdev_2", 3000);
    auto a = runPolicyExperiment(cfg, t, *makePolicy("Sibyl", 2),
                                 computeFastOnlyBaseline(cfg, t));
    auto b = runPolicyExperiment(cfg, t, *makePolicy("Sibyl", 2),
                                 computeFastOnlyBaseline(cfg, t));
    EXPECT_DOUBLE_EQ(a.metrics.avgLatencyUs, b.metrics.avgLatencyUs);
    EXPECT_EQ(a.metrics.placements, b.metrics.placements);
}

TEST(Integration, UnseenWorkloadsRun)
{
    ExperimentConfig cfg;
    cfg.hssConfig = "H&M";
    for (const auto &p : trace::filebenchProfiles()) {
        trace::Trace t = trace::makeWorkload(p, 1500);
        auto r = runPolicyExperiment(cfg, t, *makePolicy("Sibyl", 2),
                                     computeFastOnlyBaseline(cfg, t));
        EXPECT_GT(r.metrics.avgLatencyUs, 0.0) << p.name;
    }
}

} // namespace
} // namespace sibyl
