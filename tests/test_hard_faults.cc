/**
 * @file
 * Tests for hard-fault injection and graceful degradation: the device
 * health state machine (offline windows, permanent failure, retry
 * escalation), config validation for the hard-fault fields, masked
 * placement and failover through HybridSystem::serve, drain/rebuild
 * semantics, the no-op guarantee (armed-but-never-firing machinery is
 * bit-identical to the seed), thread-count invariance of a faulted
 * run, and fleet tenant isolation under one tenant's device failure.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "device/block_device.hh"
#include "device/fault_model.hh"
#include "hss/hybrid_system.hh"
#include "scenario/scenario_spec.hh"
#include "sim/fleet.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace_cache.hh"

namespace sibyl
{
namespace
{

// ------------------------- validation ---------------------------------

TEST(HardFaultConfig, HardFaultsEnabledByAnyMechanism)
{
    device::FaultConfig none;
    EXPECT_FALSE(none.hardFaultsEnabled());
    EXPECT_FALSE(none.enabled()); // hard knobs are not soft knobs

    device::FaultConfig off;
    off.offlineWindows.push_back({100.0, 200.0});
    EXPECT_TRUE(off.hardFaultsEnabled());

    device::FaultConfig fail;
    fail.failAtUs = 5000.0;
    EXPECT_TRUE(fail.hardFaultsEnabled());

    device::FaultConfig esc;
    esc.failOnUnrecoverable = true;
    EXPECT_TRUE(esc.hardFaultsEnabled());

    // The drain/timeout knobs alone arm nothing (they only shape how
    // an armed mechanism behaves).
    device::FaultConfig knobs;
    knobs.drainPagesPerMs = 10.0;
    knobs.failoverTimeoutUs = 100.0;
    EXPECT_FALSE(knobs.hardFaultsEnabled());
}

TEST(HardFaultConfig, OfflineWindowValidation)
{
    EXPECT_EQ(device::validateWindow(device::OfflineWindow{0.0, 10.0}),
              "");
    EXPECT_NE(device::validateWindow(device::OfflineWindow{10.0, 10.0}),
              "");
    EXPECT_NE(device::validateWindow(device::OfflineWindow{
                  0.0, std::numeric_limits<double>::infinity()}),
              "");
}

TEST(HardFaultConfig, OverlappingOfflineWindowsRejected)
{
    device::FaultConfig cfg;
    cfg.offlineWindows.push_back({0.0, 100.0});
    cfg.offlineWindows.push_back({50.0, 150.0});
    const std::string err = device::validateFaultConfig(cfg);
    EXPECT_NE(err.find("overlap"), std::string::npos) << err;

    // Touching windows ([0,100) then [100,200)) do not overlap.
    device::FaultConfig ok;
    ok.offlineWindows.push_back({0.0, 100.0});
    ok.offlineWindows.push_back({100.0, 200.0});
    EXPECT_EQ(device::validateFaultConfig(ok), "");
}

TEST(HardFaultConfig, NanFailAtRejected)
{
    device::FaultConfig cfg;
    cfg.failAtUs = std::numeric_limits<double>::quiet_NaN();
    const std::string err = device::validateFaultConfig(cfg);
    EXPECT_NE(err.find("failAtUs"), std::string::npos) << err;
}

TEST(HardFaultConfig, FailInsideOfflineWindowRejected)
{
    device::FaultConfig cfg;
    cfg.offlineWindows.push_back({1000.0, 2000.0});
    cfg.failAtUs = 1500.0;
    const std::string err = device::validateFaultConfig(cfg);
    EXPECT_NE(err.find("cannot permanently fail"), std::string::npos)
        << err;

    cfg.failAtUs = 2000.0; // window end is exclusive — legal
    EXPECT_EQ(device::validateFaultConfig(cfg), "");
}

TEST(HardFaultConfig, DrainAndTimeoutRangesValidated)
{
    device::FaultConfig cfg;
    cfg.drainPagesPerMs = -1.0;
    EXPECT_NE(device::validateFaultConfig(cfg).find("drainPagesPerMs"),
              std::string::npos);

    device::FaultConfig cfg2;
    cfg2.failoverTimeoutUs = std::numeric_limits<double>::infinity();
    EXPECT_NE(device::validateFaultConfig(cfg2).find("failoverTimeoutUs"),
              std::string::npos);
}

TEST(HardFaultConfig, ScenarioLoweringNamesOffendingField)
{
    // The scenario layer validates the whole per-device FaultConfig at
    // expand() and prefixes scenario + device context.
    scenario::ScenarioSpec sc;
    sc.name = "bad";
    sc.policies = {"CDE"};
    sc.workloads = {"rsrch_0"};
    scenario::DeviceOverride ov;
    ov.device = 0;
    ov.offlineWindows.push_back({1000.0, 2000.0});
    ov.failAtUs = 1200.0;
    sc.deviceOverrides = {ov};
    try {
        sc.expand();
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("deviceOverrides device 0"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("cannot permanently fail"),
                  std::string::npos)
            << msg;
    }
}

TEST(HardFaultConfig, ScenarioJsonParsesHardFaultFields)
{
    const auto sc = scenario::parseScenarioJson(R"({
      "name": "chaos", "policies": ["CDE"], "workloads": ["rsrch_0"],
      "deviceOverrides": [{
        "device": 0,
        "offlineWindows": [{"startUs": 8000, "endUs": 14000},
                           {"startUs": 20000, "endUs": 21000}],
        "failAtUs": 30000, "drainPagesPerMs": 64,
        "failoverTimeoutUs": 2000, "failOnUnrecoverable": true}]})");
    ASSERT_EQ(sc.deviceOverrides.size(), 1u);
    const scenario::DeviceOverride &ov = sc.deviceOverrides[0];
    EXPECT_EQ(ov.device, 0u);
    EXPECT_EQ(ov.offlineWindows,
              (std::vector<device::OfflineWindow>{{8000.0, 14000.0},
                                                  {20000.0, 21000.0}}));
    EXPECT_EQ(ov.failAtUs, 30000.0);
    EXPECT_EQ(ov.drainPagesPerMs, 64.0);
    EXPECT_EQ(ov.failoverTimeoutUs, 2000.0);
    EXPECT_EQ(ov.failOnUnrecoverable, 1);

    // And the fields reach the device's FaultConfig as parsed.
    const device::FaultConfig fc = ov.faultConfig();
    EXPECT_EQ(fc.offlineWindows, ov.offlineWindows);
    EXPECT_EQ(fc.failAtUs, 30000.0);
    EXPECT_EQ(fc.drainPagesPerMs, 64.0);
    EXPECT_EQ(fc.failoverTimeoutUs, 2000.0);
    EXPECT_TRUE(fc.failOnUnrecoverable);
}

TEST(HardFaultConfig, CanonicalDistinguishesArmedConfigs)
{
    // Frozen identity: a default config is "" (pre-existing identities
    // unchanged) and every hard knob contributes.
    EXPECT_EQ(device::faultConfigCanonical(device::FaultConfig{}), "");
    device::FaultConfig a;
    a.failAtUs = 100.0;
    device::FaultConfig b;
    b.offlineWindows.push_back({0.0, 100.0});
    EXPECT_NE(device::faultConfigCanonical(a), "");
    EXPECT_NE(device::faultConfigCanonical(a),
              device::faultConfigCanonical(b));
}

// -------------------- device health state machine ----------------------

device::DeviceSpec
specWithFaults(const device::FaultConfig &f)
{
    device::DeviceSpec s = device::devicePreset("M");
    s.capacityPages = 4096;
    s.faults = f;
    return s;
}

TEST(DeviceHealth, OfflineWindowTransitions)
{
    device::FaultConfig f;
    f.offlineWindows.push_back({1000.0, 2000.0});
    device::BlockDevice dev(specWithFaults(f), 7);

    EXPECT_EQ(dev.healthAt(0.0), device::DeviceHealth::Healthy);
    EXPECT_EQ(dev.healthAt(1000.0), device::DeviceHealth::Offline);
    EXPECT_EQ(dev.healthAt(1999.0), device::DeviceHealth::Offline);
    EXPECT_EQ(dev.healthAt(2000.0), device::DeviceHealth::Healthy);
    EXPECT_FALSE(dev.permanentlyFailed());
}

TEST(DeviceHealth, PermanentFailureIsTerminalAndSticky)
{
    device::FaultConfig f;
    f.failAtUs = 5000.0;
    device::BlockDevice dev(specWithFaults(f), 7);

    EXPECT_EQ(dev.healthAt(4999.0), device::DeviceHealth::Healthy);
    EXPECT_EQ(dev.healthAt(5000.0), device::DeviceHealth::Failed);
    dev.markFailed(6000.0);
    // failedAtUs latches the configured point, not the observation time.
    EXPECT_TRUE(dev.permanentlyFailed());
    EXPECT_DOUBLE_EQ(dev.failedAtUs(), 5000.0);
    // Sticky: earlier queries now report Failed too.
    EXPECT_EQ(dev.healthAt(0.0), device::DeviceHealth::Failed);

    dev.reset();
    EXPECT_FALSE(dev.permanentlyFailed());
    EXPECT_EQ(dev.healthAt(0.0), device::DeviceHealth::Healthy);
}

TEST(DeviceHealth, DegradedRanksBelowOffline)
{
    device::FaultConfig f;
    f.windows.push_back({0.0, 10000.0, 8.0});
    f.offlineWindows.push_back({1000.0, 2000.0});
    device::BlockDevice dev(specWithFaults(f), 7);
    EXPECT_EQ(dev.healthAt(500.0), device::DeviceHealth::Degraded);
    EXPECT_EQ(dev.healthAt(1500.0), device::DeviceHealth::Offline);
}

TEST(DeviceHealth, RetryExhaustionEscalatesWhenConfigured)
{
    device::FaultConfig f;
    f.readErrorProb = 1.0; // every attempt errors -> retries exhaust
    f.maxRetries = 2;
    f.failOnUnrecoverable = true;
    device::BlockDevice dev(specWithFaults(f), 7);

    EXPECT_FALSE(dev.permanentlyFailed());
    dev.access(100.0, OpType::Read, 0, 1);
    EXPECT_TRUE(dev.permanentlyFailed());
    EXPECT_EQ(dev.healthAt(1e9), device::DeviceHealth::Failed);

    // Without the escalation flag the same storm stays soft.
    device::FaultConfig soft = f;
    soft.failOnUnrecoverable = false;
    device::BlockDevice dev2(specWithFaults(soft), 7);
    dev2.access(100.0, OpType::Read, 0, 1);
    EXPECT_FALSE(dev2.permanentlyFailed());
}

TEST(DeviceHealth, UnavailabilityAccounting)
{
    device::FaultConfig f;
    f.offlineWindows.push_back({1000.0, 2000.0});
    device::BlockDevice dev(specWithFaults(f), 7);

    // Span [0, 4000): one 1000us outage -> 25% unavailable.
    EXPECT_DOUBLE_EQ(dev.unavailableUsWithin(0.0, 4000.0), 1000.0);
    // Span entirely inside the outage.
    EXPECT_DOUBLE_EQ(dev.unavailableUsWithin(1200.0, 1700.0), 500.0);
    // Span entirely outside.
    EXPECT_DOUBLE_EQ(dev.unavailableUsWithin(2000.0, 3000.0), 0.0);

    // Permanent failure adds an open-ended tail.
    dev.markFailed(3000.0);
    EXPECT_DOUBLE_EQ(dev.unavailableUsWithin(0.0, 4000.0),
                     1000.0 + 1000.0);
}

// ---------------- serving-layer graceful degradation -------------------

TEST(HardFaultServing, MaskedPlacementsLandOnHealthyDevicesOnly)
{
    auto specs = hss::makeHssConfig("H&M", 4096);
    specs[0].faults.offlineWindows.push_back({1000.0, 5000.0});
    hss::HybridSystem sys(std::move(specs), 7);
    ASSERT_TRUE(sys.hardFaultsArmed());

    trace::Request req;
    req.sizePages = 1;
    req.op = OpType::Write;

    // Per-decision assertion: every placement the serving layer makes
    // while device 0 is offline must land on a healthy device, be
    // flagged as redirected, and be inside the advertised mask.
    for (int i = 0; i < 50; i++) {
        const SimTime now = 1000.0 + 50.0 * i;
        req.page = static_cast<PageId>(i);
        const auto r = sys.serve(now, req, /*action=*/0);
        EXPECT_TRUE(r.redirected);
        EXPECT_NE(r.placedDevice, 0u);
        EXPECT_NE(sys.device(r.placedDevice).healthAt(now),
                  device::DeviceHealth::Offline);
        EXPECT_TRUE(sys.placementMask() >> r.placedDevice & 1u);
        EXPECT_FALSE(sys.placementMask() >> 0 & 1u);
    }
    EXPECT_EQ(sys.counters().maskedPlacements, 50u);
    EXPECT_EQ(sys.counters().failedOps, 50u);

    // After the window the device accepts placements again.
    req.page = 999;
    const auto back = sys.serve(6000.0, req, 0);
    EXPECT_FALSE(back.redirected);
    EXPECT_EQ(back.placedDevice, 0u);
}

TEST(HardFaultServing, ResidentReadFailsOverWithTimeout)
{
    auto specs = hss::makeHssConfig("H&M", 4096);
    specs[0].faults.offlineWindows.push_back({10000.0, 50000.0});
    specs[0].faults.failoverTimeoutUs = 2000.0;
    hss::HybridSystem sys(std::move(specs), 7);

    trace::Request w;
    w.page = 42;
    w.sizePages = 1;
    w.op = OpType::Write;
    const auto placed = sys.serve(0.0, w, 0);
    ASSERT_EQ(placed.placedDevice, 0u);

    trace::Request r;
    r.page = 42;
    r.sizePages = 1;
    r.op = OpType::Read;
    const auto read = sys.serve(20000.0, r, 0);
    EXPECT_GE(read.latencyUs, 2000.0); // timeout paid before re-issue
    EXPECT_NE(read.servedDevice, 0u);  // served by the failover tier
    EXPECT_EQ(sys.counters().failoverReads, 1u);
}

TEST(HardFaultServing, PermanentFailureDrainsResidents)
{
    auto specs = hss::makeHssConfig("H&M", 4096);
    specs[0].faults.failAtUs = 100000.0;
    specs[0].faults.drainPagesPerMs = 64.0;
    hss::HybridSystem sys(std::move(specs), 7);

    trace::Request w;
    w.sizePages = 1;
    w.op = OpType::Write;
    for (int i = 0; i < 20; i++) {
        w.page = static_cast<PageId>(i);
        sys.serve(1000.0 + i, w, 0);
    }
    const auto before = sys.device(0).usedPages();
    ASSERT_GT(before, 0u);

    // First touch past the failure point triggers the drain.
    w.page = 500;
    sys.serve(200000.0, w, 0);
    EXPECT_EQ(sys.device(0).usedPages(), 0u);
    EXPECT_EQ(sys.counters().drainedPages, before);

    // Drained residents are readable from the rebuild tier.
    trace::Request r;
    r.page = 3;
    r.sizePages = 1;
    r.op = OpType::Read;
    const auto read = sys.serve(300000.0, r, 0);
    EXPECT_EQ(read.servedDevice, 1u);

    // Availability over a span covering the failure reflects the dead
    // tail; the surviving tier stays at 1.
    EXPECT_LT(sys.deviceAvailability(0, 0.0, 400000.0), 1.0);
    EXPECT_DOUBLE_EQ(sys.deviceAvailability(1, 0.0, 400000.0), 1.0);
}

// --------------------- no-op / determinism guarantees ------------------

sim::RunSpec
baseSpec(const std::string &policy)
{
    sim::RunSpec s;
    s.policy = policy;
    s.workload = "rsrch_0";
    s.hssConfig = "H&M";
    s.traceLen = 1500;
    return s;
}

void
expectMetricsIdentical(const sim::RunRecord &a, const sim::RunRecord &b)
{
    ASSERT_EQ(a.status, "ok") << a.error;
    ASSERT_EQ(b.status, "ok") << b.error;
    const auto &ma = a.result.metrics;
    const auto &mb = b.result.metrics;
    EXPECT_EQ(ma.avgLatencyUs, mb.avgLatencyUs);
    EXPECT_EQ(ma.p99LatencyUs, mb.p99LatencyUs);
    EXPECT_EQ(ma.p999LatencyUs, mb.p999LatencyUs);
    EXPECT_EQ(ma.iops, mb.iops);
    EXPECT_EQ(ma.makespanUs, mb.makespanUs);
    EXPECT_EQ(ma.placements, mb.placements);
    EXPECT_EQ(ma.promotions, mb.promotions);
    EXPECT_EQ(ma.demotions, mb.demotions);
    EXPECT_EQ(ma.fastPlacementPreference, mb.fastPlacementPreference);
}

TEST(HardFaultDeterminism, ArmedButNeverFiringIsBitIdentical)
{
    // The no-op guarantee: machinery armed via specTweak (no variant
    // tag -> same run key as the control) with fault points far beyond
    // the run's span must not change a single decision, draw, or byte
    // of the result — for a heuristic and for the RL policy.
    for (const std::string policy : {"CDE", "Sibyl"}) {
        auto control = baseSpec(policy);
        auto armed = baseSpec(policy);
        armed.specTweak = [](std::vector<device::DeviceSpec> &specs) {
            specs[0].faults.offlineWindows.push_back({1e14, 2e14});
            specs[0].faults.failAtUs = 1e15;
            specs[0].faults.failOnUnrecoverable = true; // prob 0 => never
        };

        sim::ParallelRunner runner;
        const auto records = runner.runAll({control, armed});
        ASSERT_EQ(records.size(), 2u);
        EXPECT_EQ(records[0].runKey, records[1].runKey);
        expectMetricsIdentical(records[0], records[1]);

        // The armed run *reports* its (zero-activity) fault block.
        EXPECT_FALSE(records[0].result.metrics.faultsConfigured);
        EXPECT_TRUE(records[1].result.metrics.faultsConfigured);
        EXPECT_EQ(records[1].result.metrics.maskedPlacements, 0u);
        EXPECT_EQ(records[1].result.metrics.failoverReads, 0u);
        EXPECT_EQ(records[1].result.metrics.drainedPages, 0u);
        for (double avail : records[1].result.metrics.deviceAvailability)
            EXPECT_DOUBLE_EQ(avail, 1.0);
    }
}

scenario::ScenarioSpec
chaosScenario()
{
    scenario::ScenarioSpec sc;
    sc.name = "chaos-det";
    sc.policies = {"CDE", "Sibyl"};
    sc.workloads = {"rsrch_0"};
    sc.hssConfigs = {"H&M"};
    sc.traceLen = 1200;
    scenario::DeviceOverride ov;
    ov.device = 0;
    ov.offlineWindows.push_back({3000.0, 9000.0});
    ov.failAtUs = 20000.0;
    ov.drainPagesPerMs = 64.0;
    sc.deviceOverrides = {ov};
    return sc;
}

TEST(HardFaultDeterminism, FaultedRunBitIdenticalAcrossThreadCounts)
{
    // A run with live hard faults (outage + mid-run permanent failure
    // + drain) is bit-identical between the serial oracle and the
    // 8-thread pool, in-process and through the JSON sink.
    const auto sc = chaosScenario();
    auto runAt = [&](unsigned n) {
        sim::ParallelConfig cfg;
        cfg.numThreads = n;
        sim::ParallelRunner runner(cfg);
        return runner.runAll(sc.expand());
    };
    const auto serial = runAt(1);
    const auto parallel = runAt(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); i++) {
        expectMetricsIdentical(serial[i], parallel[i]);
        EXPECT_EQ(serial[i].result.metrics.maskedPlacements,
                  parallel[i].result.metrics.maskedPlacements);
        EXPECT_EQ(serial[i].result.metrics.failoverReads,
                  parallel[i].result.metrics.failoverReads);
        EXPECT_EQ(serial[i].result.metrics.drainedPages,
                  parallel[i].result.metrics.drainedPages);
        EXPECT_EQ(serial[i].result.metrics.deviceAvailability,
                  parallel[i].result.metrics.deviceAvailability);
    }

    std::ostringstream a, b;
    sim::writeResultsJson(a, serial);
    sim::writeResultsJson(b, parallel);
    EXPECT_EQ(a.str(), b.str());

    // The fault block actually fired: outage + failure are mid-run.
    EXPECT_GT(serial[0].result.metrics.maskedPlacements, 0u);
    EXPECT_LT(serial[0].result.metrics.deviceAvailability.at(0), 1.0);
}

TEST(HardFaultDeterminism, FaultCountersSurfaceInResultsJson)
{
    // Soft + hard counters ride the JSON sink only for runs that
    // configure faults; fault-free records keep their historical bytes
    // (no new keys).
    const auto sc = chaosScenario();
    sim::ParallelRunner runner;
    const auto faulted = runner.runAll(sc.expand());
    std::ostringstream fs;
    sim::writeResultsJson(fs, faulted);
    const std::string fj = fs.str();
    for (const char *key :
         {"\"maskedPlacements\"", "\"failoverReads\"", "\"failedOps\"",
          "\"drainedPages\"", "\"deviceAvailability\"",
          "\"faultErroredOps\"", "\"faultRetries\"",
          "\"faultRecoveries\"", "\"faultDegradedOps\"",
          "\"faultErrorLatencyUs\""})
        EXPECT_NE(fj.find(key), std::string::npos) << key;

    const auto clean = runner.runAll({baseSpec("CDE")});
    std::ostringstream cs;
    sim::writeResultsJson(cs, clean);
    EXPECT_EQ(cs.str().find("maskedPlacements"), std::string::npos);
    EXPECT_EQ(cs.str().find("faultErroredOps"), std::string::npos);
}

// ----------------------- wear-out chaos twin ---------------------------

TEST(WearOutChaos, DegradedThenFailedThroughDrain)
{
    // Endurance twin of the hard-fault escalation path: a detailed-FTL
    // device retires grown-bad blocks (Degraded), eventually eats its
    // spare floor (Failed), and its residents drain to the surviving
    // tier under the configured budget — wear-out is just another hard
    // fault to the serving layer.
    auto specs = hss::makeHssConfig("H&M", 4096);
    specs[1].capacityPages = 96;
    specs[1].detailedFtl = true;
    specs[1].ftlPagesPerBlock = 8;
    specs[1].ftlOverprovision = 0.4;
    specs[1].ftlGrownBadProb = 0.15;
    specs[1].faults.drainPagesPerMs = 32.0;
    hss::HybridSystem sys(std::move(specs), 7);
    ASSERT_TRUE(sys.hardFaultsArmed()); // endurance arms the machinery
    ASSERT_NE(sys.device(1).ftl(), nullptr);

    trace::Request w;
    w.sizePages = 1;
    w.op = OpType::Write;

    bool sawDegraded = false;
    std::uint64_t residentsAtFailure = 0;
    SimTime t = 0.0;
    SimTime failT = 0.0;
    for (int i = 0; i < 60000 && !sys.device(1).permanentlyFailed();
         i++) {
        residentsAtFailure = sys.device(1).usedPages();
        w.page = static_cast<PageId>(i % 80);
        const auto r = sys.serve(t, w, 1);
        t = r.finishUs;
        failT = t;
        if (!sys.device(1).permanentlyFailed() &&
            sys.device(1).ftl()->retiredBlocks() > 0) {
            EXPECT_EQ(sys.device(1).healthAt(t),
                      device::DeviceHealth::Degraded);
            sawDegraded = true;
        }
    }
    ASSERT_TRUE(sys.device(1).permanentlyFailed());
    EXPECT_TRUE(sawDegraded);
    EXPECT_TRUE(sys.device(1).ftl()->spareFloorBreached());

    // The next touch drains the residents to the surviving tier under
    // the drain budget (the target absorbs the rebuild busy time).
    w.page = 500;
    const auto after = sys.serve(t + 1.0, w, 1);
    EXPECT_TRUE(after.redirected);
    EXPECT_NE(after.placedDevice, 1u);
    EXPECT_EQ(sys.device(1).usedPages(), 0u);
    EXPECT_EQ(sys.counters().drainedPages, residentsAtFailure);
    EXPECT_GT(sys.device(0).busyUntil(), failT);
    EXPECT_FALSE(sys.placementMask() >> 1 & 1u);
}

scenario::ScenarioSpec
wearOutScenario()
{
    // Sustained overwrite pressure on the capacity-restricted middle
    // flash tier with tiny erase blocks and an aggressive grown-bad
    // rate: the device wears out mid-run and fails through the drain
    // path.
    scenario::ScenarioSpec sc;
    sc.name = "wearout-det";
    sc.policies = {"CDE", "Sibyl"};
    sc.workloads = {"rsrch_0"};
    sc.hssConfigs = {"H&M&L"};
    sc.traceLen = 1200;
    scenario::DeviceOverride ov;
    ov.device = 1;
    ov.detailedFtl = 1;
    ov.ftlPagesPerBlock = 8;
    ov.ftlGrownBadProb = 1.0;
    ov.drainPagesPerMs = 32.0;
    sc.deviceOverrides = {ov};
    return sc;
}

TEST(WearOutChaos, WearOutRunBitIdenticalAcrossThreadCounts)
{
    // A run whose device wears out mid-run (retirement schedule drawn
    // from the run-key-derived device seed) is bit-identical between
    // the serial oracle and the 8-thread pool, in-process and through
    // the JSON sink.
    const auto sc = wearOutScenario();
    auto runAt = [&](unsigned n) {
        sim::ParallelConfig cfg;
        cfg.numThreads = n;
        sim::ParallelRunner runner(cfg);
        return runner.runAll(sc.expand());
    };
    const auto serial = runAt(1);
    const auto parallel = runAt(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); i++) {
        expectMetricsIdentical(serial[i], parallel[i]);
        const auto &ma = serial[i].result.metrics;
        const auto &mb = parallel[i].result.metrics;
        EXPECT_EQ(ma.retiredBlocks, mb.retiredBlocks);
        EXPECT_EQ(ma.writeAmplification, mb.writeAmplification);
        EXPECT_EQ(ma.wearImbalance, mb.wearImbalance);
        EXPECT_EQ(ma.lifeConsumed, mb.lifeConsumed);
        EXPECT_EQ(ma.drainedPages, mb.drainedPages);
        EXPECT_EQ(ma.deviceAvailability, mb.deviceAvailability);
    }

    std::ostringstream a, b;
    sim::writeResultsJson(a, serial);
    sim::writeResultsJson(b, parallel);
    EXPECT_EQ(a.str(), b.str());

    // The wear-out actually fired: blocks retired, the device died
    // mid-run (availability < 1), and its residents were drained.
    const auto &m = serial[0].result.metrics;
    EXPECT_TRUE(m.enduranceConfigured);
    EXPECT_GT(m.retiredBlocks, 0u);
    EXPECT_LT(m.deviceAvailability.at(1), 1.0);
    EXPECT_GT(m.drainedPages, 0u);
}

TEST(WearOutChaos, EnduranceMetricsSurfaceInResultsJson)
{
    // The endurance block rides the JSON sink only for detailed-FTL
    // runs; FTL-free records keep their historical bytes (no new keys).
    const auto sc = wearOutScenario();
    sim::ParallelRunner runner;
    const auto worn = runner.runAll(sc.expand());
    std::ostringstream ws;
    sim::writeResultsJson(ws, worn);
    const std::string wj = ws.str();
    for (const char *key :
         {"\"writeAmplification\"", "\"wearImbalance\"",
          "\"lifeConsumed\"", "\"retiredBlocks\""})
        EXPECT_NE(wj.find(key), std::string::npos) << key;

    const auto clean = runner.runAll({baseSpec("CDE")});
    std::ostringstream cs;
    sim::writeResultsJson(cs, clean);
    EXPECT_EQ(cs.str().find("writeAmplification"), std::string::npos);
    EXPECT_EQ(cs.str().find("retiredBlocks"), std::string::npos);
}

// -------------------------- fleet isolation ---------------------------

TEST(HardFaultFleet, TenantFailureLeavesOtherTenantsBitIdentical)
{
    sim::FleetTenant sib;
    sib.policy = "Sibyl{trainEvery=100}";
    sib.workload = "prxy_1";
    sim::FleetTenant cde;
    cde.policy = "CDE";
    cde.workload = "mds_0";

    auto fleetSpec = [&](bool faultSecond) {
        auto tenants = std::vector<sim::FleetTenant>{sib, cde};
        if (faultSecond) {
            tenants[1].faultDevice = 0;
            tenants[1].faults.failAtUs = 5000.0;
            tenants[1].faults.drainPagesPerMs = 32.0;
        }
        auto fleet = std::make_shared<sim::FleetSpec>();
        fleet->tenants = std::move(tenants);
        sim::RunSpec s;
        s.policy = "Fleet";
        s.workload = "fleet";
        s.hssConfig = "H&M";
        s.traceLen = 400;
        s.fleet = fleet;
        return s;
    };

    trace::TraceCache traces;
    const auto healthy =
        sim::runFleetExperiment(fleetSpec(false), traces, true, 1);
    const auto chaotic =
        sim::runFleetExperiment(fleetSpec(true), traces, true, 1);

    // Tenant 0 (Sibyl) is bit-identical whether or not tenant 1's
    // fast device dies: the tenant RNG-derivation rule isolates it.
    ASSERT_EQ(healthy.tenants.size(), 2u);
    ASSERT_EQ(chaotic.tenants.size(), 2u);
    EXPECT_EQ(healthy.tenants[0].metrics.avgLatencyUs,
              chaotic.tenants[0].metrics.avgLatencyUs);
    EXPECT_EQ(healthy.tenants[0].metrics.p99LatencyUs,
              chaotic.tenants[0].metrics.p99LatencyUs);
    EXPECT_EQ(healthy.tenants[0].metrics.promotions,
              chaotic.tenants[0].metrics.promotions);

    // The faulted tenant's identity (and result) changed.
    EXPECT_NE(healthy.tenants[1].tenantKey, chaotic.tenants[1].tenantKey);

    // Fleet aggregates carry the fault accounting; the serving fleet
    // kept serving (every tenant completed its trace).
    EXPECT_TRUE(chaotic.metrics.faultsConfigured);
    EXPECT_FALSE(healthy.metrics.faultsConfigured);
    EXPECT_EQ(chaotic.metrics.requests, 2u * 400u);
    EXPECT_LT(chaotic.metrics.deviceAvailability.at(0), 1.0);
}

TEST(HardFaultFleet, CanonicalFoldsTenantFaults)
{
    sim::FleetSpec plain;
    plain.tenants = {sim::FleetTenant{}};
    sim::FleetSpec faulted = plain;
    faulted.tenants[0].faults.failAtUs = 100.0;
    EXPECT_NE(plain.canonical(), faulted.canonical());
    sim::FleetSpec copy;
    copy.tenants = plain.tenants;
    EXPECT_EQ(plain.canonical(), copy.canonical());
}

} // namespace
} // namespace sibyl
