/**
 * @file
 * Bit-exact determinism tests for the parallel experiment runner.
 *
 * The contract under test: a (policy x workload x HSS config x seed)
 * matrix produces *identical* results — every RunMetrics field, every
 * per-policy table, every derived normalization — whether it runs on
 * the serial oracle path (numThreads = 1), on 8 worker threads, or on
 * 8 worker threads twice in a row. Identical means bit-exact, not
 * within tolerance: per-run RNG streams are derived from stable run
 * keys, so scheduling must never influence results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "sim/parallel_runner.hh"
#include "trace/workloads.hh"

namespace sibyl::sim
{
namespace
{

/** The >= 24-run grid shared by the determinism tests: 4 policies x
 *  3 workloads x 2 HSS configs = 24 runs, including the RL policy so
 *  agent training and exploration are exercised. Built by hand in the
 *  scenario layer's nesting order (config, workload, policy). */
std::vector<RunSpec>
gridSpecs()
{
    std::vector<RunSpec> specs;
    for (const char *config : {"H&M", "H&L"}) {
        for (const char *workload : {"hm_1", "usr_0", "stg_1"}) {
            for (const char *policy : {"CDE", "HPS", "Archivist", "Sibyl"}) {
                RunSpec s;
                s.policy = policy;
                s.workload = workload;
                s.hssConfig = config;
                s.traceLen = 2000;
                specs.push_back(s);
            }
        }
    }
    return specs;
}

std::vector<RunRecord>
runGridAt(unsigned numThreads)
{
    ParallelConfig cfg;
    cfg.numThreads = numThreads;
    ParallelRunner runner(cfg);
    return runner.runAll(gridSpecs());
}

/** Bit-exact comparison of two result sets (EXPECT_EQ on doubles is
 *  deliberate: equal bits, not tolerance). */
void
expectIdentical(const std::vector<RunRecord> &a,
                const std::vector<RunRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        SCOPED_TRACE("run " + std::to_string(i) + ": " +
                     a[i].spec.policy + "/" + a[i].spec.workload + "/" +
                     a[i].spec.hssConfig);
        EXPECT_EQ(a[i].runKey, b[i].runKey);
        EXPECT_EQ(a[i].result.policy, b[i].result.policy);
        EXPECT_EQ(a[i].result.workload, b[i].result.workload);

        const RunMetrics &ma = a[i].result.metrics;
        const RunMetrics &mb = b[i].result.metrics;
        EXPECT_EQ(ma.requests, mb.requests);
        EXPECT_EQ(ma.avgLatencyUs, mb.avgLatencyUs);
        EXPECT_EQ(ma.steadyAvgLatencyUs, mb.steadyAvgLatencyUs);
        EXPECT_EQ(ma.p50LatencyUs, mb.p50LatencyUs);
        EXPECT_EQ(ma.p99LatencyUs, mb.p99LatencyUs);
        EXPECT_EQ(ma.maxLatencyUs, mb.maxLatencyUs);
        EXPECT_EQ(ma.iops, mb.iops);
        EXPECT_EQ(ma.makespanUs, mb.makespanUs);
        EXPECT_EQ(ma.evictionFraction, mb.evictionFraction);
        EXPECT_EQ(ma.evictedPagesPerRequest, mb.evictedPagesPerRequest);
        EXPECT_EQ(ma.fastPlacementPreference,
                  mb.fastPlacementPreference);
        EXPECT_EQ(ma.placements, mb.placements);
        EXPECT_EQ(ma.promotions, mb.promotions);
        EXPECT_EQ(ma.demotions, mb.demotions);

        EXPECT_EQ(a[i].result.normalizedLatency,
                  b[i].result.normalizedLatency);
        EXPECT_EQ(a[i].result.normalizedIops,
                  b[i].result.normalizedIops);
        EXPECT_EQ(a[i].result.devicePagesWritten,
                  b[i].result.devicePagesWritten);
        EXPECT_EQ(a[i].result.totalEnergyMj, b[i].result.totalEnergyMj);
    }
}

TEST(ParallelRunner, SerialVsEightThreadsBitExact)
{
    const auto serial = runGridAt(1);
    const auto parallel = runGridAt(8);
    ASSERT_EQ(serial.size(), 24u);
    expectIdentical(serial, parallel);

    // The serialized results, every key included, are byte-identical.
    std::ostringstream a, b;
    writeResultsJson(a, serial);
    writeResultsJson(b, parallel);
    EXPECT_EQ(a.str(), b.str());
}

TEST(ParallelRunner, RepeatedEightThreadRunsBitExact)
{
    const auto first = runGridAt(8);
    const auto second = runGridAt(8);
    expectIdentical(first, second);

    // The structured JSON sink serializes doubles at full precision,
    // so bit-identical results must serialize byte-identically.
    std::ostringstream a, b;
    writeResultsJson(a, first);
    writeResultsJson(b, second);
    EXPECT_EQ(a.str(), b.str());
}

TEST(ParallelRunner, ResultsIndexedByMatrixOrderNotSchedule)
{
    const auto records = runGridAt(8);
    const auto specs = gridSpecs();
    ASSERT_EQ(records.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); i++) {
        EXPECT_EQ(records[i].spec.policy, specs[i].policy);
        EXPECT_EQ(records[i].spec.workload, specs[i].workload);
        EXPECT_EQ(records[i].spec.hssConfig, specs[i].hssConfig);
        EXPECT_EQ(records[i].result.policy, specs[i].policy);
        EXPECT_EQ(records[i].result.workload, specs[i].workload);
    }
}

TEST(ParallelRunner, TraceCacheGeneratesEachTraceOnce)
{
    ParallelConfig cfg;
    cfg.numThreads = 8;
    ParallelRunner runner(cfg);
    const auto records = runner.runAll(gridSpecs());
    ASSERT_EQ(records.size(), 24u);
    // 3 distinct workloads at one (len, seed) each -> 3 generations,
    // no matter how many of the 24 runs raced for them.
    EXPECT_EQ(runner.traceCache().generatedCount(), 3u);
    EXPECT_GE(runner.traceCache().requestCount(), 24u);
    // One Fast-Only baseline per (config, trace): 2 x 3.
    EXPECT_EQ(runner.baselineCount(), 6u);
}

TEST(ParallelRunner, RunKeyStableAndSaltsIndependent)
{
    RunSpec a;
    a.policy = "CDE";
    a.workload = "hm_1";
    a.hssConfig = "H&M";
    a.traceLen = 2000;

    RunSpec same = a;
    EXPECT_EQ(ParallelRunner::runKey(a), ParallelRunner::runKey(same));

    RunSpec otherPolicy = a;
    otherPolicy.policy = "HPS";
    RunSpec otherSeed = a;
    otherSeed.seed = 43;
    RunSpec otherConfig = a;
    otherConfig.hssConfig = "H&L";
    RunSpec otherQd = a;
    otherQd.sim.queueDepth = 8;
    EXPECT_NE(ParallelRunner::runKey(a),
              ParallelRunner::runKey(otherPolicy));
    EXPECT_NE(ParallelRunner::runKey(a),
              ParallelRunner::runKey(otherSeed));
    EXPECT_NE(ParallelRunner::runKey(a),
              ParallelRunner::runKey(otherConfig));
    EXPECT_NE(ParallelRunner::runKey(a),
              ParallelRunner::runKey(otherQd));

    const std::uint64_t key = ParallelRunner::runKey(a);
    EXPECT_NE(ParallelRunner::deriveStream(key, kDeviceJitterSalt),
              ParallelRunner::deriveStream(key, kAgentSalt));
    EXPECT_EQ(ParallelRunner::deriveStream(key, kAgentSalt),
              ParallelRunner::deriveStream(key, kAgentSalt));
}

TEST(ParallelRunner, DerivedSeedsMatchDirectPolicyExperiment)
{
    // The seeding rule of the file header, spelled out: a direct
    // runPolicyExperiment call whose device, agent and baseline seeds
    // come from deriveStream() over the run key (and over the
    // Fast-Only baseline's pseudo-spec key) reproduces the runner's
    // record bit for bit. H&L, because the HDD's seek jitter makes the
    // device seed observable.
    for (const char *policy : {"CDE", "Sibyl"}) {
        RunSpec s;
        s.policy = policy;
        s.workload = "usr_0";
        s.hssConfig = "H&L";
        s.traceLen = 2000;
        s.seed = 42;

        ParallelConfig pcfg;
        pcfg.numThreads = 4;
        ParallelRunner runner(pcfg);
        const auto rec = runner.runAll({s, s, s});

        RunSpec baseSpec = s;
        baseSpec.policy = "Fast-Only-baseline";
        baseSpec.fastCapacityFrac = 1.6;
        const std::uint64_t key = ParallelRunner::runKey(s);
        trace::Trace t = trace::makeWorkload(s.workload, s.traceLen);

        ExperimentConfig ecfg;
        ecfg.hssConfig = s.hssConfig;
        ecfg.fastCapacityFrac = s.fastCapacityFrac;
        ecfg.seed = ParallelRunner::deriveStream(
            ParallelRunner::runKey(baseSpec), kDeviceJitterSalt);
        const RunMetrics base = computeFastOnlyBaseline(ecfg, t);

        ecfg.seed = ParallelRunner::deriveStream(key, kDeviceJitterSalt);
        core::SibylConfig scfg;
        scfg.seed = ParallelRunner::deriveStream(key, kAgentSalt);
        auto p = makePolicy(s.policy, numHssDevices(s.hssConfig), scfg);
        const auto expected = runPolicyExperiment(ecfg, t, *p, base);

        for (const auto &r : rec) {
            EXPECT_EQ(r.runKey, key) << policy;
            EXPECT_EQ(r.result.metrics.avgLatencyUs,
                      expected.metrics.avgLatencyUs)
                << policy;
            EXPECT_EQ(r.result.normalizedLatency,
                      expected.normalizedLatency)
                << policy;
            EXPECT_EQ(r.result.normalizedIops, expected.normalizedIops)
                << policy;
            EXPECT_EQ(r.result.metrics.placements,
                      expected.metrics.placements)
                << policy;
        }
    }
}

TEST(ParallelRunner, ExternalTraceRunsDeterministically)
{
    auto t = std::make_shared<trace::Trace>("external");
    Pcg32 rng(7);
    for (int i = 0; i < 1500; i++)
        t->add({i * 50.0, rng.nextBounded(4000),
                1 + rng.nextBounded(4), rng.nextBool(0.4)
                    ? OpType::Write
                    : OpType::Read});
    RunSpec s;
    s.policy = "CDE";
    s.hssConfig = "H&M";
    s.externalTrace = t;

    auto runAt = [&](unsigned threads) {
        ParallelConfig cfg;
        cfg.numThreads = threads;
        ParallelRunner runner(cfg);
        return runner.runAll({s});
    };
    const auto serial = runAt(1);
    const auto parallel = runAt(4);
    expectIdentical(serial, parallel);
    EXPECT_EQ(serial[0].result.metrics.requests, 1500u);
}

TEST(ParallelRunner, UnknownPolicyBecomesStructuredFailureRecord)
{
    // Failure isolation (the default): a run that cannot even build
    // its policy is recorded as a failure, not thrown — the rest of
    // the batch completes.
    std::vector<RunSpec> specs(2);
    specs[0].policy = "CDE";
    specs[1].policy = "NoSuchPolicy";
    for (RunSpec &s : specs) {
        s.workload = "usr_0";
        s.traceLen = 500;
    }
    ParallelConfig cfg;
    cfg.numThreads = 4;
    ParallelRunner runner(cfg);
    const auto records = runner.runAll(specs);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(records[0].failed());
    EXPECT_GT(records[0].result.metrics.requests, 0u);
    ASSERT_TRUE(records[1].failed());
    EXPECT_EQ(records[1].status, "failed");
    // The diagnostic names the phase and carries the original what().
    EXPECT_EQ(records[1].error.rfind("policy: ", 0), 0u);
    EXPECT_NE(records[1].error.find("NoSuchPolicy"), std::string::npos);
    // A deterministic failure burns the whole retry budget (2).
    EXPECT_EQ(records[1].attempts, 2u);
    // Failed records serialize as identity + status/error/attempts.
    std::ostringstream os;
    writeResultsJson(os, records);
    EXPECT_NE(os.str().find("\"status\": \"failed\""),
              std::string::npos);
    EXPECT_NE(os.str().find("\"error\": "), std::string::npos);
}

TEST(ParallelRunner, FailedRunLeavesOtherRunsBitExact)
{
    RunSpec proto;
    proto.workload = "usr_0";
    proto.hssConfig = "H&M";
    proto.traceLen = 500;
    RunSpec a = proto;
    a.policy = "CDE";
    RunSpec b = proto;
    b.policy = "HPS";
    RunSpec bad = proto;
    bad.policy = "Archivist";
    bad.policySetup = [](policies::PlacementPolicy &) {
        throw std::runtime_error("injected persistent fault");
    };

    ParallelConfig cfg;
    cfg.numThreads = 4;
    ParallelRunner clean(cfg);
    const auto without = clean.runAll({a, b});
    ParallelRunner mixed(cfg);
    const auto with = mixed.runAll({a, bad, b});

    ASSERT_EQ(with.size(), 3u);
    ASSERT_TRUE(with[1].failed());
    EXPECT_EQ(with[1].error, "policy: injected persistent fault");
    // The healthy runs are bit-exact to a batch without the failure.
    expectIdentical({with[0], with[2]}, without);
}

TEST(ParallelRunner, TransientFailureRetriedBitExact)
{
    RunSpec s;
    s.policy = "Sibyl";
    s.workload = "usr_0";
    s.hssConfig = "H&M";
    s.traceLen = 500;

    RunSpec flaky = s;
    auto calls = std::make_shared<std::atomic<int>>(0);
    flaky.policySetup = [calls](policies::PlacementPolicy &) {
        if (calls->fetch_add(1) == 0)
            throw std::runtime_error("transient glitch");
    };

    ParallelConfig cfg;
    cfg.numThreads = 2;
    ParallelRunner control(cfg);
    const auto expected = control.runAll({s});
    ParallelRunner runner(cfg);
    const auto records = runner.runAll({flaky});

    ASSERT_EQ(records.size(), 1u);
    EXPECT_FALSE(records[0].failed());
    // The retry consumed one extra attempt and is recorded as such...
    EXPECT_EQ(records[0].attempts, 2u);
    std::ostringstream os;
    writeResultsJson(os, records);
    EXPECT_NE(os.str().find("\"attempts\": 2"), std::string::npos);
    // ...and the fresh attempt replayed the identical trajectory:
    // run-key-derived streams make attempt 2 bit-exact to attempt 1.
    EXPECT_EQ(records[0].result.metrics.avgLatencyUs,
              expected[0].result.metrics.avgLatencyUs);
    EXPECT_EQ(records[0].result.metrics.placements,
              expected[0].result.metrics.placements);
    EXPECT_EQ(records[0].result.normalizedLatency,
              expected[0].result.normalizedLatency);
}

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SIBYL_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SIBYL_UNDER_SANITIZER 1
#endif
#endif

TEST(ParallelRunner, ParallelPathIsFasterOnMulticoreHosts)
{
    // Timing assertion: only meaningful with real cores and without
    // sanitizer instrumentation. The repeatable measurement, with
    // medians and spread, is sibylbench's sim.runner.parallelism.
#ifdef SIBYL_UNDER_SANITIZER
    GTEST_SKIP() << "timing under sanitizers is not meaningful";
#else
    if (std::thread::hardware_concurrency() < 4)
        GTEST_SKIP() << "needs >= 4 cores";

    auto timeAt = [&](unsigned threads) {
        ParallelConfig cfg;
        cfg.numThreads = threads;
        ParallelRunner runner(cfg);
        const auto start = std::chrono::steady_clock::now();
        runner.runAll(gridSpecs());
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    // Alternate the two paths and keep each one's fastest of three, so
    // a burst of load from other processes cannot sink one side alone.
    double serial = 1e30, parallel = 1e30;
    for (int rep = 0; rep < 3; rep++) {
        serial = std::min(serial, timeAt(1));
        parallel = std::min(parallel, timeAt(8));
    }
    // Lenient bound: at 4+ cores, 8 workers must beat the serial path
    // by a clear margin.
    EXPECT_LT(parallel, serial * 0.85)
        << "serial " << serial << "s vs parallel " << parallel << "s";
#endif
}

} // namespace
} // namespace sibyl::sim
