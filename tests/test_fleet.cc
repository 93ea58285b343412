/**
 * @file
 * Multi-tenant fleet serving tests.
 *
 * Covers the TraceMultiplexer merge contract (timestamp order, tenant
 * tie-break, per-tenant order preservation), the fleet determinism twin
 * suite (a >= 4 tenant fleet bit-identical at 1 vs 8 threads, and
 * tenant streams independent of fleet composition), the Jain fairness
 * index, a golden fleet snapshot family, the fleet scenario JSON
 * surface (parse / emit / lowering / validation), and the "comp*K" mix
 * grammar with its trace-cache keying regression tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "scenario/scenario_spec.hh"
#include "sim/fleet.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_mux.hh"
#include "trace/workloads.hh"

namespace sibyl
{
namespace
{

// ------------------------- TraceMultiplexer --------------------------

trace::Trace
traceAt(std::initializer_list<double> timestamps, PageId firstPage)
{
    trace::Trace t;
    PageId page = firstPage;
    for (double ts : timestamps) {
        trace::Request r;
        r.timestamp = ts;
        r.page = page++;
        t.add(r);
    }
    return t;
}

TEST(TraceMultiplexer, MergesByTimestampWithTenantTieBreak)
{
    const trace::Trace a = traceAt({10.0, 30.0, 30.0}, 100);
    const trace::Trace b = traceAt({5.0, 30.0, 40.0}, 200);
    const trace::TraceMultiplexer mux({&a, &b});

    ASSERT_EQ(mux.size(), 6u);
    EXPECT_EQ(mux.tenantCount(), 2u);
    // Ascending timestamps; the 30.0 tie goes to the lower tenant id,
    // and within a tenant index order is preserved.
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> want = {
        {1, 0}, {0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}};
    for (std::size_t i = 0; i < want.size(); i++) {
        EXPECT_EQ(mux[i].tenant, want[i].first) << "slot " << i;
        EXPECT_EQ(mux[i].index, want[i].second) << "slot " << i;
    }
    // request() resolves through to the borrowed traces.
    EXPECT_EQ(mux.request(0).page, 200u);
    EXPECT_EQ(mux.request(1).page, 100u);
}

TEST(TraceMultiplexer, NeverReordersWithinATenant)
{
    // Non-monotone timestamps: a head-pop merge must still emit each
    // tenant's requests in its own trace order.
    const trace::Trace a = traceAt({50.0, 10.0, 20.0}, 0);
    const trace::Trace b = traceAt({15.0}, 500);
    const trace::TraceMultiplexer mux({&a, &b});

    ASSERT_EQ(mux.size(), 4u);
    std::vector<std::uint32_t> lastIndex(mux.tenantCount(), 0);
    std::vector<bool> seen(mux.tenantCount(), false);
    for (const auto &e : mux) {
        if (seen[e.tenant]) {
            EXPECT_GT(e.index, lastIndex[e.tenant]);
        }
        seen[e.tenant] = true;
        lastIndex[e.tenant] = e.index;
    }
}

TEST(TraceMultiplexer, EmptyTenantsAndNullRejection)
{
    const trace::Trace empty;
    const trace::Trace one = traceAt({1.0}, 0);
    const trace::TraceMultiplexer mux({&empty, &one, &empty});
    EXPECT_EQ(mux.size(), 1u);
    EXPECT_EQ(mux.tenantCount(), 3u);
    EXPECT_EQ(mux[0].tenant, 1u);

    const trace::TraceMultiplexer none({});
    EXPECT_TRUE(none.empty());

    EXPECT_THROW(trace::TraceMultiplexer({&one, nullptr}),
                 std::invalid_argument);
}

// GCC 12 at -O2 and up reports a false -Wfree-nonheap-object inside
// libstdc++'s vector destructor, inlined at this function's end.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"
/** The pre-heap reference merge: linear head scan, lowest timestamp,
 *  ties to the lowest tenant id. */
std::vector<trace::TraceMultiplexer::Entry>
referenceLinearMerge(const std::vector<const trace::Trace *> &tenants)
{
    std::size_t total = 0;
    for (const trace::Trace *t : tenants)
        total += t->size();
    std::vector<trace::TraceMultiplexer::Entry> out;
    std::vector<std::size_t> cursor(tenants.size(), 0);
    for (std::size_t filled = 0; filled < total; filled++) {
        std::size_t best = tenants.size();
        SimTime bestTime = 0.0;
        for (std::size_t t = 0; t < tenants.size(); t++) {
            if (cursor[t] >= tenants[t]->size())
                continue;
            SimTime ts = (*tenants[t])[cursor[t]].timestamp;
            if (best == tenants.size() || ts < bestTime) {
                best = t;
                bestTime = ts;
            }
        }
        out.push_back({static_cast<std::uint32_t>(best),
                       static_cast<std::uint32_t>(cursor[best])});
        cursor[best]++;
    }
    return out;
}
#pragma GCC diagnostic pop

TEST(TraceMultiplexerHeap, MatchesReferenceMergeAtScale)
{
    // ~40 tenants with deliberately colliding timestamps (coarse grid)
    // and non-monotone streams: the indexed min-heap must reproduce
    // the linear reference scan slot for slot, including every
    // tie-to-lower-tenant-id resolution.
    Pcg32 rng(0x4EA9);
    std::vector<trace::Trace> traces(41);
    for (std::size_t t = 0; t < traces.size(); t++) {
        const std::size_t len = rng.nextBounded(30); // some empty
        for (std::size_t i = 0; i < len; i++) {
            trace::Request r;
            // Grid timestamps force cross-tenant ties; occasional
            // backward jumps exercise the non-monotone rule.
            r.timestamp = static_cast<double>(rng.nextBounded(12)) * 5.0;
            r.page = static_cast<PageId>(t * 1000 + i);
            traces[t].add(r);
        }
    }
    std::vector<const trace::Trace *> views;
    for (const auto &t : traces)
        views.push_back(&t);

    const auto want = referenceLinearMerge(views);
    const trace::TraceMultiplexer mux(views);
    ASSERT_EQ(mux.size(), want.size());
    for (std::size_t i = 0; i < want.size(); i++) {
        ASSERT_EQ(mux[i].tenant, want[i].tenant) << "slot " << i;
        ASSERT_EQ(mux[i].index, want[i].index) << "slot " << i;
    }
}

// --------------------------- fleet runs ------------------------------

/** The fleet_smoke.json lineup: an RL tenant, two heuristics, and a
 *  duplicate of the RL tenant (distinct-stream check rides on it). */
std::vector<sim::FleetTenant>
smokeTenants()
{
    sim::FleetTenant a;
    a.policy = "Sibyl{trainEvery=100}";
    a.workload = "prxy_1";
    sim::FleetTenant b;
    b.policy = "CDE";
    b.workload = "mds_0";
    sim::FleetTenant c;
    c.policy = "HPS";
    c.workload = "rsrch_0";
    return {a, b, c, a};
}

sim::RunSpec
fleetSpecOf(std::vector<sim::FleetTenant> tenants,
            std::size_t perTenantLen)
{
    auto fleet = std::make_shared<sim::FleetSpec>();
    fleet->tenants = std::move(tenants);
    sim::RunSpec s;
    s.policy = "Fleet";
    s.workload = "fleet";
    s.hssConfig = "H&M";
    s.traceLen = perTenantLen;
    s.fleet = fleet;
    return s;
}

void
expectTenantMetricsIdentical(const sim::TenantSummary &x,
                             const sim::TenantSummary &y)
{
    EXPECT_EQ(x.policy, y.policy);
    EXPECT_EQ(x.workload, y.workload);
    EXPECT_EQ(x.tenantKey, y.tenantKey);
    EXPECT_EQ(x.metrics.requests, y.metrics.requests);
    EXPECT_EQ(x.metrics.avgLatencyUs, y.metrics.avgLatencyUs);
    EXPECT_EQ(x.metrics.p50LatencyUs, y.metrics.p50LatencyUs);
    EXPECT_EQ(x.metrics.p99LatencyUs, y.metrics.p99LatencyUs);
    EXPECT_EQ(x.metrics.p999LatencyUs, y.metrics.p999LatencyUs);
    EXPECT_EQ(x.metrics.maxLatencyUs, y.metrics.maxLatencyUs);
    EXPECT_EQ(x.metrics.iops, y.metrics.iops);
    EXPECT_EQ(x.metrics.promotions, y.metrics.promotions);
    EXPECT_EQ(x.metrics.demotions, y.metrics.demotions);
}

/** Learner tenants that train, sync and (for the guardrail tenant)
 *  trip inside a 300-request trace: prioritized replay, VDBE
 *  exploration, and a guardrail with an injected NaN reward. */
std::vector<sim::FleetTenant>
learnerTenants()
{
    const std::string train =
        "bufferCapacity=100,trainEvery=50,targetSyncEvery=100";
    sim::FleetTenant a;
    a.policy = "Sibyl{per=1," + train + "}";
    a.workload = "prxy_1";
    sim::FleetTenant b;
    b.policy = "Sibyl{explore=vdbe," + train + "}";
    b.workload = "mds_0";
    sim::FleetTenant c;
    c.policy = "Sibyl{guardrail=1,guardrailSnapshotEvery=100,"
               "guardrailInjectNanAt=150," + train + "}";
    c.workload = "rsrch_0";
    sim::FleetTenant d;
    d.policy = "Sibyl{agent=dqn,per=1," + train + "}";
    d.workload = "usr_0";
    return {a, b, c, d};
}

TEST(Fleet, BitIdenticalAcrossThreadCounts)
{
    // The acceptance bar: a fleet run with >= 4 tenants is
    // bit-identical between the serial multiplexed oracle and the
    // tenant-sharded parallel path — for the smoke lineup and for
    // learner tenants with replay priorities, loss-driven exploration
    // and guardrail trips.
    for (const auto &lineup : {smokeTenants(), learnerTenants()}) {
        SCOPED_TRACE("lineup starting " + lineup[0].policy);
        const sim::RunSpec spec = fleetSpecOf(lineup, 300);
        trace::TraceCache traces;
        const sim::PolicyResult serial =
            sim::runFleetExperiment(spec, traces, true, 1);
        const sim::PolicyResult parallel =
            sim::runFleetExperiment(spec, traces, true, 8);

        EXPECT_EQ(serial.metrics.requests, 4u * 300u);
        EXPECT_EQ(serial.metrics.requests, parallel.metrics.requests);
        EXPECT_EQ(serial.metrics.avgLatencyUs, parallel.metrics.avgLatencyUs);
        EXPECT_EQ(serial.metrics.p50LatencyUs, parallel.metrics.p50LatencyUs);
        EXPECT_EQ(serial.metrics.p99LatencyUs, parallel.metrics.p99LatencyUs);
        EXPECT_EQ(serial.metrics.p999LatencyUs,
                  parallel.metrics.p999LatencyUs);
        EXPECT_EQ(serial.metrics.maxLatencyUs, parallel.metrics.maxLatencyUs);
        EXPECT_EQ(serial.metrics.iops, parallel.metrics.iops);
        EXPECT_EQ(serial.metrics.makespanUs, parallel.metrics.makespanUs);
        EXPECT_EQ(serial.fairnessJain, parallel.fairnessJain);
        EXPECT_EQ(serial.totalEnergyMj, parallel.totalEnergyMj);
        ASSERT_EQ(serial.tenants.size(), 4u);
        ASSERT_EQ(parallel.tenants.size(), 4u);
        for (std::size_t i = 0; i < serial.tenants.size(); i++) {
            SCOPED_TRACE("tenant " + std::to_string(i));
            expectTenantMetricsIdentical(serial.tenants[i],
                                         parallel.tenants[i]);
        }
        // Tail ordering holds at the aggregate too.
        EXPECT_LE(serial.metrics.p50LatencyUs, serial.metrics.p99LatencyUs);
        EXPECT_LE(serial.metrics.p99LatencyUs, serial.metrics.p999LatencyUs);
        EXPECT_LE(serial.metrics.p999LatencyUs, serial.metrics.maxLatencyUs);
    }
}

/** The tenants x threads sweep lineup: an RL tenant and three
 *  heuristics, Archivist included, cycled over four MSRC
 *  personalities. */
std::vector<sim::FleetTenant>
cyclicTenants(std::size_t n)
{
    static const char *kPolicies[] = {"Sibyl{trainEvery=100}", "CDE",
                                      "HPS", "Archivist"};
    static const char *kWorkloads[] = {"prxy_1", "mds_0", "rsrch_0",
                                       "usr_0"};
    std::vector<sim::FleetTenant> out(n);
    for (std::size_t i = 0; i < n; i++) {
        out[i].policy = kPolicies[i % 4];
        out[i].workload = kWorkloads[i % 4];
    }
    return out;
}

TEST(Fleet, ResultsJsonBitExactThroughRunner)
{
    // Same check end-to-end: a fleet RunSpec through ParallelRunner
    // (nesting its parallelFor inside the runner's) serializes
    // byte-identically at 1 thread (the serial multiplexed oracle) vs
    // 8 (tenant-sharded): the smoke lineup, and the cyclic lineup at
    // 2, 4 and 8 tenants.
    std::vector<sim::RunSpec> specs = {fleetSpecOf(smokeTenants(), 300)};
    for (std::size_t n : {2, 4, 8})
        specs.push_back(fleetSpecOf(cyclicTenants(n), 300));
    for (const sim::RunSpec &spec : specs) {
        SCOPED_TRACE(std::to_string(spec.fleet->tenants.size()) +
                     " tenants");
        std::string out[2];
        const unsigned threads[2] = {1, 8};
        for (int i = 0; i < 2; i++) {
            sim::ParallelConfig cfg;
            cfg.numThreads = threads[i];
            sim::ParallelRunner runner(cfg);
            std::ostringstream os;
            sim::writeResultsJson(os, runner.runAll({spec}));
            out[i] = os.str();
        }
        EXPECT_EQ(out[0], out[1]);
        // The fleet block made it into the serialized record.
        EXPECT_NE(out[0].find("\"fairnessJain\""), std::string::npos);
        EXPECT_NE(out[0].find("\"tenantP999LatencyUs\""),
                  std::string::npos);
        EXPECT_NE(out[0].find("\"p999LatencyUs\""), std::string::npos);
    }
}

TEST(Fleet, TenantStreamsIndependentOfFleetComposition)
{
    // Appending tenant j must leave tenant i's trajectory
    // bit-identical: the tenant RNG-derivation rule keys streams off
    // the tenant's own (config, index), never the fleet composition.
    auto tenants = smokeTenants();
    const sim::RunSpec small =
        fleetSpecOf({tenants.begin(), tenants.begin() + 3}, 300);
    const sim::RunSpec large = fleetSpecOf(tenants, 300);

    trace::TraceCache traces;
    const sim::PolicyResult a =
        sim::runFleetExperiment(small, traces, true, 4);
    const sim::PolicyResult b =
        sim::runFleetExperiment(large, traces, true, 4);
    ASSERT_EQ(a.tenants.size(), 3u);
    ASSERT_EQ(b.tenants.size(), 4u);
    for (std::size_t i = 0; i < 3; i++) {
        SCOPED_TRACE("tenant " + std::to_string(i));
        expectTenantMetricsIdentical(a.tenants[i], b.tenants[i]);
    }
}

TEST(Fleet, DuplicateTenantsOwnDistinctStreams)
{
    // smokeTenants() deliberately repeats the Sibyl/prxy_1 tenant at
    // indices 0 and 3: the index salt in the tenant variant tag must
    // give the twin its own device-jitter and agent streams.
    const sim::RunSpec spec = fleetSpecOf(smokeTenants(), 300);
    trace::TraceCache traces;
    const sim::PolicyResult r =
        sim::runFleetExperiment(spec, traces, true, 1);
    ASSERT_EQ(r.tenants.size(), 4u);
    EXPECT_EQ(r.tenants[0].policy, r.tenants[3].policy);
    EXPECT_EQ(r.tenants[0].workload, r.tenants[3].workload);
    EXPECT_NE(r.tenants[0].tenantKey, r.tenants[3].tenantKey);
    // Same trace, different jitter: request counts match, latencies
    // are allowed (expected) to differ.
    EXPECT_EQ(r.tenants[0].metrics.requests,
              r.tenants[3].metrics.requests);
}

TEST(Fleet, RunKeyFoldsComposition)
{
    const sim::RunSpec four = fleetSpecOf(smokeTenants(), 300);
    sim::RunSpec three = four;
    auto tenants = smokeTenants();
    tenants.pop_back();
    auto fleet = std::make_shared<sim::FleetSpec>();
    fleet->tenants = std::move(tenants);
    three.fleet = fleet;

    sim::RunSpec noFleet = four;
    noFleet.fleet.reset();

    EXPECT_NE(sim::ParallelRunner::runKey(four),
              sim::ParallelRunner::runKey(three));
    EXPECT_NE(sim::ParallelRunner::runKey(four),
              sim::ParallelRunner::runKey(noFleet));
    EXPECT_EQ(sim::ParallelRunner::runKey(four),
              sim::ParallelRunner::runKey(fleetSpecOf(smokeTenants(), 300)));
}

TEST(Fleet, RejectsEmptyFleet)
{
    sim::RunSpec spec = fleetSpecOf({}, 300);
    trace::TraceCache traces;
    EXPECT_THROW(sim::runFleetExperiment(spec, traces, true, 1),
                 std::invalid_argument);
    spec.fleet.reset();
    EXPECT_THROW(sim::runFleetExperiment(spec, traces, true, 1),
                 std::invalid_argument);
}

TEST(Fleet, JainFairnessIndex)
{
    EXPECT_DOUBLE_EQ(sim::jainFairnessIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(sim::jainFairnessIndex({0.0, 0.0}), 1.0);
    EXPECT_DOUBLE_EQ(sim::jainFairnessIndex({7.0}), 1.0);
    EXPECT_DOUBLE_EQ(sim::jainFairnessIndex({2.0, 2.0, 2.0}), 1.0);
    // One tenant hogging everything: J = 1/N.
    EXPECT_DOUBLE_EQ(sim::jainFairnessIndex({1.0, 0.0, 0.0, 0.0}), 0.25);
    // (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
    EXPECT_DOUBLE_EQ(sim::jainFairnessIndex({1.0, 2.0, 3.0}), 36.0 / 42.0);
}

// ----------------------- golden fleet snapshot -----------------------

TEST(Fleet, GoldenFleetSnapshot)
{
    // Snapshot of the fleet_smoke lineup at traceLen 300, seed 42,
    // H&M. Values regenerate via the printf below on failure (same
    // contract as test_golden_runs.cc: intentional changes paste the
    // "actual:" line over the constants).
    struct Golden
    {
        double avgLatencyUs, p999LatencyUs, iops, fairnessJain;
    };
    const Golden g = {46.314916632772956, 299.66039154132886,
                      13004.986768853858, 0.99590092717632972};

    const sim::RunSpec spec = fleetSpecOf(smokeTenants(), 300);
    trace::TraceCache traces;
    const sim::PolicyResult r =
        sim::runFleetExperiment(spec, traces, true, 1);

    const double tol = 0.02;
    EXPECT_EQ(r.metrics.requests, 1200u);
    EXPECT_NEAR(r.metrics.avgLatencyUs, g.avgLatencyUs,
                g.avgLatencyUs * tol);
    EXPECT_NEAR(r.metrics.p999LatencyUs, g.p999LatencyUs,
                g.p999LatencyUs * tol);
    EXPECT_NEAR(r.metrics.iops, g.iops, g.iops * tol);
    EXPECT_NEAR(r.fairnessJain, g.fairnessJain, 0.01 + g.fairnessJain * tol);

    if (::testing::Test::HasNonfatalFailure()) {
        std::printf("actual: {%.17g, %.17g,\n %.17g, %.17g};\n",
                    r.metrics.avgLatencyUs, r.metrics.p999LatencyUs,
                    r.metrics.iops, r.fairnessJain);
    }
}

// ----------------------- scenario JSON surface -----------------------

const char *kFleetScenarioJson = R"({
  "name": "fleet-test",
  "fleet": [
    {"policy": "Sibyl{trainEvery=100}", "workload": "prxy_1"},
    {"policy": "CDE", "workload": "mds_0", "traceLen": 200},
    {"policy": "HPS", "workload": "rsrch_0", "timeCompress": 2.0}
  ],
  "hssConfigs": ["H&M"],
  "seeds": [42],
  "traceLen": 400
})";

TEST(FleetScenario, ParsesTenants)
{
    const auto spec = scenario::parseScenarioJson(kFleetScenarioJson);
    EXPECT_EQ(spec.name, "fleet-test");
    EXPECT_TRUE(spec.policies.empty());
    EXPECT_TRUE(spec.workloads.empty());
    EXPECT_EQ(spec.traceLen, 400u);
    ASSERT_EQ(spec.fleetTenants.size(), 3u);
    EXPECT_EQ(spec.fleetTenants[0].policy, "Sibyl{trainEvery=100}");
    EXPECT_EQ(spec.fleetTenants[0].workload, "prxy_1");
    EXPECT_EQ(spec.fleetTenants[0].traceLen, 0u);
    EXPECT_EQ(spec.fleetTenants[1].policy, "CDE");
    EXPECT_EQ(spec.fleetTenants[1].traceLen, 200u);
    EXPECT_DOUBLE_EQ(spec.fleetTenants[2].timeCompress, 2.0);

    // The two tenant keys the fixture leaves out.
    const auto keyed = scenario::parseScenarioJson(R"({
      "fleet": [{"workload": "mix1", "mixedWorkload": true,
                 "traceSeed": 16045690984833335023}]})");
    ASSERT_EQ(keyed.fleetTenants.size(), 1u);
    EXPECT_EQ(keyed.fleetTenants[0].policy, sim::FleetTenant().policy);
    EXPECT_TRUE(keyed.fleetTenants[0].mixedWorkload);
    EXPECT_EQ(keyed.fleetTenants[0].traceSeed, 0xDEADBEEFDEADBEEFULL);
}

TEST(FleetScenario, LoweringProducesFleetRunSpecs)
{
    const auto spec = scenario::parseScenarioJson(kFleetScenarioJson);
    const auto runs = spec.expand();
    ASSERT_EQ(runs.size(), 1u); // 1 hssConfig x 1 seed -> one fleet run
    const sim::RunSpec &r = runs[0];
    EXPECT_EQ(r.policy, "Fleet");
    EXPECT_EQ(r.workload, "fleet:prxy_1+mds_0+rsrch_0");
    EXPECT_EQ(r.traceLen, 400u); // default tenant length
    ASSERT_TRUE(r.fleet != nullptr);
    ASSERT_EQ(r.fleet->tenants.size(), 3u);
    EXPECT_EQ(r.fleet->tenants[1].traceLen, 200u);
}

TEST(FleetScenario, ValidationErrors)
{
    // fleet excludes policies/workloads.
    EXPECT_THROW(scenario::parseScenarioJson(R"({
        "name": "x",
        "fleet": [{"workload": "prxy_1"}],
        "policies": ["CDE"], "workloads": ["mds_0"]})"),
                 std::invalid_argument);
    // Empty tenant list.
    EXPECT_THROW(scenario::parseScenarioJson(
                     R"({"name": "x", "fleet": []})"),
                 std::invalid_argument);
    // Tenant must name a workload.
    EXPECT_THROW(scenario::parseScenarioJson(
                     R"({"name": "x", "fleet": [{"policy": "CDE"}]})"),
                 std::invalid_argument);
    // Unknown tenant key.
    EXPECT_THROW(scenario::parseScenarioJson(R"({
        "name": "x",
        "fleet": [{"workload": "prxy_1", "bogus": 1}]})"),
                 std::invalid_argument);
    // Unresolvable tenant policy surfaces at expand().
    const auto spec = scenario::parseScenarioJson(R"({
        "name": "x",
        "fleet": [{"policy": "NoSuchPolicy", "workload": "prxy_1"}]})");
    EXPECT_THROW(spec.expand(), std::invalid_argument);
    // Retired serving knobs fail loudly: the scenario-level block is
    // an unknown key, and the agent knob an unknown Sibyl parameter.
    EXPECT_THROW(scenario::parseScenarioJson(R"({
        "name": "x",
        "fleet": [{"policy": "CDE", "workload": "prxy_1"}],
        "fleetServing": {"batched": true}})"),
                 std::invalid_argument);
    const auto retired = scenario::parseScenarioJson(R"({
        "name": "x",
        "fleet": [{"policy": "Sibyl{asyncTraining=1}",
                   "workload": "prxy_1"}]})");
    EXPECT_THROW(retired.expand(), std::invalid_argument);
}

// ------------------- mix grammar and cache keying --------------------

TEST(MixGrammar, RepeatCountsExpand)
{
    using trace::resolveMixComposition;
    EXPECT_EQ(resolveMixComposition("prxy_1*2+mds_0"),
              "prxy_1+prxy_1+mds_0");
    EXPECT_EQ(resolveMixComposition("prxy_1*1"), "prxy_1");
    EXPECT_EQ(resolveMixComposition("prxy_1+mds_0"), "prxy_1+mds_0");
    // Named mixes resolve to their component lists.
    EXPECT_EQ(resolveMixComposition("mix2"),
              resolveMixComposition(resolveMixComposition("mix2")));

    EXPECT_THROW(resolveMixComposition("prxy_1*0"),
                 std::invalid_argument);
    EXPECT_THROW(resolveMixComposition("prxy_1*65"),
                 std::invalid_argument);
    EXPECT_THROW(resolveMixComposition("prxy_1*x"),
                 std::invalid_argument);
}

TEST(MixGrammar, RepeatEqualsExplicitDuplication)
{
    // "a*2+b" is pure sugar for "a+a+b": identical generated traces.
    const trace::Trace sugar =
        trace::makeMixedWorkload("prxy_1*2+mds_0", 600);
    const trace::Trace explicitDup =
        trace::makeMixedWorkload("prxy_1+prxy_1+mds_0", 600);
    ASSERT_EQ(sugar.size(), explicitDup.size());
    for (std::size_t i = 0; i < sugar.size(); i++) {
        ASSERT_EQ(sugar[i].page, explicitDup[i].page) << "req " << i;
        ASSERT_EQ(sugar[i].timestamp, explicitDup[i].timestamp);
        ASSERT_EQ(sugar[i].op, explicitDup[i].op);
    }
}

TEST(TraceCacheKeying, DistinctCompositionsNeverShareAnEntry)
{
    // Regression for the cache-key collision family: entries that
    // generate different request streams must occupy different cache
    // slots even when their canonical() trace keys agree on
    // (len, seed, mixed, compress).
    trace::TraceCache cache;
    trace::TraceKey sugar{"prxy_1*2+mds_0", 600, 0, true};
    trace::TraceKey dup{"prxy_1+prxy_1+mds_0", 600, 0, true};
    trace::TraceKey pair{"prxy_1+mds_0", 600, 0, true};
    const auto a = cache.get(sugar);
    const auto b = cache.get(dup);
    const auto c = cache.get(pair);
    EXPECT_EQ(cache.generatedCount(), 3u);
    // The sugar and explicit forms are distinct entries (different
    // names) but identical content by construction.
    ASSERT_EQ(a->size(), b->size());
    EXPECT_EQ((*a)[0].page, (*b)[0].page);
    EXPECT_NE(a->size(), 0u);
    // numRequests is per component: 2 components x 600.
    EXPECT_EQ(c->size(), 1200u);
    // Repeat hits stay cached.
    cache.get(sugar);
    EXPECT_EQ(cache.generatedCount(), 3u);
}

TEST(TraceCacheKeying, DefaultLengthTracksTraceScaleEnv)
{
    // Latent-bug regression: a default-length key (numRequests = 0)
    // resolves SIBYL_TRACE_SCALE at generation time. Changing the
    // scale mid-process used to serve the stale first-resolved trace;
    // the cache id now bakes in the resolved length.
    const char *old = std::getenv("SIBYL_TRACE_SCALE");
    const std::string saved = old ? old : "";

    setenv("SIBYL_TRACE_SCALE", "0.01", 1);
    trace::TraceCache cache;
    trace::TraceKey key{"prxy_1", 0, 0, false};
    const auto small = cache.get(key);
    EXPECT_EQ(cache.generatedCount(), 1u);
    EXPECT_EQ(small->size(), trace::defaultTraceLength());

    setenv("SIBYL_TRACE_SCALE", "0.02", 1);
    const auto larger = cache.get(key);
    EXPECT_EQ(cache.generatedCount(), 2u);
    EXPECT_EQ(larger->size(), trace::defaultTraceLength());
    EXPECT_NE(small->size(), larger->size());

    if (old)
        setenv("SIBYL_TRACE_SCALE", saved.c_str(), 1);
    else
        unsetenv("SIBYL_TRACE_SCALE");
}

} // namespace
} // namespace sibyl
