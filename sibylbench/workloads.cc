#include "workloads.hh"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/fleet.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace_cache.hh"
#include "trace/workloads.hh"

namespace sibylbench
{

using namespace sibyl;

namespace
{

// Sizes: one timed repetition takes 0.3-1.2 s on a 4-core host, so a
// 30 s run gives 25-100 repetitions. Host noise on a shared machine
// moves from one second to the next, and the median of many short
// repetitions rides it out better than one long run.
constexpr std::size_t kSingleRequests = 60000;
constexpr std::size_t kFleetRequests = 40000; // per tenant
constexpr std::size_t kGridRequests = 40000;  // per trace
constexpr std::size_t kFleetTenants = 8;

/** Set-up is repeated this often per run; setup_s is the median. */
constexpr int kSetupReps = 15;

/** Timed repetitions run at least this often, however long they take. */
constexpr std::size_t kMinReps = 3;

/** Sibyl's average latency over CDE's on H&M (paper, Fig. 9). */
constexpr double kPaperSibylVsCde = 0.784;

/** Wall and CPU seconds of every timed repetition, and the process's
 *  peak resident set by the end of them (untimed checks that follow
 *  are not counted). */
struct Timed
{
    std::vector<double> wall;
    std::vector<double> cpu;
    double peakRssMb = 0.0;
};

/**
 * Run @p once repeatedly for @p seconds (at least kMinReps times),
 * timing each call, and check that every repetition's results
 * serialize (via @p serialize) to the same bytes. @p before, when
 * set, runs untimed ahead of every repetition.
 */
template <typename Result>
Timed
repeat(Report &rep, double seconds, const std::string &what,
       const std::function<Result()> &once,
       const std::function<std::string(const Result &)> &serialize,
       Result &last, const std::function<void()> &before = {})
{
    Timed t;
    std::string firstBytes;
    bool same = true;
    const double deadline = wallNow() + seconds;
    while (t.wall.size() < kMinReps || wallNow() < deadline) {
        // Hand the last repetition's freed heap back to the OS, so
        // peak_rss_mb measures one repetition's working set rather
        // than how much the allocator's per-thread arenas retained.
        malloc_trim(0);
        if (before)
            before();
        const double w0 = wallNow();
        const double c0 = cpuNow();
        last = once();
        t.cpu.push_back(cpuNow() - c0);
        t.wall.push_back(wallNow() - w0);
        std::string bytes = serialize(last);
        if (t.wall.size() == 1)
            firstBytes = std::move(bytes);
        else
            same = same && bytes == firstBytes;
    }
    t.peakRssMb = peakRssMb();
    rep.check(same, what + ": every timed repetition gives identical "
                           "results");
    return t;
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

/** req_per_s, cpu_ns_per_req, setup_s and peak_rss_mb from the timed
 *  repetitions. */
void
reportHost(Report &rep, const Timed &t, double requestsPerRep,
           const std::vector<double> &setup)
{
    std::vector<double> rps, cpuNs;
    for (std::size_t i = 0; i < t.wall.size(); i++) {
        rps.push_back(requestsPerRep / t.wall[i]);
        cpuNs.push_back(t.cpu[i] * 1e9 / requestsPerRep);
    }
    rep.metric("req_per_s", median(rps), "1/s");
    rep.metric("cpu_ns_per_req", median(cpuNs), "ns");
    rep.metric("setup_s", median(setup), "s");
    rep.metric("peak_rss_mb", t.peakRssMb, "MiB");
    const auto [lo, hi] = std::minmax_element(rps.begin(), rps.end());
    Report::note("timed repetitions: " + std::to_string(rps.size()) +
                 ", req/s min " + fmt("%.6g", *lo) + " max " +
                 fmt("%.6g", *hi));
}

/** CPU over wall time of every repetition, median. */
double
parallelism(const Timed &t)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < t.wall.size(); i++)
        v.push_back(t.cpu[i] / t.wall[i]);
    return median(v);
}

std::string
recordsJson(const std::vector<sim::RunRecord> &records)
{
    std::ostringstream os;
    sim::writeResultsJson(os, records);
    return os.str();
}

std::string
resultJson(const sim::RunSpec &spec, const sim::PolicyResult &r)
{
    sim::RunRecord rec;
    rec.spec = spec;
    rec.runKey = sim::ParallelRunner::runKey(spec);
    rec.result = r;
    return recordsJson({rec});
}

} // namespace

// ---------------------------------------------------------------------
// sibyl_single
// ---------------------------------------------------------------------

void
sibylSingle(const Options &opt, Report &rep)
{
    Cell sibyl; // "Sibyl": C51 at the repo-default cadence, H&M, 10%
    std::vector<double> setup, gen;
    for (int i = 0; i < kSetupReps; i++) {
        const double t0 = wallNow();
        sibyl.trace = std::make_shared<const trace::Trace>(
            trace::makeWorkload("prxy_1", kSingleRequests,
                                deriveSeed(opt.seed, 1)));
        const double t1 = wallNow();
        auto sys = sibyl.makeSystem();
        auto policy = sibyl.makePolicy(sys->numDevices());
        setup.push_back(wallNow() - t0);
        gen.push_back(t1 - t0);
    }
    const std::size_t n = sibyl.trace->size();

    if (opt.trace) {
        const auto ref = traceCells({sibyl}, opt.seconds, rep);
        rep.checkRun(ref[0], n, "Sibyl");
        rep.layer("trace.gen_ns_per_req", median(gen) * 1e9 / n);
        return;
    }

    sim::RunMetrics sib;
    const Timed t = repeat<sim::RunMetrics>(
        rep, opt.seconds, "Sibyl", [&] { return runCell(sibyl); },
        metricsJson, sib);
    rep.operations(t.wall.size(), 0);

    Cell cde = sibyl;
    cde.policy = "CDE";
    const sim::RunMetrics cdeM = runCell(cde);
    sim::ExperimentConfig ecfg;
    ecfg.hssConfig = sibyl.hssConfig;
    ecfg.seed = sibyl.deviceSeed;
    const sim::RunMetrics fast =
        sim::computeFastOnlyBaseline(ecfg, *sibyl.trace);
    rep.operations(2, 0);
    rep.checkRun(sib, n, "Sibyl");
    rep.checkRun(cdeM, n, "CDE");
    rep.checkRun(fast, n, "Fast-Only");

    reportHost(rep, t, static_cast<double>(n), setup);
    rep.metric("sim_avg_latency_us", sib.avgLatencyUs, "us");
    rep.metric("sim_p99_latency_us", sib.p99LatencyUs, "us");
    rep.metric("sim_latency_vs_cde", sib.avgLatencyUs / cdeM.avgLatencyUs,
               "ratio");
    Report::note("latency normalized to Fast-Only: Sibyl " +
                 fmt("%.4f", sib.avgLatencyUs / fast.avgLatencyUs) +
                 ", CDE " +
                 fmt("%.4f", cdeM.avgLatencyUs / fast.avgLatencyUs));
    Report::note("Sibyl vs CDE " +
                 fmt("%.4f", sib.avgLatencyUs / cdeM.avgLatencyUs) +
                 " (paper, H&M: " + fmt("%.3f", kPaperSibylVsCde) +
                 "); the device model is not validated against "
                 "hardware, so no error against the paper is claimed");
}

// ---------------------------------------------------------------------
// fleet_paper_cadence
// ---------------------------------------------------------------------

namespace
{

const char *const kFleetWorkloads[] = {"prxy_1", "mds_0", "rsrch_0",
                                       "usr_0"};
const char *const kFleetPolicy = "Sibyl{trainEvery=0}";

sim::RunSpec
fleetSpec(const Options &opt, const std::string &policy)
{
    auto fleet = std::make_shared<sim::FleetSpec>();
    for (std::size_t i = 0; i < kFleetTenants; i++) {
        sim::FleetTenant t;
        t.policy = policy;
        t.workload = kFleetWorkloads[i % std::size(kFleetWorkloads)];
        t.traceLen = kFleetRequests;
        t.traceSeed = deriveSeed(opt.seed, 100 + i);
        fleet->tenants.push_back(t);
    }
    sim::RunSpec spec;
    spec.policy = "Fleet";
    spec.workload = "fleet_paper_cadence";
    spec.hssConfig = "H&M";
    spec.traceLen = kFleetRequests;
    spec.fleet = std::move(fleet);
    return spec;
}

/** Tenant @p i's private pseudo-run, as sim/fleet.hh defines it. */
sim::RunSpec
tenantSpec(const sim::RunSpec &fleet, std::size_t i)
{
    const sim::FleetTenant &t = fleet.fleet->tenants.at(i);
    sim::RunSpec s;
    s.policy = t.policy;
    s.workload = t.workload;
    s.hssConfig = fleet.hssConfig;
    s.fastCapacityFrac = fleet.fastCapacityFrac;
    s.traceLen = t.traceLen;
    s.traceSeed = t.traceSeed;
    s.seed = fleet.seed;
    s.variantTag = "fleet-tenant:" + std::to_string(i);
    return s;
}

} // namespace

void
fleetPaperCadence(const Options &opt, Report &rep)
{
    const unsigned threads = benchThreads();
    const sim::RunSpec spec = fleetSpec(opt, kFleetPolicy);
    const std::size_t tenants = spec.fleet->tenants.size();
    const double requests = static_cast<double>(tenants * kFleetRequests);

    // Set-up fills the trace cache every tenant then draws from.
    std::unique_ptr<trace::TraceCache> cache;
    std::vector<double> setup;
    for (int i = 0; i < kSetupReps; i++) {
        const double t0 = wallNow();
        cache = std::make_unique<trace::TraceCache>();
        for (std::size_t k = 0; k < tenants; k++)
            cache->get(tenantSpec(spec, k).traceKey());
        setup.push_back(wallNow() - t0);
    }

    const auto runFleet = [&](const sim::RunSpec &s, unsigned n) {
        return sim::runFleetExperiment(s, *cache, true, n);
    };
    const auto json = [&](const sim::PolicyResult &r) {
        return resultJson(spec, r);
    };

    sim::PolicyResult fleet;
    const Timed t = repeat<sim::PolicyResult>(
        rep, opt.trace ? opt.seconds / 3 : opt.seconds, "fleet",
        [&] { return runFleet(spec, threads); }, json, fleet);
    rep.operations(t.wall.size() * tenants, 0);
    rep.checkRun(fleet.metrics, tenants * kFleetRequests, "fleet");
    for (std::size_t k = 0; k < fleet.tenants.size(); k++)
        rep.checkRun(fleet.tenants[k].metrics, kFleetRequests,
                     "fleet tenant " + std::to_string(k));
    rep.check(fleet.tenants.size() == tenants, "fleet: one slice per tenant");

    // The numThreads=1 oracle must serialize to the same bytes.
    const double s0 = wallNow();
    const sim::PolicyResult serial = runFleet(spec, 1);
    const double serialWall = wallNow() - s0;
    rep.operations(tenants, 0);
    rep.check(json(serial) == json(fleet),
              "fleet: " + std::to_string(threads) +
                  "-thread results byte-identical to the serial oracle");

    if (opt.trace) {
        rep.layer("sim.fleet.parallelism", parallelism(t));
        rep.layer("sim.fleet.speedup_vs_serial",
                  serialWall / median(t.wall));
        // Tenant 0 through the outside-in loop, on its fleet seeds.
        const sim::RunSpec ts = tenantSpec(spec, 0);
        const std::uint64_t key = sim::ParallelRunner::runKey(ts);
        Cell c;
        c.trace = cache->get(ts.traceKey());
        c.policy = kFleetPolicy;
        c.deviceSeed = sim::ParallelRunner::deriveStream(
            key, sim::kDeviceJitterSalt);
        c.sibylCfg.seed =
            sim::ParallelRunner::deriveStream(key, sim::kAgentSalt);
        const auto ref = traceCells({c}, opt.seconds * 2 / 3, rep);
        rep.checkRun(ref[0], kFleetRequests, "fleet tenant 0 (traced)");
        rep.layer("trace.gen_ns_per_req", median(setup) * 1e9 / requests);
        return;
    }

    const sim::RunSpec cdeSpec = fleetSpec(opt, "CDE");
    const sim::PolicyResult cde = runFleet(cdeSpec, threads);
    rep.operations(tenants, 0);
    rep.checkRun(cde.metrics, tenants * kFleetRequests, "CDE fleet");

    reportHost(rep, t, requests, setup);
    rep.metric("sim_avg_latency_us", fleet.metrics.avgLatencyUs, "us");
    rep.metric("sim_p99_latency_us", fleet.metrics.p99LatencyUs, "us");
    rep.metric("sim_latency_vs_cde",
               fleet.metrics.avgLatencyUs / cde.metrics.avgLatencyUs,
               "ratio");
    Report::note("fleet: " + std::to_string(tenants) + " tenants x " +
                 std::to_string(kFleetRequests) + " requests, " +
                 std::to_string(threads) + " threads; serial oracle " +
                 fmt("%.3f", serialWall) + " s, parallel median " +
                 fmt("%.3f", median(t.wall)) + " s");
}

// ---------------------------------------------------------------------
// grid_heuristic
// ---------------------------------------------------------------------

namespace
{

// Read-heavy (~5% writes) and write-heavy (> 96% writes) traces.
const char *const kGridTraces[] = {"hm_1", "proj_3", "wdev_2", "prxy_0"};
const char *const kGridPolicies[] = {"CDE", "HPS", "Oracle", "Slow-Only"};
const char *const kGridConfigs[] = {"H&M", "H&L"};
const std::uint64_t kGridSeeds[] = {1, 2};

/** The 64 grid cells in (config, trace, policy, seed) order. */
std::vector<sim::RunSpec>
gridSpecs(const Options &opt)
{
    std::vector<sim::RunSpec> specs;
    for (const char *config : kGridConfigs)
        for (std::size_t ti = 0; ti < std::size(kGridTraces); ti++)
            for (const char *policy : kGridPolicies)
                for (std::uint64_t seed : kGridSeeds) {
                    sim::RunSpec s;
                    s.policy = policy;
                    s.workload = kGridTraces[ti];
                    s.hssConfig = config;
                    s.traceLen = kGridRequests;
                    s.traceSeed = deriveSeed(opt.seed, 200 + ti);
                    s.seed = seed;
                    if (s.hssConfig == "H&M") {
                        s.specTweak = [](std::vector<device::DeviceSpec> &d) {
                            d.at(1).detailedFtl = true;
                        };
                        s.variantTag = "M:detailedFtl";
                    }
                    specs.push_back(std::move(s));
                }
    return specs;
}

} // namespace

void
gridHeuristic(const Options &opt, Report &rep)
{
    const unsigned threads = benchThreads();
    const std::vector<sim::RunSpec> specs = gridSpecs(opt);
    sim::ParallelConfig pcfg;
    pcfg.numThreads = threads;

    // Every repetition gets a fresh runner (so it computes its own
    // Fast-Only baselines) whose trace cache is filled before timing;
    // that fill is the set-up.
    std::unique_ptr<sim::ParallelRunner> runner;
    std::vector<double> setup;
    const auto fill = [&] {
        const double t0 = wallNow();
        runner = std::make_unique<sim::ParallelRunner>(pcfg);
        for (std::size_t i = 0; i < specs.size();
             i += std::size(kGridPolicies) * std::size(kGridSeeds))
            runner->traceCache().get(specs[i].traceKey());
        setup.push_back(wallNow() - t0);
    };
    while (setup.size() < static_cast<std::size_t>(kSetupReps))
        fill();
    const std::size_t traces = runner->traceCache().generatedCount();

    std::vector<sim::RunRecord> records;
    const Timed t = repeat<std::vector<sim::RunRecord>>(
        rep, opt.trace ? opt.seconds / 3 : opt.seconds, "grid",
        [&] { return runner->runAll(specs); }, recordsJson, records, fill);
    const std::size_t baselines = runner->baselineCount();
    rep.check(runner->traceCache().generatedCount() == traces,
              "grid: every run found its trace in the filled cache");

    std::size_t failed = 0;
    for (const sim::RunRecord &r : records) {
        if (r.failed()) {
            failed++;
            Report::note("grid run failed: " + r.spec.policy + " " +
                         r.spec.workload + " " + r.spec.hssConfig + ": " +
                         r.error);
            continue;
        }
        rep.checkRun(r.result.metrics, kGridRequests,
                     r.spec.policy + " " + r.spec.workload + " " +
                         r.spec.hssConfig);
    }
    rep.operations(records.size() * t.wall.size(),
                   failed * t.wall.size());

    if (opt.trace) {
        rep.layer("sim.runner.parallelism", parallelism(t));
        rep.layer("sim.runner.baselines", static_cast<double>(baselines));
        rep.layer("trace.cache_generated", static_cast<double>(traces));
        // The same cells serially through the outside-in loop, on the
        // runner's traces and device seeds.
        std::vector<Cell> cells;
        for (const sim::RunSpec &s : specs) {
            Cell c;
            c.trace = runner->traceCache().get(s.traceKey());
            c.hssConfig = s.hssConfig;
            c.detailedFtlOnM = s.hssConfig == "H&M";
            c.deviceSeed = sim::ParallelRunner::deriveStream(
                sim::ParallelRunner::runKey(s), sim::kDeviceJitterSalt);
            c.policy = s.policy;
            cells.push_back(std::move(c));
        }
        const auto ref = traceCells(cells, opt.seconds * 2 / 3, rep);
        bool sameAsRunner = true;
        for (std::size_t i = 0; i < ref.size(); i++)
            sameAsRunner = sameAsRunner &&
                           metricsJson(ref[i]) ==
                               metricsJson(records[i].result.metrics);
        rep.check(sameAsRunner, "grid: serial cells reproduce the "
                                "runner's results bit for bit");
        rep.layer("trace.gen_ns_per_req",
                  median(setup) * 1e9 /
                      static_cast<double>(traces * kGridRequests));
        return;
    }

    const double perRep =
        static_cast<double>((records.size() + baselines) * kGridRequests);
    double avg = 0.0, p99 = 0.0, logVsCde = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < records.size(); i++) {
        const sim::RunMetrics &m = records[i].result.metrics;
        avg += m.avgLatencyUs / static_cast<double>(records.size());
        p99 += m.p99LatencyUs / static_cast<double>(records.size());
        if (records[i].spec.policy != "Oracle")
            continue;
        // CDE of the same (config, trace, seed) sits two policies back.
        const sim::RunRecord &c =
            records.at(i - 2 * std::size(kGridSeeds));
        if (!rep.check(c.spec.policy == "CDE" &&
                           c.spec.workload == records[i].spec.workload &&
                           c.spec.seed == records[i].spec.seed,
                       "grid: Oracle cell pairs with its CDE cell"))
            continue;
        logVsCde += std::log(m.avgLatencyUs / c.result.metrics.avgLatencyUs);
        pairs++;
    }
    reportHost(rep, t, perRep, setup);
    rep.metric("sim_avg_latency_us", avg, "us");
    rep.metric("sim_p99_latency_us", p99, "us");
    rep.metric("sim_latency_vs_cde",
               pairs ? std::exp(logVsCde / static_cast<double>(pairs)) : 0.0,
               "ratio");
    Report::note("grid: " + std::to_string(records.size()) + " runs + " +
                 std::to_string(baselines) + " Fast-Only baselines x " +
                 std::to_string(kGridRequests) + " requests, " +
                 std::to_string(threads) + " threads");
}

} // namespace sibylbench
