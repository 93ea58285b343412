/**
 * @file
 * Fleet-serving scaling bench: wall-clock of one multi-tenant fleet run
 * (sim/fleet.hh) on the serial multiplexed oracle (numThreads = 1) vs
 * the tenant-sharded parallel path at the machine's core count, swept
 * over tenant counts, plus an A/B bit-exactness check between the two
 * paths (serialized results JSON compared byte-for-byte; any divergence
 * makes the bench exit nonzero). Emits BENCH_fleet.json with wall
 * times, aggregate fleet request throughput, speedups — the headline
 * series is sharded against the serial oracle — and the equivalence
 * verdict.
 *
 * SIBYL_BENCH_REQUESTS overrides the per-tenant trace length for CI
 * smoke runs.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "sim/fleet.hh"
#include "sim/parallel_runner.hh"

using namespace sibyl;

namespace
{

/** Heterogeneous fleet: the tenant lineup cycles an RL policy and
 *  three heuristics over four MSRC personalities. */
sim::RunSpec
fleetSpec(std::size_t tenants, std::size_t perTenantLen)
{
    static const char *kPolicies[] = {"Sibyl{trainEvery=100}", "CDE",
                                      "HPS", "Archivist"};
    static const char *kWorkloads[] = {"prxy_1", "mds_0", "rsrch_0",
                                       "usr_0"};
    auto fleet = std::make_shared<sim::FleetSpec>();
    std::string workloadLabel = "fleet:";
    for (std::size_t i = 0; i < tenants; i++) {
        sim::FleetTenant t;
        t.policy = kPolicies[i % 4];
        t.workload = kWorkloads[i % 4];
        fleet->tenants.push_back(t);
        if (i)
            workloadLabel += '+';
        workloadLabel += t.workload;
    }

    sim::RunSpec s;
    s.policy = "Fleet";
    s.workload = workloadLabel;
    s.hssConfig = "H&M";
    s.traceLen = perTenantLen; // default tenant trace length
    s.fleet = fleet;
    return s;
}

struct FleetRun
{
    double wall = 0.0;
    std::uint64_t requests = 0;
    std::string json;
};

FleetRun
timedRun(std::size_t tenants, std::size_t perTenantLen,
         unsigned numThreads)
{
    sim::ParallelConfig cfg;
    cfg.numThreads = numThreads;
    sim::ParallelRunner runner(cfg);
    const std::vector<sim::RunSpec> specs = {
        fleetSpec(tenants, perTenantLen)};
    const auto start = std::chrono::steady_clock::now();
    const auto records = runner.runAll(specs);
    FleetRun out;
    out.wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    out.requests = records.at(0).result.metrics.requests;
    std::ostringstream json;
    sim::writeResultsJson(json, records);
    out.json = json.str();
    return out;
}

} // namespace

int
main()
{
    bench::banner("perf_fleet: multi-tenant fleet wall-clock, serial "
                  "multiplexed oracle vs tenant-sharded parallel path");

    const unsigned hw = ThreadPool::defaultThreads();
    const std::size_t perTenantLen = bench::requestOverride(6000);
    const std::vector<std::size_t> tenantCounts = {2, 4, 8};
    std::printf("per-tenant trace length %zu, %u worker threads "
                "available\n\n",
                perTenantLen, hw);

    bench::BenchJson json("perf_fleet");
    json.add("threads", static_cast<double>(hw));
    json.add("per_tenant_requests", static_cast<double>(perTenantLen));

    TextTable tab;
    tab.header({"tenants", "requests", "serial (s)", "parallel (s)",
                "speedup", "fleet req/s", "bit-exact"});
    bool allExact = true;
    for (std::size_t tenants : tenantCounts) {
        const FleetRun serial = timedRun(tenants, perTenantLen, 1);
        const FleetRun parallel = timedRun(tenants, perTenantLen, hw);
        const bool bitExact = serial.json == parallel.json;
        allExact = allExact && bitExact;
        const double speedup =
            parallel.wall > 0.0 ? serial.wall / parallel.wall : 0.0;
        // Aggregate fleet serving rate: total tenant requests the
        // parallel path retires per wall-clock second.
        const double reqPerSec = parallel.wall > 0.0
            ? static_cast<double>(parallel.requests) / parallel.wall
            : 0.0;

        tab.addRow({std::to_string(tenants),
                    std::to_string(parallel.requests),
                    cell(serial.wall, 2), cell(parallel.wall, 2),
                    cell(speedup, 2), cell(reqPerSec, 0),
                    bitExact ? "YES" : "NO (BUG)"});

        const std::string prefix = "t" + std::to_string(tenants) + "_";
        json.add(prefix + "requests",
                 static_cast<double>(parallel.requests));
        json.add(prefix + "serial_wall_seconds", serial.wall);
        json.add(prefix + "parallel_wall_seconds", parallel.wall);
        json.add(prefix + "speedup", speedup);
        json.add(prefix + "fleet_requests_per_second", reqPerSec);
        json.add(prefix + "serial_requests_per_second",
                 serial.wall > 0.0
                     ? static_cast<double>(serial.requests) / serial.wall
                     : 0.0);
        json.add(prefix + "bit_exact", bitExact ? 1.0 : 0.0);
    }
    tab.print(std::cout);
    std::printf("\nfleet results bit-exact across thread counts: %s\n",
                allExact ? "YES" : "NO (BUG)");

    json.add("bit_exact", allExact ? 1.0 : 0.0);
    if (json.writeTo("BENCH_fleet.json"))
        std::printf("wrote BENCH_fleet.json\n");

    // Divergence between the two paths (thread-count nondeterminism)
    // is a correctness bug, not a perf miss.
    return allExact ? 0 : 1;
}
