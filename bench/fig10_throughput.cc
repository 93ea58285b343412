/**
 * @file
 * Regenerates Fig. 10: request throughput (IOPS) for the full policy
 * lineup on all fourteen MSRC workloads, normalized to Fast-Only.
 * The ordering mirrors Fig. 9 because latency and throughput are two
 * views of the same closed-loop replay (§8.1).
 */

#include "bench_util.hh"

using namespace sibyl;

int
main()
{
    scenario::ScenarioSpec spec;
    spec.name = "fig10_throughput";
    spec.policies = sim::standardPolicyLineup();
    for (const auto &p : trace::msrcProfiles())
        spec.workloads.push_back(p.name);
    spec.hssConfigs = {"H&M", "H&L"};
    // The paper's replayer drives the system closed-loop (throughput is
    // limited by the devices, not by the recorded host think time);
    // compress inter-arrival gaps so the H&M devices are the
    // bottleneck, as they are on the real testbed.
    spec.timeCompress = 100.0;
    // Mirror fig9: across-seed mean±95% CI cells, smoke-shrinkable.
    spec.seeds = {42, 43, 44};
    spec.traceLen = bench::requestOverride();
    bench::runLineup(spec,
                     "Fig. 10: request throughput (IOPS) across the 14 "
                     "MSRC workloads (normalized to Fast-Only)",
                     bench::Metric::NormalizedIops, "BENCH_fig10.json");
    return 0;
}
