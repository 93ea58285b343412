/**
 * @file
 * Regenerates Fig. 18 (§9): evictions from the fast device as a
 * fraction of all storage requests, per policy and workload, under both
 * dual configurations. The paper observes that CDE evicts the most
 * (aggressive placement) and that Sibyl evicts less than the baselines
 * in H&M while adopting a CDE-like aggressive profile in H&L.
 */

#include "bench_util.hh"

using namespace sibyl;

int
main()
{
    scenario::ScenarioSpec spec;
    spec.name = "fig18_evictions";
    spec.policies = {"CDE", "HPS", "Archivist", "RNN-HSS", "Sibyl"};
    for (const auto &p : trace::msrcProfiles())
        spec.workloads.push_back(p.name);
    spec.hssConfigs = {"H&M", "H&L"};
    spec.traceLen = bench::requestOverride();
    bench::runLineup(spec,
                     "Fig. 18: evictions from fast storage as a fraction "
                     "of all requests",
                     bench::Metric::EvictionFraction);
    return 0;
}
