/**
 * @file
 * Regenerates Fig. 16 (§8.7): tri-hybrid storage systems H&M&L and
 * H&M&L_SSD. Extending Sibyl needed only one extra action and one extra
 * capacity feature; the hot/cold/frozen heuristic needed its thresholds
 * and inter-device paths designed by hand — and still loses.
 *
 * H is restricted to 5% and M to 10% of the working set (§8.7).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace sibyl;

int
main()
{
    scenario::ScenarioSpec spec;
    spec.name = "fig16_trihybrid";
    spec.policies = {"Heuristic-Tri-Hybrid", "Sibyl"};
    for (const auto &p : trace::msrcProfiles())
        spec.workloads.push_back(p.name);
    spec.hssConfigs = {"H&M&L", "H&M&L_SSD"};
    spec.fastCapacityFrac = 0.05;
    spec.traceLen = bench::requestOverride();
    bench::runLineup(spec,
                     "Fig. 16: tri-hybrid HSS — heuristic [76] vs Sibyl "
                     "(normalized avg request latency)");

    std::printf("Paper reference: Sibyl outperforms the heuristic by "
                "23.9%%-48.2%% on average across the two tri-HSS\n"
                "configurations.\n");
    return 0;
}
