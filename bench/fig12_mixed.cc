/**
 * @file
 * Regenerates Fig. 12 (§8.3): mixed workloads (Table 5) with randomly
 * varied relative start times. Two Sibyl settings are compared:
 * Sibyl_Def (default hyper-parameters) and Sibyl_Opt (lower learning
 * rate, tuned for the mixed scenario).
 */

#include "bench_util.hh"

using namespace sibyl;

int
main()
{
    // Sibyl_Def and Sibyl_Opt differ only in the learning rate: the
    // optimized variant uses a 10x lower alpha (§8.3), making smaller,
    // more stable updates under the unpredictable mixed request stream.
    scenario::ScenarioSpec spec;
    spec.name = "fig12_mixed";
    spec.policies = {"Slow-Only", "CDE", "HPS", "Archivist", "RNN-HSS",
                     "Sibyl_Def", "Oracle"};
    spec.workloads = trace::mixedWorkloadNames();
    spec.hssConfigs = {"H&M", "H&L"};
    spec.mixedWorkloads = true;
    // A mix splits the request budget across its two components.
    spec.traceLen = bench::requestOverride() / 2;
    bench::runLineup(spec,
                     "Fig. 12: average request latency on mixed "
                     "workloads (Table 5), normalized to Fast-Only");

    scenario::ScenarioSpec opt = spec;
    opt.name = "fig12_mixed_opt";
    opt.policies = {"Sibyl_Opt"};
    // The default 5e-3 divided by 10, spelled with all 17 digits of
    // that double.
    opt.sibylParams["learningRate"] = "0.00050000000000000001";
    bench::runLineup(opt,
                     "Fig. 12 (cont.): Sibyl_Opt — mixed-workload-tuned "
                     "hyper-parameters (alpha = default/10)");
    return 0;
}
