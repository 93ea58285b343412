#include "sim/experiment.hh"

#include <stdexcept>

#include "core/sibyl_policy.hh"
#include "energy/energy_model.hh"
#include "policies/static_policies.hh"
#include "scenario/policy_factory.hh"

namespace sibyl::sim
{

std::uint32_t
numHssDevices(const std::string &hssConfig, double fastCapacityFrac)
{
    // Derive the count from the authoritative config builder so every
    // shorthand (dual, tri, quad) stays in sync automatically.
    return static_cast<std::uint32_t>(
        hss::makeHssConfig(hssConfig, 4096, fastCapacityFrac).size());
}

RunMetrics
computeFastOnlyBaseline(const ExperimentConfig &cfg, const trace::Trace &t)
{
    // Fast-Only: "all data resides in the fast storage device" — the
    // fast device is sized to hold the entire working set.
    auto specs = hss::makeHssConfig(cfg.hssConfig, t.uniquePages(),
                                    /*fastCapacityFrac=*/1.6);
    hss::HybridSystem sys(std::move(specs), cfg.seed, t.uniquePages());
    policies::FastOnlyPolicy fastOnly;
    return runSimulation(t, sys, fastOnly, cfg.sim);
}

PolicyResult
runPolicyExperiment(const ExperimentConfig &cfg, const trace::Trace &t,
                    policies::PlacementPolicy &policy,
                    const RunMetrics &baseline)
{
    auto specs = hss::makeHssConfig(cfg.hssConfig, t.uniquePages(),
                                    cfg.fastCapacityFrac);
    if (cfg.specTweak)
        cfg.specTweak(specs);
    hss::HybridSystem sys(std::move(specs), cfg.seed, t.uniquePages());

    PolicyResult r;
    r.policy = policy.name();
    r.workload = t.name();
    r.metrics = runSimulation(t, sys, policy, cfg.sim);

    r.normalizedLatency = baseline.avgLatencyUs > 0.0
        ? r.metrics.avgLatencyUs / baseline.avgLatencyUs
        : 0.0;
    r.normalizedSteadyLatency = baseline.steadyAvgLatencyUs > 0.0
        ? r.metrics.steadyAvgLatencyUs / baseline.steadyAvgLatencyUs
        : 0.0;
    r.normalizedIops =
        baseline.iops > 0.0 ? r.metrics.iops / baseline.iops : 0.0;

    // Post-run device accounting for the endurance/energy ablations.
    for (DeviceId d = 0; d < sys.numDevices(); d++) {
        const auto &dev = sys.device(d);
        r.devicePagesWritten.push_back(dev.counters().pagesWritten);
        const auto power = energy::powerPreset(dev.spec().name);
        r.totalEnergyMj +=
            energy::computeEnergy(dev, power, r.metrics.makespanUs)
                .totalMj();
    }

    // Surface guardrail trip accounting for supervised RL runs.
    if (const auto *sp = dynamic_cast<core::SibylPolicy *>(&policy)) {
        if (sp->guardrail()) {
            r.guardrailEnabled = true;
            r.guardrail = sp->guardrail()->stats();
        }
    }
    return r;
}

std::unique_ptr<policies::PlacementPolicy>
makePolicy(const std::string &name, std::uint32_t numDevices,
           const core::SibylConfig &sibylCfg)
{
    return scenario::PolicyFactory::instance().make(name, numDevices,
                                                    sibylCfg);
}

const std::vector<std::string> &
standardPolicyLineup()
{
    static const std::vector<std::string> lineup = {
        "Slow-Only", "CDE", "HPS", "Archivist", "RNN-HSS", "Sibyl",
        "Oracle",
    };
    return lineup;
}

} // namespace sibyl::sim
