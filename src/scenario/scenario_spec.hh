/**
 * @file
 * Declarative experiment descriptions: a ScenarioSpec is the one
 * description of an evaluation grid — policy descriptors x workloads x
 * HSS shorthands x seeds, plus trace shaping, simulation knobs, base
 * Sibyl hyper-parameter overrides, and declarative device overrides
 * (fault windows, channel counts, FTL selection). It parses from JSON,
 * so *any experiment in the repository is a file*: the figure benches,
 * the CLI's --scenario mode, and the golden-run tests all lower the
 * same structure onto sim::ParallelRunner.
 *
 * Lowering rule: expand() nests hssConfig (outermost), workload,
 * policy, seed (innermost); that is also the row order of the
 * results. The scenario layer adds zero simulation semantics of its
 * own: every run key derives from the RunSpec fields it fills.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "device/fault_model.hh"
#include "sim/fleet.hh"
#include "sim/parallel_runner.hh"

namespace sibyl::scenario
{

/**
 * Declarative tweak of one device slot of every run's HSS, applied
 * after hss::makeHssConfig (like ExperimentConfig::specTweak, but
 * serializable). Zero-valued fields keep the preset.
 */
struct DeviceOverride
{
    /** Device slot (0 = fastest). Must exist in every hssConfig the
     *  scenario names; expand() validates. */
    std::uint32_t device = 0;

    /** Internal service channels; 0 keeps the preset. */
    std::uint32_t channels = 0;

    /** Mechanistic page-mapped FTL: -1 keeps the preset, 0/1 set. */
    int detailedFtl = -1;

    /** FTL pages per block; 0 keeps the preset. */
    std::uint32_t ftlPagesPerBlock = 0;

    /** Rated P/E cycles per flash block (endurance); 0 keeps the
     *  preset (no wear-out). Requires detailedFtl. */
    std::uint64_t ftlRatedPeCycles = 0;

    /** Per-erase grown-bad-block probability; negative keeps the
     *  preset (never). Requires detailedFtl. */
    double ftlGrownBadProb = -1.0;

    /** Static wear-leveling erase-count spread threshold; 0 keeps the
     *  preset (wear leveling off). Requires detailedFtl. */
    std::uint64_t ftlWearLevelSpread = 0;

    /** Degraded-performance windows appended to the device. */
    std::vector<device::DegradedWindow> faultWindows;

    /** Hard faults: offline (unreachable) windows appended to the
     *  device. */
    std::vector<device::OfflineWindow> offlineWindows;

    /** Permanent-failure time; negative keeps the preset (never). */
    double failAtUs = -1.0;

    /** Rebuild-rate budget (pages/ms) for draining this device after
     *  permanent failure; negative keeps the preset. */
    double drainPagesPerMs = -1.0;

    /** Host-side timeout before a resident read fails over to a
     *  healthy tier; negative keeps the preset. */
    double failoverTimeoutUs = -1.0;

    /** Escalate retry exhaustion to permanent failure: -1 keeps the
     *  preset, 0/1 set (tri-state like detailedFtl). */
    int failOnUnrecoverable = -1;

    /** Merge this override's fault fields into @p fc (windows append;
     *  scalar knobs overwrite only when set). The expand() tweak and
     *  the lowering-time validation share this, so what is validated
     *  is exactly what runs. */
    void applyFaults(device::FaultConfig &fc) const;

    /** The FaultConfig this override produces on a preset (fault-free)
     *  device — the whole-config validation input. */
    device::FaultConfig faultConfig() const;
};

/** One declarative experiment (see file header). */
struct ScenarioSpec
{
    /** Scenario identifier (reports, file names). */
    std::string name = "scenario";

    /** Policy descriptors (scenario::PolicyFactory grammar). Mutually
     *  exclusive with `fleetTenants`. */
    std::vector<std::string> policies;

    /** Workload profile names — or mix names when mixedWorkloads.
     *  Mutually exclusive with `fleetTenants`. */
    std::vector<std::string> workloads;

    /** Multi-tenant fleet scenario (JSON key "fleet"): instead of a
     *  policies x workloads cross-product, every (hssConfig, seed)
     *  cell hosts ALL of these tenants in one interleaved fleet run
     *  (sim/fleet.hh). traceLen acts as the default tenant trace
     *  length; queueDepth/sibylParams/deviceOverrides apply to every
     *  tenant. */
    std::vector<sim::FleetTenant> fleetTenants;

    std::vector<std::string> hssConfigs = {"H&M"};
    std::vector<std::uint64_t> seeds = {42};

    bool mixedWorkloads = false;
    double fastCapacityFrac = 0.10;
    std::size_t traceLen = 0;
    std::uint64_t traceSeed = 0;
    double timeCompress = 1.0;

    /** Simulation-loop knobs (SimConfig subset that is plain data). */
    std::uint32_t queueDepth = 1;
    bool recordPerRequest = false;

    /** Base Sibyl hyper-parameter overrides applied to every run's
     *  SibylConfig *before* per-policy descriptor params (same key
     *  grammar as Sibyl{...}; values are strings: {"gamma": "0.5"}). */
    std::map<std::string, std::string> sibylParams;

    /** Declarative device tweaks applied to every policy run (never to
     *  the Fast-Only normalization baseline). */
    std::vector<DeviceOverride> deviceOverrides;

    /** Worker threads (0 = default pool size, 1 = serial oracle).
     *  Results are thread-count invariant; this is throughput only. */
    unsigned numThreads = 0;

    /**
     * Lower to runnable RunSpecs in the nesting order of the file
     * header, with the device overrides attached as each spec's
     * specTweak. Validates that every policy descriptor resolves in
     * the PolicyFactory, that every override's device slot exists in
     * every named hssConfig, and rejects knobs that would be silently
     * ignored (timeCompress < 1, queueDepth 0, sibylParams.seed);
     * throws std::invalid_argument otherwise.
     */
    std::vector<sim::RunSpec> expand() const;
};

/** Parse a scenario JSON document. Unknown keys, ill-typed or
 *  out-of-range values, and malformed JSON throw
 *  std::invalid_argument with a diagnostic. */
ScenarioSpec parseScenarioJson(const std::string &text);

/** Parse the scenario file at @p path (error messages name the file). */
ScenarioSpec loadScenarioFile(const std::string &path);

/** runAll(spec.expand()) on a fresh runner configured from
 *  spec.numThreads — records in expand() order. */
std::vector<sim::RunRecord> runScenario(const ScenarioSpec &spec);

} // namespace sibyl::scenario
