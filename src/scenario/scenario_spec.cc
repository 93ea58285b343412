#include "scenario/scenario_spec.hh"

#include <stdexcept>

#include "scenario/json.hh"
#include "scenario/policy_factory.hh"

namespace sibyl::scenario
{

void
DeviceOverride::applyFaults(device::FaultConfig &fc) const
{
    for (const auto &w : faultWindows)
        fc.windows.push_back(w);
    for (const auto &w : offlineWindows)
        fc.offlineWindows.push_back(w);
    if (failAtUs >= 0.0)
        fc.failAtUs = failAtUs;
    if (drainPagesPerMs >= 0.0)
        fc.drainPagesPerMs = drainPagesPerMs;
    if (failoverTimeoutUs >= 0.0)
        fc.failoverTimeoutUs = failoverTimeoutUs;
    if (failOnUnrecoverable >= 0)
        fc.failOnUnrecoverable = failOnUnrecoverable != 0;
}

device::FaultConfig
DeviceOverride::faultConfig() const
{
    device::FaultConfig fc;
    applyFaults(fc);
    return fc;
}

std::vector<sim::RunSpec>
ScenarioSpec::expand() const
{
    // Values <= 1 would be silently ignored by the trace cache (its
    // documented contract: compression never stretches); reject them
    // here where the user can see why.
    if (!(timeCompress >= 1.0))
        throw std::invalid_argument(
            "scenario \"" + name + "\": timeCompress must be >= 1 "
            "(gaps are divided by it; it cannot stretch a trace)");
    // The simulator clamps a zero depth to 1, but the run key records
    // the 0: the same system would draw different RNG streams.
    if (queueDepth == 0)
        throw std::invalid_argument(
            "scenario \"" + name + "\": queueDepth must be >= 1 "
            "(0 would run as 1 under a different run key)");
    // The parallel runner derives every run's agent seed from the run
    // key, so a base-config seed would be silently discarded — the
    // two working spellings are the experiment-level seeds array and
    // the per-policy descriptor Sibyl{seed=N} (applied after
    // derivation).
    if (sibylParams.count("seed"))
        throw std::invalid_argument(
            "scenario \"" + name + "\": sibylParams.seed has no "
            "effect (run seeds are derived from the run key); use "
            "the \"seeds\" array, or pin one policy's agent seed "
            "with a Sibyl{seed=N} descriptor");

    // The cell every run starts from: all fields the scenario sets
    // alike for each (hssConfig, workload, policy, seed).
    sim::RunSpec cell;
    // Fleet tenants carry their own mixedWorkload.
    cell.mixedWorkload = mixedWorkloads && fleetTenants.empty();
    cell.fastCapacityFrac = fastCapacityFrac;
    cell.traceLen = traceLen;
    cell.traceSeed = traceSeed;
    cell.timeCompress = timeCompress;
    cell.sim.queueDepth = queueDepth;
    cell.sim.recordPerRequest = recordPerRequest;
    if (!sibylParams.empty()) {
        PolicyDesc base;
        base.name = "sibylParams";
        base.raw = "scenario \"" + name + "\" sibylParams";
        for (const auto &[k, v] : sibylParams)
            base.params.emplace_back(k, v);
        applySibylParams(cell.sibylCfg, base);
    }

    // Build every descriptor once per device stack, so an unknown
    // policy name or parameter fails here with the factory's
    // diagnostic (it lists the valid names) instead of as a failed run.
    const auto &factory = PolicyFactory::instance();
    auto validatePolicy = [&](const std::string &p) {
        for (const auto &cfg : hssConfigs)
            factory.make(p, sim::numHssDevices(cfg, fastCapacityFrac),
                         cell.sibylCfg);
    };
    for (const auto &p : policies)
        validatePolicy(p);
    for (const auto &t : fleetTenants) {
        validatePolicy(t.policy);
        if (!(t.timeCompress >= 1.0))
            throw std::invalid_argument(
                "scenario \"" + name + "\": fleet tenant \"" +
                t.workload + "\": timeCompress must be >= 1");
    }
    for (const auto &ov : deviceOverrides) {
        for (const auto &cfg : hssConfigs) {
            const std::uint32_t n =
                sim::numHssDevices(cfg, fastCapacityFrac);
            if (ov.device >= n)
                throw std::invalid_argument(
                    "scenario \"" + name + "\": deviceOverrides names "
                    "device " + std::to_string(ov.device) +
                    " but config \"" + cfg + "\" has " +
                    std::to_string(n) + " devices");
        }
        // Whole-config validation (cross-field rules: overlapping
        // offline windows, failAtUs inside an outage, drain rates) of
        // exactly the FaultConfig the tweak below will install. Device
        // presets carry no faults, so the override alone IS the final
        // config — the same validateFaultConfig the FaultModel ctor
        // runs, surfaced here as a scenario diagnostic naming the
        // device instead of an abort mid-run.
        const std::string err =
            device::validateFaultConfig(ov.faultConfig());
        if (!err.empty())
            throw std::invalid_argument(
                "scenario \"" + name + "\": deviceOverrides device " +
                std::to_string(ov.device) + ": " + err);
    }

    if (!deviceOverrides.empty()) {
        // The overrides influence simulation dynamics, so their
        // canonical form rides in RunSpec::variantTag and becomes
        // part of every run's key (a faulted run and its healthy
        // control must never share an identity).
        std::string tag;
        for (const auto &ov : deviceOverrides) {
            tag += "dev" + std::to_string(ov.device);
            if (ov.channels != 0)
                tag += ",ch=" + std::to_string(ov.channels);
            if (ov.detailedFtl >= 0)
                tag += ",ftl=" + std::to_string(ov.detailedFtl);
            if (ov.ftlPagesPerBlock != 0)
                tag += ",ppb=" + std::to_string(ov.ftlPagesPerBlock);
            // Endurance fields, emitted only when set — scenarios
            // without them keep their historical tag bytes (and run
            // keys).
            if (ov.ftlRatedPeCycles != 0)
                tag += ",pe=" + std::to_string(ov.ftlRatedPeCycles);
            if (ov.ftlGrownBadProb >= 0.0)
                tag += ",gbp=" + jsonNumber(ov.ftlGrownBadProb);
            if (ov.ftlWearLevelSpread != 0)
                tag += ",wls=" + std::to_string(ov.ftlWearLevelSpread);
            for (const auto &w : ov.faultWindows)
                tag += ",fault=" + jsonNumber(w.startUs) + ":" +
                       jsonNumber(w.endUs) + ":" +
                       jsonNumber(w.latencyMultiplier);
            // Hard-fault fields, emitted only when set — scenarios
            // without them keep their historical tag bytes (and run
            // keys).
            for (const auto &w : ov.offlineWindows)
                tag += ",off=" + jsonNumber(w.startUs) + ":" +
                       jsonNumber(w.endUs);
            if (ov.failAtUs >= 0.0)
                tag += ",failAt=" + jsonNumber(ov.failAtUs);
            if (ov.drainPagesPerMs >= 0.0)
                tag += ",drain=" + jsonNumber(ov.drainPagesPerMs);
            if (ov.failoverTimeoutUs >= 0.0)
                tag += ",fot=" + jsonNumber(ov.failoverTimeoutUs);
            if (ov.failOnUnrecoverable >= 0)
                tag += ",founr=" +
                       std::to_string(ov.failOnUnrecoverable != 0);
            tag += ';';
        }
        cell.variantTag = std::move(tag);
        cell.specTweak = [overrides = deviceOverrides](
                             std::vector<device::DeviceSpec> &devices) {
            for (const auto &ov : overrides) {
                auto &d = devices.at(ov.device);
                if (ov.channels != 0)
                    d.channels = ov.channels;
                if (ov.detailedFtl >= 0)
                    d.detailedFtl = ov.detailedFtl != 0;
                if (ov.ftlPagesPerBlock != 0)
                    d.ftlPagesPerBlock = ov.ftlPagesPerBlock;
                if (ov.ftlRatedPeCycles != 0)
                    d.ftlRatedPeCycles = ov.ftlRatedPeCycles;
                if (ov.ftlGrownBadProb >= 0.0)
                    d.ftlGrownBadProb = ov.ftlGrownBadProb;
                if (ov.ftlWearLevelSpread != 0)
                    d.ftlWearLevelSpread = ov.ftlWearLevelSpread;
                ov.applyFaults(d.faults);
            }
        };
    }

    // A fleet cell hosts every tenant in one run: it has one display
    // policy and workload instead of the policies x workloads
    // cross-product.
    const bool fleet = !fleetTenants.empty();
    if (fleet) {
        auto spec = std::make_shared<sim::FleetSpec>();
        spec->tenants = fleetTenants;
        cell.policy = "Fleet";
        cell.workload = "fleet:";
        for (std::size_t i = 0; i < fleetTenants.size(); i++) {
            if (i)
                cell.workload += '+';
            cell.workload += fleetTenants[i].workload;
        }
        cell.fleet = std::move(spec);
    }
    const std::size_t nWorkloads = fleet ? 1 : workloads.size();
    const std::size_t nPolicies = fleet ? 1 : policies.size();
    std::vector<sim::RunSpec> specs;
    specs.reserve(hssConfigs.size() * nWorkloads * nPolicies *
                  seeds.size());
    for (const auto &cfgName : hssConfigs) {
        for (std::size_t wi = 0; wi < nWorkloads; wi++) {
            for (std::size_t pi = 0; pi < nPolicies; pi++) {
                for (std::uint64_t sd : seeds) {
                    sim::RunSpec s = cell;
                    s.hssConfig = cfgName;
                    if (!fleet) {
                        s.workload = workloads[wi];
                        s.policy = policies[pi];
                    }
                    s.seed = sd;
                    specs.push_back(std::move(s));
                }
            }
        }
    }
    return specs;
}

namespace
{

[[noreturn]] void
specError(const std::string &what)
{
    throw std::invalid_argument("scenario: " + what);
}

std::vector<std::string>
stringList(const JsonValue &v, const char *field)
{
    std::vector<std::string> out;
    for (const auto &e : v.asArray()) {
        if (!e.isString())
            specError(std::string(field) + " wants an array of strings");
        out.push_back(e.asString());
    }
    return out;
}

/** sibylParams values may be written as JSON strings, numbers, or
 *  bools; normalize to the descriptor-parameter string form. */
std::string
paramString(const JsonValue &v, const std::string &key)
{
    if (v.isString())
        return v.asString();
    if (v.isBool())
        return v.asBool() ? "1" : "0";
    if (v.isNumber()) {
        if (v.isIntegral())
            return v.asDouble() < 0.0 ? std::to_string(v.asInt())
                                      : std::to_string(v.asUint());
        return jsonNumber(v.asDouble());
    }
    specError("sibylParams." + key + " wants a string, number, or bool");
}

sim::FleetTenant
parseFleetTenant(const JsonValue &v, std::size_t index)
{
    sim::FleetTenant t;
    bool sawWorkload = false;
    for (const auto &[key, val] : v.asObject()) {
        if (key == "policy") {
            t.policy = val.asString();
        } else if (key == "workload") {
            t.workload = val.asString();
            sawWorkload = true;
        } else if (key == "mixedWorkload") {
            t.mixedWorkload = val.asBool();
        } else if (key == "traceLen") {
            t.traceLen = val.asUint();
        } else if (key == "traceSeed") {
            t.traceSeed = val.asUint();
        } else if (key == "timeCompress") {
            t.timeCompress = val.asDouble();
        } else {
            specError("unknown fleet key \"" + key +
                      "\" (valid: policy workload mixedWorkload "
                      "traceLen traceSeed timeCompress)");
        }
    }
    if (!sawWorkload)
        specError("fleet[" + std::to_string(index) +
                  "] needs a \"workload\"");
    return t;
}

DeviceOverride
parseOverride(const JsonValue &v)
{
    DeviceOverride ov;
    for (const auto &[key, val] : v.asObject()) {
        if (key == "device") {
            ov.device = jsonUint32(val, "device");
        } else if (key == "channels") {
            ov.channels = jsonUint32(val, "channels");
        } else if (key == "detailedFtl") {
            ov.detailedFtl = val.asBool() ? 1 : 0;
        } else if (key == "ftlPagesPerBlock") {
            ov.ftlPagesPerBlock = jsonUint32(val, "ftlPagesPerBlock");
        } else if (key == "ftlRatedPeCycles") {
            ov.ftlRatedPeCycles = val.asUint();
        } else if (key == "ftlGrownBadProb") {
            ov.ftlGrownBadProb = val.asDouble();
        } else if (key == "ftlWearLevelSpread") {
            ov.ftlWearLevelSpread = val.asUint();
        } else if (key == "faultWindows") {
            for (const auto &w : val.asArray()) {
                device::DegradedWindow win;
                for (const auto &[wk, wv] : w.asObject()) {
                    if (wk == "startUs")
                        win.startUs = wv.asDouble();
                    else if (wk == "endUs")
                        win.endUs = wv.asDouble();
                    else if (wk == "latencyMultiplier")
                        win.latencyMultiplier = wv.asDouble();
                    else
                        specError("unknown faultWindows key \"" + wk +
                                  "\" (valid: startUs endUs "
                                  "latencyMultiplier)");
                }
                // Reject malformed windows at lowering time — a NaN
                // probability or inverted window would otherwise
                // simulate silently as "no fault".
                const std::string err = device::validateWindow(win);
                if (!err.empty())
                    specError("faultWindows[" +
                              std::to_string(ov.faultWindows.size()) +
                              "]: " + err);
                ov.faultWindows.push_back(win);
            }
        } else if (key == "offlineWindows") {
            for (const auto &w : val.asArray()) {
                device::OfflineWindow win;
                for (const auto &[wk, wv] : w.asObject()) {
                    if (wk == "startUs")
                        win.startUs = wv.asDouble();
                    else if (wk == "endUs")
                        win.endUs = wv.asDouble();
                    else
                        specError("unknown offlineWindows key \"" + wk +
                                  "\" (valid: startUs endUs)");
                }
                const std::string err = device::validateWindow(win);
                if (!err.empty())
                    specError("offlineWindows[" +
                              std::to_string(ov.offlineWindows.size()) +
                              "]: " + err);
                ov.offlineWindows.push_back(win);
            }
        } else if (key == "failAtUs") {
            ov.failAtUs = val.asDouble();
        } else if (key == "drainPagesPerMs") {
            ov.drainPagesPerMs = val.asDouble();
        } else if (key == "failoverTimeoutUs") {
            ov.failoverTimeoutUs = val.asDouble();
        } else if (key == "failOnUnrecoverable") {
            ov.failOnUnrecoverable = val.asBool() ? 1 : 0;
        } else {
            specError("unknown deviceOverrides key \"" + key +
                      "\" (valid: device channels detailedFtl "
                      "ftlPagesPerBlock ftlRatedPeCycles "
                      "ftlGrownBadProb ftlWearLevelSpread "
                      "faultWindows offlineWindows "
                      "failAtUs drainPagesPerMs failoverTimeoutUs "
                      "failOnUnrecoverable)");
        }
    }
    return ov;
}

} // namespace

ScenarioSpec
parseScenarioJson(const std::string &text)
{
    const JsonValue doc = jsonParse(text);
    if (!doc.isObject())
        specError("document must be a JSON object");

    ScenarioSpec s;
    bool sawPolicies = false, sawWorkloads = false;
    for (const auto &[key, v] : doc.asObject()) {
        if (key == "name") {
            s.name = v.asString();
        } else if (key == "policies") {
            s.policies = stringList(v, "policies");
            sawPolicies = true;
        } else if (key == "workloads") {
            s.workloads = stringList(v, "workloads");
            sawWorkloads = true;
        } else if (key == "fleet") {
            for (const auto &e : v.asArray())
                s.fleetTenants.push_back(
                    parseFleetTenant(e, s.fleetTenants.size()));
            if (s.fleetTenants.empty())
                specError("\"fleet\" must name at least one tenant");
        } else if (key == "hssConfigs") {
            s.hssConfigs = stringList(v, "hssConfigs");
        } else if (key == "seeds") {
            s.seeds.clear();
            for (const auto &e : v.asArray())
                s.seeds.push_back(e.asUint());
        } else if (key == "mixedWorkloads") {
            s.mixedWorkloads = v.asBool();
        } else if (key == "fastCapacityFrac") {
            s.fastCapacityFrac = v.asDouble();
        } else if (key == "traceLen") {
            s.traceLen = v.asUint();
        } else if (key == "traceSeed") {
            s.traceSeed = v.asUint();
        } else if (key == "timeCompress") {
            s.timeCompress = v.asDouble();
        } else if (key == "queueDepth") {
            s.queueDepth = jsonUint32(v, "queueDepth");
        } else if (key == "recordPerRequest") {
            s.recordPerRequest = v.asBool();
        } else if (key == "sibylParams") {
            for (const auto &[pk, pv] : v.asObject())
                s.sibylParams[pk] = paramString(pv, pk);
        } else if (key == "deviceOverrides") {
            for (const auto &e : v.asArray())
                s.deviceOverrides.push_back(parseOverride(e));
        } else if (key == "numThreads") {
            s.numThreads = jsonUint32(v, "numThreads");
        } else {
            specError("unknown key \"" + key +
                      "\" (valid: name policies workloads fleet "
                      "hssConfigs seeds mixedWorkloads "
                      "fastCapacityFrac traceLen traceSeed timeCompress "
                      "queueDepth recordPerRequest sibylParams "
                      "deviceOverrides numThreads)");
        }
    }
    if (!s.fleetTenants.empty()) {
        // A fleet scenario IS its tenant list; a policies/workloads
        // cross-product alongside it would be ambiguous about which
        // runs it asks for.
        if (sawPolicies || sawWorkloads)
            specError("\"fleet\" excludes \"policies\"/\"workloads\" "
                      "(tenants carry their own)");
    } else {
        if (!sawPolicies || s.policies.empty())
            specError("\"policies\" must name at least one policy");
        if (!sawWorkloads || s.workloads.empty())
            specError("\"workloads\" must name at least one workload");
    }
    if (s.hssConfigs.empty())
        specError("\"hssConfigs\" must not be empty");
    if (s.seeds.empty())
        specError("\"seeds\" must not be empty");
    return s;
}

ScenarioSpec
loadScenarioFile(const std::string &path)
{
    try {
        return parseScenarioJson(readTextFile(path));
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
}

std::vector<sim::RunRecord>
runScenario(const ScenarioSpec &spec)
{
    sim::ParallelConfig cfg;
    cfg.numThreads = spec.numThreads;
    sim::ParallelRunner runner(cfg);
    return runner.runAll(spec.expand());
}

} // namespace sibyl::scenario
