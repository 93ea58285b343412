#include "sim/parallel_runner.hh"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.hh"
#include "scenario/json.hh"
#include "sim/fleet.hh"

namespace sibyl::sim
{

namespace
{

/** Attempts per run before it is recorded as failed (see runAll()). */
constexpr unsigned kMaxAttempts = 2;

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Canonical run string hashed into the run key (see header). */
std::string
canonicalRunString(const RunSpec &spec)
{
    std::string s = policyIdentity(spec.policy);
    s += '\0';
    s += spec.traceKey().canonical();
    s += '\0';
    s += spec.hssConfig;
    s += '\0';
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", spec.fastCapacityFrac);
    s += buf;
    s += '\0';
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(spec.seed));
    s += buf;
    s += '\0';
    std::snprintf(buf, sizeof(buf), "%u", spec.sim.queueDepth);
    s += buf;
    s += '\0';
    s += spec.sim.skipPrepare ? '1' : '0';
    if (!spec.variantTag.empty()) {
        s += '\0';
        s += spec.variantTag;
    }
    // Fleet composition (per-tenant policy identity + trace identity).
    // Appended only when a fleet is attached, so every pre-fleet run
    // key — and every golden snapshot hashed from one — is unchanged.
    if (spec.fleet) {
        s += '\0';
        s += "fleet:";
        s += spec.fleet->canonical();
    }
    return s;
}

} // namespace

/**
 * Policy identity with run-supervision knobs stripped. The guardrail
 * is observation-only until it trips, so arming it (or its test-only
 * injection hooks) must not move the run onto different derived RNG
 * streams: "Sibyl" and "Sibyl{guardrail=1}" share one trajectory,
 * which is what makes "zero behavior change when not tripped" a
 * testable bit-identity claim rather than a hope — and lets a
 * NaN-injection arm share its pre-trip trajectory with the healthy
 * arm it is compared against.
 * `wearFeatures` is stripped so a wear-feature ablation arm shares its
 * run key (and thus its derived device/agent streams) with the plain
 * arm it is compared against — the feature's effect is then isolated
 * to the agent's decisions, not to a different RNG universe.
 */
std::string
policyIdentity(const std::string &policy)
{
    const auto open = policy.find('{');
    if (open == std::string::npos || policy.back() != '}')
        return policy;
    const std::string body =
        policy.substr(open + 1, policy.size() - open - 2);
    std::string kept;
    for (std::size_t pos = 0; pos < body.size();) {
        std::size_t comma = body.find(',', pos);
        if (comma == std::string::npos)
            comma = body.size();
        const std::string param = body.substr(pos, comma - pos);
        if (param.rfind("guardrail", 0) != 0 &&
            param.rfind("wearFeatures", 0) != 0) {
            if (!kept.empty())
                kept += ',';
            kept += param;
        }
        pos = comma + 1;
    }
    const std::string name = policy.substr(0, open);
    return kept.empty() ? name : name + '{' + kept + '}';
}

trace::TraceKey
RunSpec::traceKey() const
{
    trace::TraceKey k;
    if (externalTrace) {
        k.workload = "ext:" + externalTrace->name();
        k.numRequests = externalTrace->size();
        return k;
    }
    k.workload = workload;
    k.numRequests = traceLen;
    k.seed = traceSeed;
    k.mixed = mixedWorkload;
    k.timeCompress = timeCompress;
    return k;
}

ParallelRunner::ParallelRunner(ParallelConfig cfg) : cfg_(cfg) {}

std::uint64_t
ParallelRunner::runKey(const RunSpec &spec)
{
    return fnv1a(canonicalRunString(spec));
}

std::uint64_t
ParallelRunner::deriveStream(std::uint64_t key, std::uint64_t salt)
{
    return splitmix64(key ^ splitmix64(salt));
}

std::shared_ptr<const trace::Trace>
ParallelRunner::traceFor(const RunSpec &spec)
{
    if (spec.externalTrace)
        return spec.externalTrace;
    return traces_.get(spec.traceKey());
}

std::shared_ptr<const RunMetrics>
ParallelRunner::baselineFor(const RunSpec &spec, const trace::Trace &t)
{
    // The baseline is shared by every policy on the same (config,
    // trace, seed, sim): key a pseudo-run whose policy name no real
    // policy can take. Its fast-capacity fraction is pinned to the
    // baseline's own 1.6 so a capacity sweep reuses one baseline.
    RunSpec baseSpec = spec;
    baseSpec.policy = "Fast-Only-baseline";
    baseSpec.fastCapacityFrac = 1.6;
    // The baseline ignores specTweak (it stays the healthy
    // reference), so the tweak's tag must not split the cache either.
    baseSpec.variantTag.clear();
    const std::string id = canonicalRunString(baseSpec);

    std::shared_future<std::shared_ptr<const RunMetrics>> future;
    std::promise<std::shared_ptr<const RunMetrics>> promise;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(baselineMutex_);
        auto it = baselines_.find(id);
        if (it == baselines_.end()) {
            future = promise.get_future().share();
            baselines_.emplace(id, future);
            builder = true;
        } else {
            future = it->second;
        }
    }

    if (builder) {
        try {
            ExperimentConfig ecfg;
            ecfg.hssConfig = spec.hssConfig;
            ecfg.fastCapacityFrac = spec.fastCapacityFrac;
            ecfg.seed = deriveStream(fnv1a(id), kDeviceJitterSalt);
            ecfg.sim = spec.sim;
            ecfg.sim.recordPerRequest = false;
            promise.set_value(std::make_shared<const RunMetrics>(
                computeFastOnlyBaseline(ecfg, t)));
        } catch (...) {
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(baselineMutex_);
            baselines_.erase(id);
        }
    }
    return future.get();
}

std::size_t
ParallelRunner::baselineCount() const
{
    std::lock_guard<std::mutex> lock(baselineMutex_);
    return baselines_.size();
}

void
ParallelRunner::runOne(const RunSpec &spec, RunRecord &rec,
                       const char *&phase)
{
    if (spec.fleet) {
        // Fleet runs own their tenant construction (traces, systems,
        // policies, per-tenant seeds) end to end; there is no single
        // policy or Fast-Only baseline at this level. Tenant seeds are
        // run-key-derived, like every other run's.
        phase = "simulate";
        rec.result =
            runFleetExperiment(spec, traces_, true, cfg_.numThreads);
        phase = "finish";
        return;
    }

    phase = "trace";
    auto trace = traceFor(spec);
    phase = "baseline";
    auto baseline = baselineFor(spec, *trace);

    phase = "policy";
    ExperimentConfig ecfg;
    ecfg.hssConfig = spec.hssConfig;
    ecfg.fastCapacityFrac = spec.fastCapacityFrac;
    ecfg.seed = deriveStream(rec.runKey, kDeviceJitterSalt);
    ecfg.sim = spec.sim;
    ecfg.specTweak = spec.specTweak;

    core::SibylConfig sibylCfg = spec.sibylCfg;
    sibylCfg.seed = deriveStream(rec.runKey, kAgentSalt);

    auto policy = makePolicy(
        spec.policy,
        numHssDevices(spec.hssConfig, spec.fastCapacityFrac),
        sibylCfg);
    if (spec.policySetup)
        spec.policySetup(*policy);

    phase = "simulate";
    rec.result = runPolicyExperiment(ecfg, *trace, *policy, *baseline);
    phase = "finish";
    if (spec.policyFinish)
        spec.policyFinish(*policy);
}

std::vector<RunRecord>
ParallelRunner::runAll(const std::vector<RunSpec> &specs)
{
    return runAll(specs, RunDoneFn());
}

std::vector<RunRecord>
ParallelRunner::runAll(const std::vector<RunSpec> &specs,
                       const RunDoneFn &onRunDone)
{
    std::vector<RunRecord> records(specs.size());
    ThreadPool::parallelFor(
        specs.size(),
        [&](std::size_t i) {
            RunRecord &rec = records[i];
            rec.spec = specs[i];
            rec.runKey = runKey(specs[i]);
            // Bounded retry: each attempt is a fresh run off the same
            // run-key-derived streams, so a transient failure replays
            // the identical trajectory and a success on attempt k is
            // bit-exact to a success on attempt 1.
            for (unsigned attempt = 1;; attempt++) {
                rec.attempts = attempt;
                const char *phase = "setup";
                try {
                    runOne(specs[i], rec, phase);
                    rec.status = "ok";
                    rec.error.clear();
                    break;
                } catch (...) {
                    rec.status = "failed";
                    try {
                        throw;
                    } catch (const std::exception &e) {
                        rec.error =
                            std::string(phase) + ": " + e.what();
                    } catch (...) {
                        rec.error = std::string(phase) +
                                    ": unknown exception";
                    }
                    if (attempt < kMaxAttempts)
                        continue;
                    rec.result = PolicyResult();
                    break;
                }
            }
            if (onRunDone)
                onRunDone(i, rec);
        },
        cfg_.numThreads);
    return records;
}

void
writeResultsJson(std::ostream &os, const std::vector<RunRecord> &records)
{
    writeResultsJson(os, records, ResultsAnnotations());
}

void
writeRecordJson(std::ostream &os, const RunRecord &r,
                const ResultsAnnotations::Group *group)
{
    // String escaping and double formatting are the scenario layer's
    // (scenario::jsonQuote / jsonNumber), which also spells the
    // variant tags, so one byte-determinism contract covers both.
    const RunMetrics &m = r.result.metrics;
    char key[32];
    std::snprintf(key, sizeof(key), "0x%016llx",
                  static_cast<unsigned long long>(r.runKey));
    os << "{";
    if (group) {
        os << "\"scenario\": " << scenario::jsonQuote(group->scenario)
           << ", \"tag\": " << scenario::jsonQuote(group->tag) << ", ";
    }
    // Failed runs never produced a PolicyResult, so their identity
    // falls back to the spec's policy descriptor / workload name.
    os << "\"policy\": "
       << scenario::jsonQuote(r.failed() ? r.spec.policy
                                         : r.result.policy)
       << ", \"workload\": "
       << scenario::jsonQuote(r.failed() ? r.spec.workload
                                         : r.result.workload)
       << ", \"config\": " << scenario::jsonQuote(r.spec.hssConfig)
       << ", \"seed\": " << r.spec.seed
       << ", \"runKey\": \"" << key << "\"";
    if (!r.spec.variantTag.empty())
        os << ", \"variant\": "
           << scenario::jsonQuote(r.spec.variantTag);
    if (r.failed()) {
        os << ", \"status\": " << scenario::jsonQuote(r.status)
           << ", \"error\": " << scenario::jsonQuote(r.error)
           << ", \"attempts\": " << r.attempts << "}";
        return;
    }
    if (r.attempts > 1)
        os << ", \"attempts\": " << r.attempts;
    os << ", \"requests\": " << m.requests;
    const std::pair<const char *, double> scalars[] = {
        {"avgLatencyUs", m.avgLatencyUs},
        {"steadyAvgLatencyUs", m.steadyAvgLatencyUs},
        {"p50LatencyUs", m.p50LatencyUs},
        {"p99LatencyUs", m.p99LatencyUs},
        {"p999LatencyUs", m.p999LatencyUs},
        {"maxLatencyUs", m.maxLatencyUs},
        {"iops", m.iops},
        {"makespanUs", m.makespanUs},
        {"evictionFraction", m.evictionFraction},
        {"fastPlacementPreference", m.fastPlacementPreference},
        {"normalizedLatency", r.result.normalizedLatency},
        {"normalizedSteadyLatency", r.result.normalizedSteadyLatency},
        {"normalizedIops", r.result.normalizedIops},
        {"totalEnergyMj", r.result.totalEnergyMj},
    };
    for (const auto &[name, v] : scalars) {
        os << ", \"" << name << "\": " << scenario::jsonNumber(v);
    }
    os << ", \"promotions\": " << m.promotions
       << ", \"demotions\": " << m.demotions;
    os << ", \"placements\": [";
    for (std::size_t d = 0; d < m.placements.size(); d++)
        os << (d ? ", " : "") << m.placements[d];
    os << "], \"devicePagesWritten\": [";
    for (std::size_t d = 0; d < r.result.devicePagesWritten.size(); d++)
        os << (d ? ", " : "") << r.result.devicePagesWritten[d];
    os << "]";
    if (!r.result.tenants.empty()) {
        // Fleet runs: per-tenant tails as parallel arrays indexed by
        // tenant. The regression gate bands "name[i]" entries under
        // the base name, so one tolerance covers every tenant.
        os << ", \"fairnessJain\": "
           << scenario::jsonNumber(r.result.fairnessJain);
        os << ", \"tenantRequests\": [";
        for (std::size_t t = 0; t < r.result.tenants.size(); t++)
            os << (t ? ", " : "")
               << r.result.tenants[t].metrics.requests;
        os << "]";
        const auto tenantScalar =
            [&](const char *name, auto &&get) {
                os << ", \"" << name << "\": [";
                for (std::size_t t = 0; t < r.result.tenants.size();
                     t++)
                    os << (t ? ", " : "")
                       << scenario::jsonNumber(
                              get(r.result.tenants[t].metrics));
                os << "]";
            };
        tenantScalar("tenantAvgLatencyUs",
                     [](const RunMetrics &tm) { return tm.avgLatencyUs; });
        tenantScalar("tenantP50LatencyUs",
                     [](const RunMetrics &tm) { return tm.p50LatencyUs; });
        tenantScalar("tenantP99LatencyUs",
                     [](const RunMetrics &tm) { return tm.p99LatencyUs; });
        tenantScalar("tenantP999LatencyUs",
                     [](const RunMetrics &tm) { return tm.p999LatencyUs; });
        tenantScalar("tenantIops",
                     [](const RunMetrics &tm) { return tm.iops; });
    }
    if (r.result.guardrailEnabled) {
        const rl::GuardrailStats &g = r.result.guardrail;
        os << ", \"guardrailTrips\": " << g.trips
           << ", \"guardrailFallbackDecisions\": "
           << g.fallbackDecisions
           << ", \"guardrailSnapshots\": " << g.snapshots
           << ", \"guardrailRestores\": " << g.restores;
        if (!g.lastTripReason.empty())
            os << ", \"guardrailLastTrip\": "
               << scenario::jsonQuote(g.lastTripReason);
    }
    if (m.faultsConfigured) {
        // Fault-injection block, only for runs that configured faults
        // — fault-free result files stay byte-identical to earlier
        // releases. Soft (latency) counters first, then the hard-fault
        // serving counters and per-device availability.
        os << ", \"faultErroredOps\": " << m.faultErroredOps
           << ", \"faultRetries\": " << m.faultRetries
           << ", \"faultRecoveries\": " << m.faultRecoveries
           << ", \"faultDegradedOps\": " << m.faultDegradedOps
           << ", \"faultErrorLatencyUs\": "
           << scenario::jsonNumber(m.faultErrorLatencyUs)
           << ", \"maskedPlacements\": " << m.maskedPlacements
           << ", \"failoverReads\": " << m.failoverReads
           << ", \"failedOps\": " << m.failedOps
           << ", \"drainedPages\": " << m.drainedPages;
        os << ", \"deviceAvailability\": [";
        for (std::size_t d = 0; d < m.deviceAvailability.size(); d++)
            os << (d ? ", " : "")
               << scenario::jsonNumber(m.deviceAvailability[d]);
        os << "]";
    }
    if (m.enduranceConfigured) {
        // Endurance block, only for runs with a detailed FTL attached
        // — pre-FTL result files keep their bytes; the regression gate
        // bands these like any other metric.
        os << ", \"writeAmplification\": "
           << scenario::jsonNumber(m.writeAmplification)
           << ", \"wearImbalance\": "
           << scenario::jsonNumber(m.wearImbalance)
           << ", \"lifeConsumed\": "
           << scenario::jsonNumber(m.lifeConsumed)
           << ", \"retiredBlocks\": " << m.retiredBlocks;
    }
    os << "}";
}

void
writeResultsJson(std::ostream &os, const std::vector<RunRecord> &records,
                 const ResultsAnnotations &notes)
{
    if (!notes.groups.empty()) {
        std::size_t total = 0;
        for (const auto &g : notes.groups)
            total += g.count;
        if (total != records.size())
            throw std::invalid_argument(
                "writeResultsJson: annotation groups cover " +
                std::to_string(total) + " records, set has " +
                std::to_string(records.size()));
    }

    os << "{\n";
    if (!notes.campaign.empty())
        os << "  \"campaign\": " << scenario::jsonQuote(notes.campaign)
           << ",\n";
    os << "  \"results\": [";
    std::size_t group = 0, groupLeft =
        notes.groups.empty() ? 0 : notes.groups[0].count;
    for (std::size_t i = 0; i < records.size(); i++) {
        os << (i ? ",\n    " : "\n    ");
        const ResultsAnnotations::Group *g = nullptr;
        if (!notes.groups.empty()) {
            while (groupLeft == 0 && group + 1 < notes.groups.size())
                groupLeft = notes.groups[++group].count;
            groupLeft--;
            g = &notes.groups[group];
        }
        writeRecordJson(os, records[i], g);
    }
    // Distinct experiment seeds in the record set, so downstream
    // tooling knows how many repetitions back a mean/CI aggregation.
    std::set<std::uint64_t> seeds;
    for (const RunRecord &r : records)
        seeds.insert(r.spec.seed);
    os << "\n  ],\n  \"seedCount\": " << seeds.size() << "\n}\n";
}

bool
writeResultsJsonFile(const std::string &path,
                     const std::vector<RunRecord> &records)
{
    return writeResultsJsonFile(path, records, ResultsAnnotations());
}

bool
writeResultsJsonFile(const std::string &path,
                     const std::vector<RunRecord> &records,
                     const ResultsAnnotations &notes)
{
    // Serialize fully in memory, then write-tmp + atomic-rename: an
    // interrupted process never leaves a truncated results file.
    std::ostringstream out;
    writeResultsJson(out, records, notes);
    return scenario::writeTextFileAtomic(path, out.str());
}

} // namespace sibyl::sim
