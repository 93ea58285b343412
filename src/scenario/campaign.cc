#include "scenario/campaign.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include <sys/stat.h>
#include <sys/types.h>

namespace sibyl::scenario
{

namespace
{

[[noreturn]] void
manifestError(const std::string &what)
{
    throw std::invalid_argument("campaign: " + what);
}

CampaignEntry
parseEntry(const JsonValue &v)
{
    if (!v.isObject())
        manifestError("each \"scenarios\" entry must be an object");
    CampaignEntry e;
    for (const auto &[key, val] : v.asObject()) {
        if (key == "file") {
            e.file = val.asString();
        } else if (key == "tag") {
            e.tag = val.asString();
        } else if (key == "requests") {
            e.requests = val.asUint();
            if (e.requests == 0)
                manifestError("an entry's \"requests\" override must "
                              "be positive (omit it to keep the "
                              "scenario's own traceLen)");
        } else if (key == "seeds") {
            for (const auto &s : val.asArray())
                e.seeds.push_back(s.asUint());
            if (e.seeds.empty())
                manifestError("an entry's \"seeds\" override must not "
                              "be empty (omit it to keep the "
                              "scenario's own seeds)");
        } else {
            manifestError("unknown entry key \"" + key +
                          "\" (valid: file tag requests seeds)");
        }
    }
    if (e.file.empty())
        manifestError("every entry needs a non-empty \"file\"");
    return e;
}

} // namespace

CampaignSpec
parseCampaignJson(const std::string &text)
{
    const JsonValue doc = jsonParse(text);
    if (!doc.isObject())
        manifestError("manifest must be a JSON object");

    CampaignSpec c;
    bool sawEntries = false;
    for (const auto &[key, v] : doc.asObject()) {
        if (key == "name") {
            c.name = v.asString();
        } else if (key == "scenarios") {
            for (const auto &e : v.asArray())
                c.entries.push_back(parseEntry(e));
            sawEntries = true;
        } else if (key == "numThreads") {
            c.numThreads = jsonUint32(v, "numThreads");
        } else {
            manifestError("unknown key \"" + key +
                          "\" (valid: name scenarios numThreads)");
        }
    }
    if (!sawEntries || c.entries.empty())
        manifestError("\"scenarios\" must name at least one file");
    return c;
}

CampaignSpec
loadCampaignFile(const std::string &path)
{
    CampaignSpec c;
    try {
        c = parseCampaignJson(readTextFile(path));
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
    const auto slash = path.find_last_of('/');
    if (slash != std::string::npos)
        c.baseDir = path.substr(0, slash);
    return c;
}

sim::ResultsAnnotations
CampaignPlan::annotations(const std::string &campaign) const
{
    sim::ResultsAnnotations notes;
    notes.campaign = campaign;
    for (const auto &s : scenarios)
        notes.groups.push_back({s.scenario.name, s.tag, s.runCount});
    return notes;
}

CampaignPlan
lowerCampaign(const CampaignSpec &spec)
{
    CampaignPlan plan;
    std::set<std::pair<std::string, std::string>> seen;
    for (const auto &entry : spec.entries) {
        if (entry.file.empty())
            throw std::invalid_argument(
                "campaign \"" + spec.name +
                "\": entry with an empty \"file\"");
        const std::string path =
            (entry.file.front() == '/' || spec.baseDir.empty())
                ? entry.file
                : spec.baseDir + "/" + entry.file;
        ScenarioSpec scenario = loadScenarioFile(path);
        if (entry.requests != 0)
            scenario.traceLen = entry.requests;
        if (!entry.seeds.empty())
            scenario.seeds = entry.seeds;

        CampaignScenario cs;
        cs.tag = entry.tag.empty() ? scenario.name : entry.tag;
        if (!seen.insert({scenario.name, cs.tag}).second)
            throw std::invalid_argument(
                "campaign \"" + spec.name + "\": duplicate (scenario, "
                "tag) pair (\"" + scenario.name + "\", \"" + cs.tag +
                "\") — give repeated entries distinct tags so merged "
                "results stay uniquely keyed");
        cs.scenario = std::move(scenario);
        cs.firstRun = plan.specs.size();

        std::vector<sim::RunSpec> specs;
        try {
            specs = cs.scenario.expand();
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(path + ": " +
                                        std::string(e.what()));
        }
        cs.runCount = specs.size();
        for (auto &s : specs)
            plan.specs.push_back(std::move(s));
        plan.scenarios.push_back(std::move(cs));
    }
    return plan;
}

std::size_t
CampaignResult::resumedCount() const
{
    std::size_t n = 0;
    for (const bool r : resumed)
        n += r ? 1 : 0;
    return n;
}

// ---------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------

namespace
{

/** mkdir -p: create @p dir and any missing parents. Throws
 *  std::invalid_argument on failure (the journal is useless if it
 *  cannot be written, so this is a setup error, not a warning). */
void
makeDirs(const std::string &dir)
{
    std::string path;
    std::size_t pos = 0;
    while (pos <= dir.size()) {
        const std::size_t slash = dir.find('/', pos);
        path = slash == std::string::npos ? dir : dir.substr(0, slash);
        pos = slash == std::string::npos ? dir.size() + 1 : slash + 1;
        if (path.empty())
            continue; // leading '/' of an absolute path
        if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
            throw std::invalid_argument(
                "campaign checkpoint: cannot create directory \"" +
                path + "\": " + std::strerror(errno));
    }
}

/** Journal entry path for plan index @p i with run key @p key. Both
 *  are in the name: a manifest edit that reorders or changes a run
 *  strands the stale entry under a name resume never looks up. */
std::string
journalPath(const std::string &dir, std::size_t i, std::uint64_t key)
{
    char name[48];
    std::snprintf(name, sizeof(name), "run-%05zu-%016llx.json", i,
                  static_cast<unsigned long long>(key));
    return dir + "/" + name;
}

/** Fill best-effort display fields of @p rec from a parsed journal
 *  entry — the CLI table and failure surfacing read these; the
 *  authoritative merge bytes are the stored text itself. */
void
hydrateRecord(sim::RunRecord &rec, const JsonValue &doc)
{
    const auto str = [&](const char *key, std::string &out) {
        if (const JsonValue *v = doc.find(key); v && v->isString())
            out = v->asString();
    };
    const auto num = [&](const char *key, auto &out) {
        if (const JsonValue *v = doc.find(key); v && v->isNumber())
            out = static_cast<std::decay_t<decltype(out)>>(
                v->asDouble());
    };
    str("status", rec.status);
    str("error", rec.error);
    num("attempts", rec.attempts);
    str("policy", rec.result.policy);
    str("workload", rec.result.workload);
    auto &m = rec.result.metrics;
    num("requests", m.requests);
    num("avgLatencyUs", m.avgLatencyUs);
    num("steadyAvgLatencyUs", m.steadyAvgLatencyUs);
    num("p50LatencyUs", m.p50LatencyUs);
    num("p99LatencyUs", m.p99LatencyUs);
    num("p999LatencyUs", m.p999LatencyUs);
    num("maxLatencyUs", m.maxLatencyUs);
    num("iops", m.iops);
    num("makespanUs", m.makespanUs);
    num("evictionFraction", m.evictionFraction);
    num("fastPlacementPreference", m.fastPlacementPreference);
    num("promotions", m.promotions);
    num("demotions", m.demotions);
    num("normalizedLatency", rec.result.normalizedLatency);
    num("normalizedSteadyLatency", rec.result.normalizedSteadyLatency);
    num("normalizedIops", rec.result.normalizedIops);
    num("totalEnergyMj", rec.result.totalEnergyMj);
}

/** Parse and validate one journal entry: a JSON object whose runKey
 *  matches the plan's. Returns false (entry ignored, run re-run) on
 *  any mismatch — resume must never trust a stale or foreign file. */
bool
loadJournalEntry(const std::string &text, std::uint64_t expectKey,
                 sim::RunRecord &rec)
{
    JsonValue doc;
    try {
        doc = jsonParse(text);
    } catch (const std::invalid_argument &) {
        return false;
    }
    if (!doc.isObject())
        return false;
    char expect[24];
    std::snprintf(expect, sizeof(expect), "0x%016llx",
                  static_cast<unsigned long long>(expectKey));
    const JsonValue *key = doc.find("runKey");
    if (!key || !key->isString() || key->asString() != expect)
        return false;
    hydrateRecord(rec, doc);
    return true;
}

} // namespace

CampaignResult
runCampaign(const CampaignSpec &spec, sim::ParallelRunner &runner,
            const CampaignCheckpoint &ckpt)
{
    CampaignResult result;
    result.plan = lowerCampaign(spec);
    if (ckpt.dir.empty()) {
        result.records = runner.runAll(result.plan.specs);
        return result;
    }
    const std::size_t n = result.plan.specs.size();
    makeDirs(ckpt.dir);

    // The group (scenario, tag) each plan index serializes under —
    // journal bytes must match the merged emit exactly, group fields
    // included.
    const sim::ResultsAnnotations notes =
        result.plan.annotations(spec.name);
    std::vector<const sim::ResultsAnnotations::Group *> groupOf(n);
    {
        std::size_t i = 0;
        for (const auto &g : notes.groups)
            for (std::size_t k = 0; k < g.count; k++)
                groupOf[i++] = &g;
    }

    result.records.resize(n);
    result.recordJson.resize(n);
    result.resumed.assign(n, false);

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; i++) {
        sim::RunRecord &rec = result.records[i];
        rec.spec = result.plan.specs[i];
        rec.runKey = sim::ParallelRunner::runKey(rec.spec);
        if (ckpt.resume) {
            std::string text;
            try {
                text = readTextFile(
                    journalPath(ckpt.dir, i, rec.runKey));
            } catch (const std::invalid_argument &) {
                // No entry — the run is simply still pending.
            }
            if (!text.empty() &&
                loadJournalEntry(text, rec.runKey, rec)) {
                result.recordJson[i] = std::move(text);
                result.resumed[i] = true;
                continue;
            }
        }
        pending.push_back(i);
    }

    std::vector<sim::RunSpec> pendingSpecs;
    pendingSpecs.reserve(pending.size());
    for (const std::size_t i : pending)
        pendingSpecs.push_back(result.plan.specs[i]);

    // Journal every run as it settles, from the worker that owned it.
    // Distinct runs touch distinct pre-sized vector slots, so no lock
    // is needed; the atomic rename keeps each entry crash-consistent.
    const auto journal = [&](std::size_t j,
                             const sim::RunRecord &rec) {
        const std::size_t i = pending[j];
        std::ostringstream os;
        sim::writeRecordJson(os, rec, groupOf[i]);
        result.recordJson[i] = os.str();
        writeTextFileAtomic(journalPath(ckpt.dir, i, rec.runKey),
                            result.recordJson[i]);
    };
    std::vector<sim::RunRecord> fresh =
        runner.runAll(pendingSpecs, journal);
    for (std::size_t j = 0; j < pending.size(); j++)
        result.records[pending[j]] = std::move(fresh[j]);
    return result;
}

void
writeCampaignResultsJson(std::ostream &os, const CampaignSpec &spec,
                         const CampaignResult &result)
{
    // Checkpointed results carry the exact per-run bytes (journaled
    // or freshly serialized — same serializer either way); splicing
    // them into the writeResultsJson envelope reproduces the
    // uninterrupted document byte-for-byte.
    bool spliceable = !result.recordJson.empty() &&
                      result.recordJson.size() ==
                          result.records.size();
    for (std::size_t i = 0; spliceable && i < result.recordJson.size();
         i++)
        spliceable = !result.recordJson[i].empty();
    if (spliceable) {
        os << "{\n";
        if (!spec.name.empty())
            os << "  \"campaign\": " << jsonQuote(spec.name) << ",\n";
        os << "  \"results\": [";
        for (std::size_t i = 0; i < result.recordJson.size(); i++)
            os << (i ? ",\n    " : "\n    ") << result.recordJson[i];
        std::set<std::uint64_t> seeds;
        for (const auto &rec : result.records)
            seeds.insert(rec.spec.seed);
        os << "\n  ],\n  \"seedCount\": " << seeds.size() << "\n}\n";
        return;
    }
    sim::writeResultsJson(os, result.records,
                          result.plan.annotations(spec.name));
}

bool
writeCampaignResultsJsonFile(const std::string &path,
                             const CampaignSpec &spec,
                             const CampaignResult &result)
{
    std::ostringstream out;
    writeCampaignResultsJson(out, spec, result);
    return writeTextFileAtomic(path, out.str());
}

// ---------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------

namespace
{

/** Fields that form the run identity (the match key), skipped during
 *  metric iteration. */
bool
isIdentityField(const std::string &key)
{
    return key == "policy" || key == "workload" || key == "config" ||
           key == "seed" || key == "scenario" || key == "tag" ||
           key == "variant";
}

/** Metrics that define *what ran* rather than how it performed —
 *  always compared bit-exactly, bands do not apply. */
bool
isExactField(const std::string &key)
{
    return key == "requests" || key == "runKey" ||
           key == "tenantRequests";
}

/** Run-supervision bookkeeping (status/error/attempts) is compared as
 *  a pass/fail transition up front, not metric-by-metric: an error
 *  string or a retry count changing on a still-failing (or
 *  still-passing) run is informational, not a regression. */
bool
isSupervisionField(const std::string &key)
{
    return key == "status" || key == "error" || key == "attempts";
}

/** The one malformed-document diagnostic shape. */
[[noreturn]] void
docError(const std::string &docName, const std::string &what)
{
    throw std::invalid_argument(docName +
                                ": not a results document (" + what +
                                ")");
}

const std::vector<JsonValue> &
resultsArray(const JsonValue &doc, const std::string &docName)
{
    if (!doc.isObject())
        docError(docName, "top level is not an object");
    const JsonValue *results = doc.find("results");
    if (!results || !results->isArray())
        docError(docName, "missing \"results\" array");
    return results->asArray();
}

/** Integral-exact string form of an identity scalar. */
std::string
identityString(const JsonValue &v)
{
    if (v.isString())
        return v.asString();
    if (v.isIntegral())
        return std::to_string(v.asUint());
    return jsonNumber(v.asDouble());
}

/** Human-readable run id, also the match key. */
std::string
runId(const JsonValue &rec, const std::string &docName)
{
    static const char *const kRequired[] = {"policy", "workload",
                                            "config", "seed"};
    std::string id;
    if (const JsonValue *s = rec.find("scenario"))
        id += s->asString() + "/";
    if (const JsonValue *t = rec.find("tag"))
        id += t->asString() + "/";
    for (const char *key : kRequired) {
        const JsonValue *v = rec.find(key);
        if (!v)
            docError(docName, std::string("a result lacks \"") + key +
                                  "\"");
        if (key != kRequired[0])
            id += "/";
        id += std::string(key) == "seed" ? "seed=" + identityString(*v)
                                         : identityString(*v);
    }
    if (const JsonValue *v = rec.find("variant"))
        id += "/variant=" + v->asString();
    return id;
}

/** Index the records of one document by unique run id. Exact
 *  duplicates get a stable "#n" occurrence suffix so two documents
 *  produced from the same manifest always pair up. */
std::vector<std::pair<std::string, const JsonValue *>>
indexRuns(const JsonValue &doc, const std::string &docName)
{
    std::vector<std::pair<std::string, const JsonValue *>> out;
    std::map<std::string, int> occurrences;
    for (const JsonValue &rec : resultsArray(doc, docName)) {
        if (!rec.isObject())
            docError(docName, "a result is not an object");
        std::string id;
        try {
            id = runId(rec, docName);
        } catch (const std::invalid_argument &e) {
            // Accessor type errors (a numeric "scenario", a negative
            // "seed") carry no document context of their own; wrap
            // them so the diagnostic names the offending file. The
            // docError() paths inside runId() already do.
            const std::string what = e.what();
            if (what.rfind(docName, 0) == 0)
                throw;
            docError(docName, what);
        }
        const int n = occurrences[id]++;
        if (n > 0)
            id += "#" + std::to_string(n);
        out.emplace_back(std::move(id), &rec);
    }
    return out;
}

/** Band for @p metric on a run of @p policy ("placements[3]" looks up
 *  "placements"). Relative precedence: the per-metric override (the
 *  most specific statement), else the first matching policy-prefix
 *  band, else the default. */
std::pair<double, double> // (relative band, absolute floor)
bandFor(const GateTolerance &tol, const std::string &metric,
        const std::string &policy)
{
    std::string base = metric;
    const auto bracket = base.find('[');
    if (bracket != std::string::npos)
        base.resize(bracket);
    double rel = tol.relTol;
    for (const auto &[prefix, band] : tol.perPolicyRel) {
        if (policy.rfind(prefix, 0) == 0) {
            rel = band;
            break;
        }
    }
    const auto relIt = tol.perMetric.find(base);
    if (relIt != tol.perMetric.end())
        rel = relIt->second;
    const auto absIt = tol.perMetricAbs.find(base);
    return {rel,
            absIt != tol.perMetricAbs.end() ? absIt->second
                                            : tol.absTol};
}

/** Exact compare preserving full integer precision. */
bool
numbersEqual(const JsonValue &a, const JsonValue &b)
{
    if (a.isIntegral() && b.isIntegral()) {
        const bool negA = a.asDouble() < 0.0;
        if (negA != (b.asDouble() < 0.0))
            return false;
        return negA ? a.asInt() == b.asInt() : a.asUint() == b.asUint();
    }
    return a.asDouble() == b.asDouble();
}

struct GateContext
{
    const GateTolerance &tol;
    GateReport &report;
};

void
compareNumeric(GateContext &ctx, const std::string &id,
               const std::string &policy, const std::string &metric,
               const JsonValue &base, const JsonValue &cur, bool exact)
{
    ctx.report.comparedMetrics++;
    if (numbersEqual(base, cur))
        return;
    GateDelta d;
    d.run = id;
    d.metric = metric;
    d.baseline = base.asDouble();
    d.current = cur.asDouble();
    if (!exact) {
        const auto [rel, abs] = bandFor(ctx.tol, metric, policy);
        d.tol = rel;
        d.absTol = abs;
    }
    d.regression = std::abs(d.current - d.baseline) >
                   d.tol * std::abs(d.baseline) + d.absTol;
    ctx.report.deltas.push_back(std::move(d));
}

void
compareRun(GateContext &ctx, const std::string &id,
           const JsonValue &base, const JsonValue &cur,
           const std::string &currentName)
{
    ctx.report.comparedRuns++;
    // Failure isolation first: a run's pass/fail status dominates its
    // metrics. ok -> failed is lost coverage (a regression even though
    // a failed record has no metrics to go out of band); failed -> ok
    // is a recovery (reported as in-band drift so it shows in the
    // table); failed -> failed compares as equal — a failed baseline
    // must not mask the comparison forever by "missing" metrics.
    const auto statusOf = [](const JsonValue &rec) {
        const JsonValue *s = rec.find("status");
        return s && s->isString() ? s->asString() : std::string("ok");
    };
    const std::string baseStatus = statusOf(base);
    const std::string curStatus = statusOf(cur);
    if (baseStatus != "ok" || curStatus != "ok") {
        ctx.report.comparedMetrics++;
        if (baseStatus != curStatus) {
            GateDelta d;
            d.run = id;
            d.metric = "status";
            d.baselineText = jsonQuote(baseStatus);
            d.currentText = jsonQuote(curStatus);
            if (curStatus != "ok") {
                if (const JsonValue *e = cur.find("error");
                    e && e->isString())
                    d.currentText += " (" + e->asString() + ")";
            }
            d.regression = curStatus != "ok";
            ctx.report.deltas.push_back(std::move(d));
        }
        // Whichever side failed carries no metrics; comparing the
        // rest would only report that absence as noise.
        return;
    }
    // Identity fields were validated by runId(); policy selects the
    // per-policy band family.
    const std::string &policy = base.find("policy")->asString();
    for (const auto &[key, bv] : base.asObject()) {
        if (isIdentityField(key) || isSupervisionField(key))
            continue;
        const JsonValue *cv = cur.find(key);
        if (!cv) {
            // A watched metric vanished: that is lost coverage on the
            // metric axis, a regression like a missing run.
            GateDelta d;
            d.run = id;
            d.metric = key + " (absent from " + currentName + ")";
            d.baseline = bv.isNumber() ? bv.asDouble() : 0.0;
            d.current = std::numeric_limits<double>::quiet_NaN();
            d.regression = true;
            ctx.report.deltas.push_back(std::move(d));
            continue;
        }
        if (bv.isArray()) {
            const auto &ba = bv.asArray();
            if (!cv->isArray() || cv->asArray().size() != ba.size()) {
                GateDelta d;
                d.run = id;
                d.metric = key + " (shape changed)";
                d.regression = true;
                ctx.report.deltas.push_back(std::move(d));
                continue;
            }
            for (std::size_t i = 0; i < ba.size(); i++)
                compareNumeric(ctx, id, policy,
                               key + "[" + std::to_string(i) + "]",
                               ba[i], cv->asArray()[i],
                               isExactField(key));
        } else if (bv.isNumber() && cv->isNumber()) {
            compareNumeric(ctx, id, policy, key, bv, *cv,
                           isExactField(key));
        } else {
            // Strings (runKey) and bools compare bit-exactly.
            ctx.report.comparedMetrics++;
            const bool equal =
                bv.isString() && cv->isString()
                    ? bv.asString() == cv->asString()
                    : bv.isBool() && cv->isBool() &&
                          bv.asBool() == cv->asBool();
            if (!equal) {
                const auto scalarText = [](const JsonValue &v) {
                    if (v.isString())
                        return jsonQuote(v.asString());
                    if (v.isBool())
                        return std::string(v.asBool() ? "true"
                                                      : "false");
                    return std::string("(") +
                           (v.isNull() ? "null" : "non-scalar") + ")";
                };
                GateDelta d;
                d.run = id;
                d.metric = key;
                d.baselineText = scalarText(bv);
                d.currentText = scalarText(*cv);
                d.regression = true;
                ctx.report.deltas.push_back(std::move(d));
            }
        }
    }
}

} // namespace

bool
GateReport::pass() const
{
    return missingRuns.empty() && regressionCount() == 0;
}

std::size_t
GateReport::regressionCount() const
{
    std::size_t n = 0;
    for (const auto &d : deltas)
        n += d.regression ? 1 : 0;
    return n;
}

void
GateReport::printMarkdown(std::ostream &os) const
{
    if (!deltas.empty() || !missingRuns.empty()) {
        os << "| run | metric | baseline | current | delta | band | "
              "status |\n";
        os << "|---|---|---|---|---|---|---|\n";
        // Stream the fields — run ids carry full policy descriptors
        // and can make a row arbitrarily long; a fixed buffer would
        // truncate the status cell off the report.
        char num[48];
        for (const auto &d : deltas) {
            const double pct =
                d.baseline != 0.0
                    ? 100.0 * (d.current - d.baseline) / d.baseline
                    : std::numeric_limits<double>::infinity();
            os << "| " << d.run << " | " << d.metric << " | ";
            if (!d.baselineText.empty() || !d.currentText.empty()) {
                // Non-numeric mismatch: show the values themselves.
                os << d.baselineText << " | " << d.currentText
                   << " | --";
            } else {
                std::snprintf(num, sizeof(num), "%.6g", d.baseline);
                os << num << " | ";
                std::snprintf(num, sizeof(num), "%.6g", d.current);
                os << num << " | ";
                if (std::isfinite(pct)) {
                    std::snprintf(num, sizeof(num), "%+.3g%%", pct);
                    os << num;
                } else {
                    // Vanished metric (NaN) or a zero baseline (inf):
                    // a percentage is meaningless either way.
                    os << "--";
                }
            }
            std::snprintf(num, sizeof(num), "%g%%", 100.0 * d.tol);
            os << " | " << num;
            if (d.absTol != 0.0) {
                std::snprintf(num, sizeof(num), "+%g", d.absTol);
                os << num;
            }
            os << " | " << (d.regression ? "**REGRESSION**" : "ok")
               << " |\n";
        }
        for (const auto &run : missingRuns)
            os << "| " << run
               << " | (run missing from current) |  |  |  |  | "
                  "**REGRESSION** |\n";
    }
    os << "\n" << comparedRuns << " runs / " << comparedMetrics
       << " metrics compared: " << regressionCount()
       << " regressions, " << (deltas.size() - regressionCount())
       << " in-band drifts, " << missingRuns.size() << " missing runs, "
       << addedRuns.size() << " added runs -> "
       << (pass() ? "PASS" : "FAIL") << "\n";
}

GateReport
compareResults(const JsonValue &baseline, const JsonValue &current,
               const GateTolerance &tol,
               const std::string &baselineName,
               const std::string &currentName)
{
    GateReport report;
    GateContext ctx{tol, report};

    const auto baseRuns = indexRuns(baseline, baselineName);
    const auto curRuns = indexRuns(current, currentName);
    std::map<std::string, const JsonValue *> curById;
    for (const auto &[id, rec] : curRuns)
        curById.emplace(id, rec);

    std::set<std::string> matched;
    for (const auto &[id, rec] : baseRuns) {
        const auto it = curById.find(id);
        if (it == curById.end()) {
            report.missingRuns.push_back(id);
            continue;
        }
        matched.insert(id);
        try {
            compareRun(ctx, id, *rec, *it->second, currentName);
        } catch (const std::invalid_argument &e) {
            // A non-numeric element inside a metric array, say; the
            // mismatch could sit in either document, so name both.
            throw std::invalid_argument(baselineName + " vs " +
                                        currentName + ", run " + id +
                                        ": " + e.what());
        }
    }
    for (const auto &[id, rec] : curRuns)
        if (!matched.count(id))
            report.addedRuns.push_back(id);
    return report;
}

GateReport
compareResultsText(const std::string &baselineText,
                   const std::string &currentText,
                   const GateTolerance &tol,
                   const std::string &baselineName,
                   const std::string &currentName)
{
    JsonValue base, cur;
    try {
        base = jsonParse(baselineText);
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(baselineName + ": " + e.what());
    }
    try {
        cur = jsonParse(currentText);
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(currentName + ": " + e.what());
    }
    return compareResults(base, cur, tol, baselineName, currentName);
}

} // namespace sibyl::scenario
