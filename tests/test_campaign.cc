/**
 * @file
 * Campaign-layer tests: manifest JSON parsing, lowering
 * (per-entry tag/requests/seeds overrides, duplicate detection, path
 * resolution), the two merge contracts — a campaign is bit-identical
 * to running each scenario file alone, and its merged results JSON is
 * byte-identical at any thread count — and the cross-PR regression
 * gate (pass / fail / tolerance semantics, exact identity fields,
 * missing runs, malformed-baseline diagnostics).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/campaign.hh"
#include "scenario/scenario_spec.hh"
#include "sim/parallel_runner.hh"

namespace sibyl::scenario
{
namespace
{

// ------------------------- manifest parsing ---------------------------

TEST(CampaignSpec, ParseReadsEveryKey)
{
    // Every manifest and entry key, a seed in the top half of uint64,
    // and an entry that leaves its optional keys out.
    const CampaignSpec c = parseCampaignJson(R"({
      "name": "every-key",
      "scenarios": [
        {"file": "smoke.json"},
        {"file": "fig8_buffer_sweep.json", "tag": "fig8-smoke",
         "requests": 300, "seeds": [7, 16045690984833335023]}
      ],
      "numThreads": 2
    })");
    EXPECT_EQ(c.name, "every-key");
    EXPECT_EQ(c.numThreads, 2u);
    EXPECT_TRUE(c.baseDir.empty());
    ASSERT_EQ(c.entries.size(), 2u);
    EXPECT_EQ(c.entries[0].file, "smoke.json");
    EXPECT_TRUE(c.entries[0].tag.empty());
    EXPECT_EQ(c.entries[0].requests, 0u);
    EXPECT_TRUE(c.entries[0].seeds.empty());
    EXPECT_EQ(c.entries[1].file, "fig8_buffer_sweep.json");
    EXPECT_EQ(c.entries[1].tag, "fig8-smoke");
    EXPECT_EQ(c.entries[1].requests, 300u);
    EXPECT_EQ(c.entries[1].seeds, (std::vector<std::uint64_t>{
                                      7, 0xDEADBEEFDEADBEEFULL}));

    // Keys a manifest leaves out keep the struct defaults.
    const CampaignSpec bare =
        parseCampaignJson(R"({"scenarios": [{"file": "a.json"}]})");
    EXPECT_EQ(bare.name, CampaignSpec().name);
    EXPECT_EQ(bare.numThreads, CampaignSpec().numThreads);
}

TEST(CampaignSpec, ParseDiagnosesBadManifests)
{
    EXPECT_THROW(parseCampaignJson("not json"), std::invalid_argument);
    EXPECT_THROW(parseCampaignJson("[1, 2]"), std::invalid_argument);
    // The one required key.
    EXPECT_THROW(parseCampaignJson("{\"name\": \"x\"}"),
                 std::invalid_argument);
    EXPECT_THROW(parseCampaignJson(
                     "{\"name\": \"x\", \"scenarios\": []}"),
                 std::invalid_argument);
    // Unknown keys are typos, not extensions.
    EXPECT_THROW(parseCampaignJson(
                     "{\"scenarios\": [{\"file\": \"a.json\"}], "
                     "\"scenarois\": []}"),
                 std::invalid_argument);
    EXPECT_THROW(parseCampaignJson(
                     "{\"scenarios\": [{\"file\": \"a.json\", "
                     "\"requets\": 5}]}"),
                 std::invalid_argument);
    // Entries need a file; an empty seeds override is a silent no-op
    // spelled like an override, so it is rejected.
    EXPECT_THROW(parseCampaignJson(
                     "{\"scenarios\": [{\"tag\": \"x\"}]}"),
                 std::invalid_argument);
    EXPECT_THROW(parseCampaignJson(
                     "{\"scenarios\": [{\"file\": \"a.json\", "
                     "\"seeds\": []}]}"),
                 std::invalid_argument);
    // Same for "requests": 0 — the sentinel spelled explicitly would
    // silently run the scenario at full length.
    EXPECT_THROW(parseCampaignJson(
                     "{\"scenarios\": [{\"file\": \"a.json\", "
                     "\"requests\": 0}]}"),
                 std::invalid_argument);
    // A thread count past 32 bits is rejected, not wrapped.
    EXPECT_THROW(parseCampaignJson(
                     "{\"scenarios\": [{\"file\": \"a.json\"}], "
                     "\"numThreads\": 4294967297}"),
                 std::invalid_argument);
}

// ----------------------------- lowering -------------------------------

/** Write @p text to a fresh file under the test temp dir. */
std::string
writeTempFile(const std::string &nameHint, const std::string &text)
{
    const std::string path =
        ::testing::TempDir() + "campaign_test_" + nameHint;
    std::ofstream out(path);
    out << text;
    EXPECT_TRUE(static_cast<bool>(out)) << path;
    return path;
}

/** A tiny scenario file; distinct @p workload keeps entries distinct. */
std::string
tinyScenario(const std::string &name, const std::string &workload)
{
    return "{\n  \"name\": \"" + name +
           "\",\n  \"policies\": [\"CDE\", "
           "\"Sibyl{trainEvery=250}\"],\n  \"workloads\": [\"" +
           workload + "\"],\n  \"traceLen\": 300\n}\n";
}

TEST(CampaignLowering, AppliesOverridesAndDefaultsTags)
{
    const std::string s1 = writeTempFile(
        "lower_a.json", tinyScenario("alpha", "prxy_1"));
    CampaignSpec c;
    c.name = "lower";
    CampaignEntry e1;
    e1.file = s1;
    CampaignEntry e2;
    e2.file = s1;
    e2.tag = "shrunk";
    e2.requests = 120;
    e2.seeds = {9, 10};
    c.entries = {e1, e2};

    const CampaignPlan plan = lowerCampaign(c);
    ASSERT_EQ(plan.scenarios.size(), 2u);
    EXPECT_EQ(plan.scenarios[0].tag, "alpha"); // defaulted
    EXPECT_EQ(plan.scenarios[1].tag, "shrunk");
    EXPECT_EQ(plan.scenarios[0].scenario.traceLen, 300u);
    EXPECT_EQ(plan.scenarios[1].scenario.traceLen, 120u);
    EXPECT_EQ(plan.scenarios[1].scenario.seeds,
              (std::vector<std::uint64_t>{9, 10}));
    // Slices tile the flat batch: 2 policies x 1 seed, then 2 x 2.
    EXPECT_EQ(plan.scenarios[0].firstRun, 0u);
    EXPECT_EQ(plan.scenarios[0].runCount, 2u);
    EXPECT_EQ(plan.scenarios[1].firstRun, 2u);
    EXPECT_EQ(plan.scenarios[1].runCount, 4u);
    ASSERT_EQ(plan.specs.size(), 6u);
    EXPECT_EQ(plan.specs[2].traceLen, 120u);
    EXPECT_EQ(plan.specs[2].seed, 9u);

    // The overrides are part of every run's identity.
    EXPECT_NE(sim::ParallelRunner::runKey(plan.specs[0]),
              sim::ParallelRunner::runKey(plan.specs[2]));
}

TEST(CampaignLowering, RejectsDuplicatesAndBadFiles)
{
    const std::string s1 = writeTempFile(
        "dup.json", tinyScenario("alpha", "prxy_1"));
    CampaignSpec c;
    CampaignEntry e;
    e.file = s1;
    c.entries = {e, e}; // same file, same (defaulted) tag
    EXPECT_THROW(lowerCampaign(c), std::invalid_argument);

    CampaignSpec missing;
    CampaignEntry m;
    m.file = "/no/such/scenario.json";
    missing.entries = {m};
    try {
        lowerCampaign(missing);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &err) {
        // The diagnostic names the offending file.
        EXPECT_NE(std::string(err.what()).find("/no/such/scenario.json"),
                  std::string::npos);
    }

    // A manifest-invalid scenario file is reported with its path.
    const std::string bad =
        writeTempFile("bad.json", "{\"policies\": []}");
    CampaignSpec badc;
    CampaignEntry be;
    be.file = bad;
    badc.entries = {be};
    try {
        lowerCampaign(badc);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find("bad.json"),
                  std::string::npos);
    }
}

TEST(CampaignLowering, ResolvesRelativePathsAgainstManifestDir)
{
    const std::string scenario = writeTempFile(
        "rel_scenario.json", tinyScenario("rel", "prxy_1"));
    const std::string manifest = writeTempFile(
        "rel_manifest.json",
        "{\"name\": \"rel\", \"scenarios\": [{\"file\": "
        "\"campaign_test_rel_scenario.json\"}]}");
    const CampaignSpec c = loadCampaignFile(manifest);
    EXPECT_FALSE(c.baseDir.empty());
    const CampaignPlan plan = lowerCampaign(c);
    ASSERT_EQ(plan.scenarios.size(), 1u);
    EXPECT_EQ(plan.scenarios[0].scenario.name, "rel");
}

// ------------------------ the merge contracts -------------------------

/** Three-scenario campaign over temp files (>= 3 per the roadmap's
 *  manifest contract), 300-request runs. */
CampaignSpec
threeScenarioCampaign()
{
    CampaignSpec c;
    c.name = "merge-contract";
    const char *workloads[] = {"prxy_1", "mds_0", "hm_1"};
    for (const char *w : workloads) {
        CampaignEntry e;
        e.file = writeTempFile(std::string("merge_") + w + ".json",
                               tinyScenario(w, w));
        c.entries.push_back(e);
    }
    return c;
}

/** Run @p c without a checkpoint on a fresh runner sized by its
 *  numThreads. */
CampaignResult
runFresh(const CampaignSpec &c)
{
    sim::ParallelConfig cfg;
    cfg.numThreads = c.numThreads;
    sim::ParallelRunner runner(cfg);
    return runCampaign(c, runner, CampaignCheckpoint());
}

TEST(CampaignRun, BitIdenticalToRunningEachScenarioAlone)
{
    const CampaignSpec c = threeScenarioCampaign();
    const CampaignResult merged = runFresh(c);
    ASSERT_EQ(merged.records.size(), 6u);

    // Each scenario alone, in a fresh runner (fresh caches): the
    // merged batch must not perturb any run — RNG streams derive from
    // run keys, never from batch composition or shared-cache state.
    std::size_t next = 0;
    for (const auto &cs : merged.plan.scenarios) {
        const auto alone = runScenario(cs.scenario);
        ASSERT_EQ(alone.size(), cs.runCount);
        for (std::size_t i = 0; i < alone.size(); i++, next++) {
            SCOPED_TRACE(cs.tag + " run " + std::to_string(i));
            const auto &m = merged.records[next];
            EXPECT_EQ(m.runKey, alone[i].runKey);
            EXPECT_EQ(m.result.metrics.avgLatencyUs,
                      alone[i].result.metrics.avgLatencyUs);
            EXPECT_EQ(m.result.normalizedLatency,
                      alone[i].result.normalizedLatency);
            EXPECT_EQ(m.result.metrics.placements,
                      alone[i].result.metrics.placements);
        }
    }
    EXPECT_EQ(next, merged.records.size());
}

TEST(CampaignRun, MergedJsonByteIdenticalAtOneVsManyThreads)
{
    CampaignSpec serial = threeScenarioCampaign();
    serial.numThreads = 1;
    CampaignSpec parallel = serial;
    parallel.numThreads = 4;

    const CampaignResult a = runFresh(serial);
    const CampaignResult b = runFresh(parallel);

    std::ostringstream ja, jb;
    writeCampaignResultsJson(ja, serial, a);
    writeCampaignResultsJson(jb, parallel, b);
    EXPECT_EQ(ja.str(), jb.str());

    // And the merged document carries the (campaign, scenario, run)
    // keys the regression gate diffs on.
    const std::string text = ja.str();
    EXPECT_NE(text.find("\"campaign\": \"merge-contract\""),
              std::string::npos);
    EXPECT_NE(text.find("\"scenario\": \"prxy_1\""), std::string::npos);
    EXPECT_NE(text.find("\"tag\": \"mds_0\""), std::string::npos);

    // Self-diff of a freshly emitted set: the gate is reflexive.
    const GateReport self =
        compareResultsText(text, text, GateTolerance());
    EXPECT_TRUE(self.pass());
    EXPECT_EQ(self.comparedRuns, 6u);
    EXPECT_TRUE(self.deltas.empty());
}

TEST(CampaignRun, AnnotationGroupsMustTileTheRecordSet)
{
    sim::ResultsAnnotations notes;
    notes.campaign = "x";
    notes.groups.push_back({"s", "t", 2}); // but zero records follow
    std::ostringstream os;
    EXPECT_THROW(
        sim::writeResultsJson(os, std::vector<sim::RunRecord>(), notes),
        std::invalid_argument);
}

// ---------------------- checkpoint / resume ---------------------------

std::string
journalName(std::size_t i, std::uint64_t key)
{
    char name[48];
    std::snprintf(name, sizeof(name), "run-%05zu-%016llx.json", i,
                  static_cast<unsigned long long>(key));
    return name;
}

/** Fresh journal directory (unique per call so reruns of the test
 *  binary never resume a previous run's entries). */
std::string
freshCheckpointDir(const std::string &hint)
{
    static std::uint64_t n = 0;
    return ::testing::TempDir() + "campaign_ckpt_" + hint + "_" +
           std::to_string(
               std::chrono::system_clock::now().time_since_epoch()
                   .count()) +
           "_" + std::to_string(n++);
}

TEST(CampaignCheckpoint, KilledAndResumedMergeIsByteIdentical)
{
    CampaignSpec c = threeScenarioCampaign();
    c.numThreads = 2;

    // The uninterrupted reference (no checkpointing involved at all).
    const CampaignResult ref = runFresh(c);
    std::ostringstream refJson;
    writeCampaignResultsJson(refJson, c, ref);

    sim::ParallelConfig pcfg;
    pcfg.numThreads = 2;
    CampaignCheckpoint ckpt;
    ckpt.dir = freshCheckpointDir("resume");

    // Checkpointed full run: journals every run, merges identically.
    {
        sim::ParallelRunner runner(pcfg);
        const CampaignResult full = runCampaign(c, runner, ckpt);
        EXPECT_EQ(full.resumedCount(), 0u);
        std::ostringstream js;
        writeCampaignResultsJson(js, c, full);
        EXPECT_EQ(js.str(), refJson.str());
    }

    // "Crash": drop half the journal (as if the process was SIGKILLed
    // before those runs finished), then resume.
    const CampaignPlan plan = lowerCampaign(c);
    ASSERT_EQ(plan.specs.size(), 6u);
    for (std::size_t i = 1; i < plan.specs.size(); i += 2) {
        const std::string path =
            ckpt.dir + "/" +
            journalName(i, sim::ParallelRunner::runKey(plan.specs[i]));
        ASSERT_EQ(std::remove(path.c_str()), 0) << path;
    }
    ckpt.resume = true;
    sim::ParallelRunner resumeRunner(pcfg);
    const CampaignResult resumed = runCampaign(c, resumeRunner, ckpt);
    EXPECT_EQ(resumed.resumedCount(), 3u);
    std::ostringstream resumedJson;
    writeCampaignResultsJson(resumedJson, c, resumed);
    EXPECT_EQ(resumedJson.str(), refJson.str());

    // Resumed records carry hydrated display fields, not blanks.
    ASSERT_EQ(resumed.records.size(), ref.records.size());
    for (std::size_t i = 0; i < resumed.records.size(); i++) {
        if (!resumed.resumed[i])
            continue;
        SCOPED_TRACE("resumed run " + std::to_string(i));
        EXPECT_EQ(resumed.records[i].result.metrics.avgLatencyUs,
                  ref.records[i].result.metrics.avgLatencyUs);
        EXPECT_EQ(resumed.records[i].result.policy,
                  ref.records[i].result.policy);
    }

    // Resume with the journal complete: nothing re-runs, same bytes.
    sim::ParallelRunner again(pcfg);
    const CampaignResult all = runCampaign(c, again, ckpt);
    EXPECT_EQ(all.resumedCount(), 6u);
    std::ostringstream allJson;
    writeCampaignResultsJson(allJson, c, all);
    EXPECT_EQ(allJson.str(), refJson.str());
}

TEST(CampaignCheckpoint, ResumeIgnoresCorruptOrForeignEntries)
{
    CampaignSpec c = threeScenarioCampaign();
    c.numThreads = 2;
    sim::ParallelConfig pcfg;
    pcfg.numThreads = 2;
    CampaignCheckpoint ckpt;
    ckpt.dir = freshCheckpointDir("corrupt");

    sim::ParallelRunner runner(pcfg);
    const CampaignResult full = runCampaign(c, runner, ckpt);
    std::ostringstream refJson;
    writeCampaignResultsJson(refJson, c, full);

    // Corrupt entry 0 (unparseable) and replace entry 2 with a valid
    // JSON object whose runKey does not match the plan (a stale entry
    // from an edited manifest). Resume must re-run both.
    const CampaignPlan plan = lowerCampaign(c);
    const auto pathOf = [&](std::size_t i) {
        return ckpt.dir + "/" +
               journalName(i,
                           sim::ParallelRunner::runKey(plan.specs[i]));
    };
    {
        std::ofstream out(pathOf(0), std::ios::trunc);
        out << "{truncated garbag";
    }
    {
        std::ofstream out(pathOf(2), std::ios::trunc);
        out << "{\"policy\": \"CDE\", \"workload\": \"w\", \"config\": "
               "\"H&M\", \"seed\": 42, \"runKey\": "
               "\"0x0000000000000000\", \"requests\": 1}";
    }
    ckpt.resume = true;
    sim::ParallelRunner resumeRunner(pcfg);
    const CampaignResult resumed = runCampaign(c, resumeRunner, ckpt);
    EXPECT_EQ(resumed.resumedCount(), 4u);
    EXPECT_FALSE(resumed.resumed[0]);
    EXPECT_FALSE(resumed.resumed[2]);
    std::ostringstream js;
    writeCampaignResultsJson(js, c, resumed);
    EXPECT_EQ(js.str(), refJson.str());
}

TEST(CampaignCheckpoint, UnwritableJournalDirIsDiagnosed)
{
    CampaignSpec c = threeScenarioCampaign();
    sim::ParallelConfig pcfg;
    pcfg.numThreads = 1;
    sim::ParallelRunner runner(pcfg);
    CampaignCheckpoint ckpt;
    ckpt.dir = "/proc/no/such/journal/dir";
    EXPECT_THROW(runCampaign(c, runner, ckpt), std::invalid_argument);
}

// -------------------------- regression gate ---------------------------

/** One-run results document with the given scalar metric values. */
std::string
resultsDoc(double avgLatencyUs, const std::string &runKey = "0xabc",
           int requests = 100, const std::string &placements = "60, 40")
{
    std::ostringstream os;
    os << "{\n  \"results\": [\n    {\"policy\": \"CDE\", "
          "\"workload\": \"w\", \"config\": \"H&M\", \"seed\": 42, "
          "\"runKey\": \""
       << runKey << "\", \"requests\": " << requests
       << ", \"avgLatencyUs\": " << avgLatencyUs
       << ", \"placements\": [" << placements << "]}\n  ]\n}\n";
    return os.str();
}

/** One-run results document for a run that failed supervision. */
std::string
failedDoc(const std::string &error = "policy: boom", int attempts = 2)
{
    std::ostringstream os;
    os << "{\n  \"results\": [\n    {\"policy\": \"CDE\", "
          "\"workload\": \"w\", \"config\": \"H&M\", \"seed\": 42, "
          "\"runKey\": \"0xabc\", \"status\": \"failed\", "
          "\"error\": \""
       << error << "\", \"attempts\": " << attempts << "}\n  ]\n}\n";
    return os.str();
}

TEST(RegressionGate, StatusTransitionsGateCoverageNotErrorText)
{
    const std::string ok = resultsDoc(10.0);

    // A run that passed at baseline and fails now is a regression,
    // and the gate surfaces the failure's error text.
    const GateReport broke =
        compareResultsText(ok, failedDoc(), GateTolerance());
    EXPECT_FALSE(broke.pass());
    ASSERT_EQ(broke.deltas.size(), 1u);
    EXPECT_EQ(broke.deltas[0].metric, "status");
    EXPECT_TRUE(broke.deltas[0].regression);
    EXPECT_NE(broke.deltas[0].currentText.find("boom"),
              std::string::npos);

    // The reverse transition (a baseline failure now passing) is an
    // informational delta, not a regression.
    const GateReport fixedUp =
        compareResultsText(failedDoc(), ok, GateTolerance());
    EXPECT_TRUE(fixedUp.pass());
    ASSERT_EQ(fixedUp.deltas.size(), 1u);
    EXPECT_EQ(fixedUp.deltas[0].metric, "status");
    EXPECT_FALSE(fixedUp.deltas[0].regression);

    // Two failed runs compare equal even when the error text or the
    // attempt count drifted: the gate tracks coverage, not messages.
    const GateReport still = compareResultsText(
        failedDoc(), failedDoc("simulate: other cause", 1),
        GateTolerance());
    EXPECT_TRUE(still.pass());
    EXPECT_TRUE(still.deltas.empty());

    // An ok run that needed a retry ("attempts": 2) is metric-equal to
    // one that passed first try: supervision bookkeeping is not gated.
    std::string retried = resultsDoc(10.0);
    const std::string needle = "\"requests\"";
    retried.insert(retried.find(needle), "\"attempts\": 2, ");
    EXPECT_TRUE(
        compareResultsText(ok, retried, GateTolerance()).pass());
    EXPECT_TRUE(
        compareResultsText(retried, ok, GateTolerance()).pass());
}

TEST(RegressionGate, ExactByDefaultAndBandsWhenAsked)
{
    const std::string base = resultsDoc(10.0);

    // Identical documents pass at zero tolerance.
    EXPECT_TRUE(
        compareResultsText(base, base, GateTolerance()).pass());

    // Any drift fails at the default (bit-exact) tolerance...
    GateTolerance exact;
    const GateReport fail =
        compareResultsText(base, resultsDoc(10.4), exact);
    EXPECT_FALSE(fail.pass());
    ASSERT_EQ(fail.deltas.size(), 1u);
    EXPECT_EQ(fail.deltas[0].metric, "avgLatencyUs");
    EXPECT_TRUE(fail.deltas[0].regression);

    // ...is in-band drift at 5%...
    GateTolerance banded;
    banded.relTol = 0.05;
    const GateReport drift =
        compareResultsText(base, resultsDoc(10.4), banded);
    EXPECT_TRUE(drift.pass());
    ASSERT_EQ(drift.deltas.size(), 1u);
    EXPECT_FALSE(drift.deltas[0].regression);

    // ...and a regression again beyond the band.
    EXPECT_FALSE(
        compareResultsText(base, resultsDoc(10.6), banded).pass());

    // Per-metric overrides beat the default band.
    GateTolerance perMetric;
    perMetric.relTol = 0.001;
    perMetric.perMetric["avgLatencyUs"] = 0.1;
    EXPECT_TRUE(
        compareResultsText(base, resultsDoc(10.6), perMetric).pass());
}

TEST(RegressionGate, AbsoluteFloorsCoverZeroBaselines)
{
    // A metric whose baseline is 0 has no relative band to live in:
    // 0 -> 1 is infinite relative drift. The absolute floor (the
    // golden-run `abs + rel*|base|` shape) is what absorbs counter
    // jitter on short smoke runs.
    const std::string zero =
        "{\"results\": [{\"policy\": \"CDE\", \"workload\": \"w\", "
        "\"config\": \"H&M\", \"seed\": 42, \"promotions\": 0}]}";
    const std::string one =
        "{\"results\": [{\"policy\": \"CDE\", \"workload\": \"w\", "
        "\"config\": \"H&M\", \"seed\": 42, \"promotions\": 1}]}";

    GateTolerance relOnly;
    relOnly.relTol = 10.0; // no relative band can cover base == 0
    EXPECT_FALSE(compareResultsText(zero, one, relOnly).pass());

    GateTolerance floored;
    floored.perMetricAbs["promotions"] = 2.0;
    const GateReport ok = compareResultsText(zero, one, floored);
    EXPECT_TRUE(ok.pass());
    ASSERT_EQ(ok.deltas.size(), 1u);
    EXPECT_FALSE(ok.deltas[0].regression);
    EXPECT_EQ(ok.deltas[0].absTol, 2.0);

    // The floor is additive, not a substitute: past it still fails.
    const std::string five =
        "{\"results\": [{\"policy\": \"CDE\", \"workload\": \"w\", "
        "\"config\": \"H&M\", \"seed\": 42, \"promotions\": 5}]}";
    EXPECT_FALSE(compareResultsText(zero, five, floored).pass());

    // Floors never loosen the exact identity fields.
    GateTolerance flooredAll;
    flooredAll.absTol = 1000.0;
    EXPECT_FALSE(compareResultsText(resultsDoc(10.0),
                                    resultsDoc(10.0, "0xabc", 101),
                                    flooredAll)
                     .pass());
}

TEST(RegressionGate, PolicyPrefixBandsSplitRlFromHeuristics)
{
    // The golden-run tolerance split: RL trajectories get a wide band,
    // deterministic heuristics a tight one — from ONE tolerance spec.
    const auto doc = [](const char *policy, double latency) {
        std::ostringstream os;
        os << "{\"results\": [{\"policy\": \"" << policy
           << "\", \"workload\": \"w\", \"config\": \"H&M\", "
              "\"seed\": 42, \"avgLatencyUs\": "
           << latency << "}]}";
        return os.str();
    };
    GateTolerance split;
    split.relTol = 0.001;
    split.perPolicyRel.emplace_back("Sibyl", 0.05);

    // 3% drift: fine on a Sibyl run (5% band)...
    EXPECT_TRUE(compareResultsText(doc("Sibyl{trainEvery=100}", 10.0),
                                   doc("Sibyl{trainEvery=100}", 10.3),
                                   split)
                    .pass());
    // ...a regression on the deterministic CDE row (0.1% band).
    EXPECT_FALSE(compareResultsText(doc("CDE", 10.0), doc("CDE", 10.3),
                                    split)
                     .pass());
    EXPECT_TRUE(compareResultsText(doc("CDE", 10.0), doc("CDE", 10.005),
                                   split)
                    .pass());

    // A per-metric override is the more specific statement: it beats
    // the policy band on both families.
    split.perMetric["avgLatencyUs"] = 0.5;
    EXPECT_TRUE(compareResultsText(doc("CDE", 10.0), doc("CDE", 13.0),
                                   split)
                    .pass());
}

TEST(RegressionGate, IdentityTypeErrorsNameTheDocument)
{
    // A hand-edited baseline with an ill-typed identity field must be
    // diagnosed with the file's name, like every other malformed path.
    const std::string good = resultsDoc(10.0);
    const std::string badSeed =
        "{\"results\": [{\"policy\": \"CDE\", \"workload\": \"w\", "
        "\"config\": \"H&M\", \"seed\": -1}]}";
    try {
        compareResultsText(badSeed, good, GateTolerance(),
                           "edited-baseline.json");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("edited-baseline.json"),
                  std::string::npos)
            << e.what();
    }

    // Ill-typed metric payloads name both documents (the mismatch
    // could sit in either).
    const std::string strArray =
        "{\"results\": [{\"policy\": \"CDE\", \"workload\": \"w\", "
        "\"config\": \"H&M\", \"seed\": 42, \"requests\": 100, "
        "\"avgLatencyUs\": 10, \"placements\": [\"x\", 40]}]}";
    const std::string numArray = resultsDoc(10.0);
    try {
        compareResultsText(strArray, numArray, GateTolerance(),
                           "b.json", "c.json");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("b.json"), std::string::npos) << what;
        EXPECT_NE(what.find("c.json"), std::string::npos) << what;
    }
}

TEST(RegressionGate, IdentityFieldsIgnoreBands)
{
    const std::string base = resultsDoc(10.0);
    GateTolerance loose;
    loose.relTol = 10.0; // absurdly wide performance bands

    // requests and runKey define what ran: always bit-exact.
    EXPECT_FALSE(compareResultsText(
                     base, resultsDoc(10.0, "0xabc", 101), loose)
                     .pass());
    const GateReport keyDrift =
        compareResultsText(base, resultsDoc(10.0, "0xdef"), loose);
    EXPECT_FALSE(keyDrift.pass());
    // A determinism break must be diffable from the report: the two
    // key values ride in the delta (and its markdown row).
    ASSERT_EQ(keyDrift.deltas.size(), 1u);
    EXPECT_EQ(keyDrift.deltas[0].baselineText, "\"0xabc\"");
    EXPECT_EQ(keyDrift.deltas[0].currentText, "\"0xdef\"");
    std::ostringstream md;
    keyDrift.printMarkdown(md);
    EXPECT_NE(md.str().find("\"0xabc\" | \"0xdef\""),
              std::string::npos)
        << md.str();

    // Trajectory-dependent counters DO take the band (placements may
    // shift when an RL decision flips on a different libm).
    EXPECT_TRUE(compareResultsText(
                    base, resultsDoc(10.0, "0xabc", 100, "59, 41"),
                    loose)
                    .pass());
    EXPECT_FALSE(compareResultsText(
                     base, resultsDoc(10.0, "0xabc", 100, "59, 41"),
                     GateTolerance())
                     .pass());
    // A placement-vector shape change is structural: band-free fail.
    EXPECT_FALSE(compareResultsText(
                     base, resultsDoc(10.0, "0xabc", 100, "60, 40, 0"),
                     loose)
                     .pass());
}

TEST(RegressionGate, MissingRunsRegressAddedRunsDoNot)
{
    const std::string one = resultsDoc(10.0);
    std::string two = one;
    // Append a second, distinct run (different seed).
    const std::string extra =
        ",\n    {\"policy\": \"CDE\", \"workload\": \"w\", "
        "\"config\": \"H&M\", \"seed\": 43, \"requests\": 100, "
        "\"avgLatencyUs\": 11}";
    two.insert(two.rfind("\n  ]"), extra);

    // Baseline ⊂ current: new coverage is fine.
    const GateReport grown =
        compareResultsText(one, two, GateTolerance());
    EXPECT_TRUE(grown.pass());
    ASSERT_EQ(grown.addedRuns.size(), 1u);

    // Current ⊂ baseline: lost coverage fails.
    const GateReport shrunk =
        compareResultsText(two, one, GateTolerance());
    EXPECT_FALSE(shrunk.pass());
    ASSERT_EQ(shrunk.missingRuns.size(), 1u);
    EXPECT_NE(shrunk.missingRuns[0].find("seed=43"),
              std::string::npos);

    // The markdown report names the regression and the verdict.
    std::ostringstream md;
    shrunk.printMarkdown(md);
    EXPECT_NE(md.str().find("missing from current"), std::string::npos);
    EXPECT_NE(md.str().find("FAIL"), std::string::npos);
}

TEST(RegressionGate, MalformedDocumentsAreDiagnosed)
{
    const std::string good = resultsDoc(10.0);

    // Unparseable baseline: the diagnostic names the input.
    try {
        compareResultsText("{oops", good, GateTolerance(),
                           "old-baseline.json");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("old-baseline.json"),
                  std::string::npos);
    }

    // Parseable but not a results document.
    EXPECT_THROW(compareResultsText("[1]", good, GateTolerance()),
                 std::invalid_argument);
    EXPECT_THROW(compareResultsText("{\"results\": 3}", good,
                                    GateTolerance()),
                 std::invalid_argument);
    EXPECT_THROW(compareResultsText("{\"results\": [5]}", good,
                                    GateTolerance()),
                 std::invalid_argument);
    // A result missing an identity field.
    EXPECT_THROW(
        compareResultsText("{\"results\": [{\"policy\": \"CDE\"}]}",
                           good, GateTolerance()),
        std::invalid_argument);
    // And the malformed CURRENT side is diagnosed too.
    try {
        compareResultsText(good, "{\"results\": [{}]}",
                           GateTolerance(), "base.json", "cur.json");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("cur.json"),
                  std::string::npos);
    }
}

TEST(RegressionGate, VanishedMetricIsARegression)
{
    const std::string base = resultsDoc(10.0);
    // Current run exists but dropped the avgLatencyUs field.
    const std::string noMetric =
        "{\n  \"results\": [\n    {\"policy\": \"CDE\", \"workload\": "
        "\"w\", \"config\": \"H&M\", \"seed\": 42, \"runKey\": "
        "\"0xabc\", \"requests\": 100, \"placements\": [60, 40]}\n  "
        "]\n}\n";
    GateTolerance loose;
    loose.relTol = 10.0;
    const GateReport r = compareResultsText(base, noMetric, loose);
    EXPECT_FALSE(r.pass());
    ASSERT_EQ(r.regressionCount(), 1u);
    EXPECT_NE(r.deltas[0].metric.find("absent"), std::string::npos);
}

// -------------------- the checked-in smoke campaign -------------------

TEST(CampaignFiles, CheckedInSmokeManifestLowers)
{
    // Keep the CI gate's inputs honest: the manifest parses, names >= 3
    // scenario files, and lowers against the repo's scenario
    // directory. (CI additionally runs it and diffs against
    // the checked-in baseline; runtime stays out of unit tests.)
    for (const char *dir : {"../scenarios", "scenarios"}) {
        const std::string path =
            std::string(dir) + "/campaign_smoke.json";
        std::ifstream probe(path);
        if (!probe)
            continue;
        const CampaignSpec c = loadCampaignFile(path);
        EXPECT_GE(c.entries.size(), 3u);
        const CampaignPlan plan = lowerCampaign(c);
        EXPECT_EQ(plan.scenarios.size(), c.entries.size());
        EXPECT_GE(plan.specs.size(), plan.scenarios.size());
        return;
    }
    GTEST_SKIP() << "scenarios/ not reachable from test cwd";
}

} // namespace
} // namespace sibyl::scenario
