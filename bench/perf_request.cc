/**
 * @file
 * Request-path benchmark: the perf trajectory's end-to-end series.
 *
 * Three views of the per-request cost, printed as tables and emitted
 * to BENCH_request.json:
 *
 *  1. End-to-end simulated requests/sec — full runSimulation() over a
 *     prxy_1 trace (policy decision + serve + learning at the policy's
 *     own cadence) for Sibyl-DQN, Sibyl-C51, and the CDE/HPS heuristic
 *     baselines. Reported twice for the RL policies: at the repo's
 *     convergence-tuned training cadence (SibylConfig defaults,
 *     trainEvery=125 — training-dominated) and at the paper's cadence
 *     (train once per buffer fill — request-path-dominated).
 *  2. selectAction latency (ns) — the agent decision kernel alone, on
 *     a warmed agent, replaying the observations the simulation
 *     encoded, in order, with a weight sync every targetSyncEvery
 *     decisions as in a run. Printed next to the share of those
 *     decisions the C51 agent's per-sync decision memo answered: a
 *     repeated observation skips the network, so timing one repeated
 *     observation would time memo hits only.
 *  3. Metadata-op latency (ns) — a mixed touch/map/remap/
 *     lruVictim stream against hss::PageMetaTable.
 *
 * SIBYL_BENCH_REQUESTS shrinks the trace for CI smoke runs.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "core/sibyl_config.hh"
#include "core/sibyl_policy.hh"
#include "hss/hybrid_system.hh"
#include "hss/metadata.hh"
#include "rl/c51_agent.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

using namespace sibyl;
using Clock = std::chrono::steady_clock;

namespace
{

double
elapsed(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
fmt(double v, int prec = 0)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

/** Best-of-N end-to-end requests/sec for one policy descriptor. */
double
endToEnd(const trace::Trace &t, const std::string &descriptor,
         const core::SibylConfig &sibylCfg, int reps)
{
    double best = 0.0;
    for (int rep = 0; rep < reps; rep++) {
        auto specs = hss::makeHssConfig("H&M", t.uniquePages());
        hss::HybridSystem sys(std::move(specs), 42);
        auto policy =
            sim::makePolicy(descriptor, sys.numDevices(), sibylCfg);
        const auto start = Clock::now();
        sim::runSimulation(t, sys, *policy);
        const double secs = elapsed(start, Clock::now());
        best = std::max(best,
                        static_cast<double>(t.size()) / std::max(secs, 1e-9));
    }
    return best;
}

struct DecisionTiming
{
    double ns = 0.0;        ///< per selectAction
    double memoShare = 0.0; ///< decisions answered by the memo
};

/** selectAction cost on a policy warmed by a full simulation, over
 *  the observations that simulation encoded (see the file comment). */
DecisionTiming
selectActionNs(const trace::Trace &t, core::AgentKind kind)
{
    auto specs = hss::makeHssConfig("H&M", t.uniquePages());
    hss::HybridSystem sys(std::move(specs), 42);
    core::SibylConfig cfg;
    cfg.agentKind = kind;
    core::SibylPolicy policy(cfg, sys.numDevices());

    // runSimulation, recording each request's observation as the
    // policy encodes it (from the pre-action system state).
    std::vector<ml::Vector> obs;
    obs.reserve(t.size());
    policy.prepare(t, sys);
    sim::RequestStepper stepper(sys, policy, sim::SimConfig(), t.size());
    for (const trace::Request &req : t) {
        obs.push_back(policy.encoder().encode(sys, req));
        stepper.step(req);
    }

    rl::Agent &agent = policy.agent();
    auto *c51 = dynamic_cast<rl::C51Agent *>(&agent);
    const rl::AgentStats before = agent.stats();
    std::uint64_t sink = 0;
    double secs = 0.0;
    for (std::size_t i = 0; i < obs.size(); i += cfg.targetSyncEvery) {
        const std::size_t end =
            std::min<std::size_t>(obs.size(), i + cfg.targetSyncEvery);
        const auto start = Clock::now();
        for (std::size_t j = i; j < end; j++)
            sink += agent.selectAction(obs[j]);
        secs += elapsed(start, Clock::now());
        if (c51)
            c51->syncWeights();
    }
    if (sink == 0xFFFFFFFFFFFFFFFFull) // defeat dead-code elimination
        std::printf("!");
    const auto n = static_cast<double>(obs.size());
    return {secs / n * 1e9,
            static_cast<double>(agent.stats().decisionMemoHits -
                                before.decisionMemoHits) / n};
}

/**
 * ns per metadata operation over a mixed stream: the per-request mix
 * the simulator's serve path issues (recency touches dominating, a
 * mapping update and a victim probe mixed in).
 */
double
metadataOpNs(std::size_t pages, std::size_t ops)
{
    hss::PageMetaTable meta(2);
    Pcg32 rng(0x9A6E);
    // Pre-map a working set split across both devices.
    for (PageId p = 0; p < pages; p++)
        meta.map(p, static_cast<DeviceId>(p & 1));
    std::uint64_t sink = 0;
    auto stream = [&](std::size_t n) {
        for (std::size_t i = 0; i < n; i++) {
            const PageId p =
                rng.nextBounded(static_cast<std::uint32_t>(pages));
            meta.touch(p);
            sink += meta.accessCount(p) + meta.accessInterval(p);
            if ((i & 15) == 0) {
                const PageId victim = meta.lruVictim(p & 1);
                if (victim != kInvalidPage)
                    meta.remap(victim,
                               static_cast<DeviceId>((p & 1) ^ 1));
            }
        }
    };
    stream(ops / 4); // warm the table's memory before timing
    const auto start = Clock::now();
    stream(ops);
    const double secs = elapsed(start, Clock::now());
    if (sink == 0xFFFFFFFFFFFFFFFFull) // defeat dead-code elimination
        std::printf("!");
    return secs / static_cast<double>(ops) * 1e9;
}

} // namespace

int
main()
{
    bench::banner(
        "perf_request: end-to-end request-path throughput, decision "
        "latency, and metadata-op latency (prxy_1-style trace)");

    const std::size_t len = bench::requestOverride(30000);
    trace::Trace t = trace::makeWorkload("prxy_1", len);
    const int reps = len >= 10000 ? 3 : 1;
    bench::BenchJson json("perf_request");
    json.add("requests", static_cast<double>(len));

    // --- 1. End-to-end requests/sec ---------------------------------
    core::SibylConfig tuned; // repo defaults: trainEvery=125
    core::SibylConfig paper; // paper cadence: train per buffer fill
    paper.trainEvery = 0;

    TextTable e2e;
    e2e.header({"policy", "config", "requests/sec"});
    struct Series
    {
        const char *label;
        const char *descriptor;
        const core::SibylConfig *cfg;
        const char *key;
    };
    const Series series[] = {
        {"Sibyl-DQN", "Sibyl-DQN", &tuned, "sibyl_dqn_requests_per_sec"},
        {"Sibyl-DQN (paper cadence)", "Sibyl-DQN", &paper,
         "sibyl_dqn_paper_cadence_requests_per_sec"},
        {"Sibyl-C51", "Sibyl-C51", &tuned, "sibyl_c51_requests_per_sec"},
        {"Sibyl-C51 (paper cadence)", "Sibyl-C51", &paper,
         "sibyl_c51_paper_cadence_requests_per_sec"},
        {"CDE", "CDE", &tuned, "cde_requests_per_sec"},
        {"HPS", "HPS", &tuned, "hps_requests_per_sec"},
    };
    for (const auto &s : series) {
        const double rps = endToEnd(t, s.descriptor, *s.cfg, reps);
        e2e.addRow({s.label,
                    s.cfg == &paper ? "trainEvery=0" : "defaults",
                    fmt(rps)});
        json.add(s.key, rps);
    }
    e2e.print(std::cout);
    std::printf("\n");

    // --- 2. selectAction ns -----------------------------------------
    TextTable sel;
    sel.header({"agent", "selectAction ns", "decision memo hits"});
    const DecisionTiming dqn = selectActionNs(t, core::AgentKind::Dqn);
    const DecisionTiming c51 = selectActionNs(t, core::AgentKind::C51);
    sel.addRow({"DQN", fmt(dqn.ns, 1), "-"});
    sel.addRow({"C51", fmt(c51.ns, 1), fmt(100.0 * c51.memoShare, 1) + "%"});
    json.add("dqn_select_action_ns", dqn.ns);
    json.add("c51_select_action_ns", c51.ns);
    json.add("c51_decision_memo_hit_share", c51.memoShare);
    sel.print(std::cout);
    std::printf("\n");

    // --- 3. Metadata-op ns ------------------------------------------
    const std::size_t mdPages = 16384;
    const std::size_t mdOps = std::min<std::size_t>(
        2000000, std::max<std::size_t>(len * 16, 200000));
    TextTable md;
    md.header({"table", "metadata-op ns"});
    const double mdNs = metadataOpNs(mdPages, mdOps);
    md.addRow({"PageMetaTable", fmt(mdNs, 1)});
    json.add("metadata_op_ns", mdNs);
    md.print(std::cout);

    if (json.writeTo("BENCH_request.json"))
        std::printf("\nwrote BENCH_request.json\n");
    else
        std::printf("\nWARNING: could not write BENCH_request.json\n");
    return 0;
}
