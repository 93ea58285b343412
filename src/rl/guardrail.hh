/**
 * @file
 * Agent-health guardrails: run supervision for the online learner.
 *
 * The paper's pitch is an online agent embedded in the storage stack,
 * which means the stack must survive the agent misbehaving: a NaN that
 * enters training silently poisons every subsequent decision, and a
 * diverging value function can lock the policy onto one device. The
 * guardrail watches the training loss, the network weights, and the
 * action stream for three failure classes:
 *
 *   - non-finite training loss (NaN/Inf from a poisoned reward or
 *     exploding gradients),
 *   - rolling-window loss blowup (recent mean loss exceeding a
 *     burned-in healthy reference by a configurable factor),
 *   - stuck actions (the same placement chosen for an implausibly
 *     long streak; off by default since a converged agent legitimately
 *     favors one device for long stretches).
 *
 * On a trip the owning policy freezes training, serves requests from a
 * configurable heuristic fallback (CDE/HPS) for a cool-down window,
 * restores the agent from a periodic in-memory last-good snapshot
 * (rl/checkpoint serialization), and then re-admits the learner.
 *
 * Determinism contract: the guardrail is pure bookkeeping — it reads
 * agent statistics and parameters but consumes no RNG and never
 * mutates the agent on the healthy path, so enabling it changes
 * *nothing* about a run that never trips, and a trip trajectory is a
 * deterministic function of the run's own step counters and
 * run-key-derived agent stream (bit-exact at any thread count).
 */

#pragma once

#include <cstdint>
#include <deque>
#include <string>

namespace sibyl::rl
{

class Agent;

/** Guardrail knobs (SibylConfig::guardrail; PolicyFactory keys
 *  guardrail*, e.g. "Sibyl{guardrail=1,guardrailCooldown=500}"). */
struct GuardrailConfig
{
    /** Master switch; everything below is inert when false. */
    bool enabled = false;

    /** Decisions between last-good snapshots (0 disables snapshots;
     *  a trip then cold-reinitializes the agent). */
    std::uint32_t snapshotEvery = 2000;

    /** Rolling losses forming both the burned-in healthy reference and
     *  the recent window compared against it. */
    std::uint32_t lossWindow = 32;

    /** Trip when mean(recent lossWindow losses) exceeds
     *  lossBlowupFactor * the healthy reference mean. */
    double lossBlowupFactor = 100.0;

    /** Absolute loss floor for the blowup guard: recent means below
     *  this never trip (guards against 0-vs-epsilon ratios early in
     *  training). */
    double lossFloor = 10.0;

    /** Trip after this many consecutive identical actions
     *  (0 = disabled, the default). */
    std::uint32_t stuckActionWindow = 0;

    /** Fallback-served decisions before the learner is re-admitted. */
    std::uint32_t cooldownDecisions = 2000;

    /** After this many trips the policy stays on the fallback for the
     *  rest of the run (0 = unlimited re-admissions). */
    std::uint32_t maxTrips = 8;

    /** Heuristic served during fallback windows: "CDE" or "HPS". */
    std::string fallback = "CDE";

    /** Fault injection for tests/benches: poison the reward stream
     *  with quiet NaNs from the Nth completed transition onward
     *  (1-based; 0 = off), modeling a broken reward function.
     *  Deterministically provokes the non-finite-loss guard — a
     *  single poisoned entry would only trip if replay sampling
     *  happened to draw it. */
    std::uint64_t injectNanRewardAt = 0;
};

/** Trip accounting surfaced in PolicyResult / results JSON. */
struct GuardrailStats
{
    std::uint64_t trips = 0;
    std::uint64_t fallbackDecisions = 0;
    std::uint64_t snapshots = 0;
    /** Trips restored from a last-good snapshot (the remainder were
     *  cold re-initializations: no healthy snapshot existed yet). */
    std::uint64_t restores = 0;
    /** Decision index (1-based) of the most recent trip. */
    std::uint64_t lastTripDecision = 0;
    std::string lastTripReason;
};

/**
 * The guardrail state machine. Owned by SibylPolicy; one per run.
 *
 * Healthy path:  afterDecision() once per agent decision; a non-empty
 * return is a trip reason and the caller must call trip(), rebuild or
 * restore the agent, and start serving from the fallback.
 * Fallback path: fallbackTick() once per fallback-served decision;
 * returns true when the cool-down elapsed and the learner is
 * re-admitted (the *next* decision goes back to the agent).
 */
class Guardrail
{
  public:
    explicit Guardrail(GuardrailConfig cfg);

    const GuardrailConfig &config() const { return cfg_; }
    const GuardrailStats &stats() const { return stats_; }

    /** True while decisions must be served by the fallback heuristic. */
    bool inFallback() const { return cooldownLeft_ > 0 || halted(); }

    /** True once maxTrips is exhausted: fallback for the rest of the
     *  run, no further re-admission. */
    bool halted() const
    {
        return cfg_.maxTrips > 0 && stats_.trips >= cfg_.maxTrips;
    }

    /**
     * Healthy-path hook, called once per agent decision *after* the
     * agent acted (and possibly trained). Samples any new training
     * round's loss, maintains the divergence window, runs the
     * stuck-action guard, and takes the periodic last-good snapshot.
     * Returns a non-empty trip reason when a guard fired. The agent
     * must measure its loss (AgentConfig::measureLoss, which the
     * Sibyl policy sets when its guardrail is enabled): an unmeasured
     * round's NaN would read as a non-finite loss.
     */
    std::string afterDecision(const Agent &agent, std::uint32_t action);

    /**
     * Record a trip. Returns the last-good snapshot to restore from
     * (empty when none was taken yet — cold re-init). Resets the loss
     * and action windows so the re-admitted learner is judged fresh.
     */
    const std::string &trip(const std::string &reason);

    /** Note that the post-trip restore from the snapshot succeeded
     *  (stats_.restores accounting). */
    void markRestored() { stats_.restores++; }

    /** Fallback-path hook; see class comment. */
    bool fallbackTick();

  private:
    std::string checkLoss(double loss);

    GuardrailConfig cfg_;
    GuardrailStats stats_;

    std::uint64_t decisions_ = 0;
    std::uint64_t lastTrainingRounds_ = 0;
    std::uint64_t cooldownLeft_ = 0;

    /** Burned-in healthy reference: mean of the first lossWindow
     *  losses observed since (re-)admission. */
    double referenceSum_ = 0.0;
    std::uint64_t referenceCount_ = 0;

    /** Rolling window of the most recent losses (post burn-in). */
    std::deque<double> recent_;
    double recentSum_ = 0.0;

    std::uint32_t lastAction_ = 0;
    std::uint64_t actionStreak_ = 0;

    /** Last-good agent serialization (rl/checkpoint bytes). */
    std::string snapshot_;
};

/** True when every learned parameter of @p agent is finite — the
 *  weight-health probe used before each snapshot (also exposed for
 *  tests). */
bool agentParamsFinite(const Agent &agent);

} // namespace sibyl::rl
