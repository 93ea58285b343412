/**
 * @file
 * Categorical DQN (C51) agent with Sibyl's dual-network arrangement.
 *
 * Two identical networks exist (§6, Fig. 7): the *inference network*
 * makes every placement decision, while the *training network* learns
 * from replayed experiences in the background. The training network's
 * weights are copied to the inference network every `targetSyncEvery`
 * requests, which both keeps training off the decision path and plays
 * the role of C51's target network (the inference network's frozen
 * weights provide the next-state distribution for the Bellman target).
 */

#pragma once

#include <memory>

#include "common/rng.hh"
#include "ml/network.hh"
#include "ml/optimizer.hh"
#include "rl/agent.hh"
#include "rl/categorical.hh"
#include "rl/observation_table.hh"
#include "rl/replay_buffer.hh"

namespace sibyl::rl
{

/** Hyper-parameters of the C51 agent (Table 2 defaults). */
using C51Config = AgentConfig;

/** Training/behaviour statistics (shared across agent families). */
using C51Stats = AgentStats;

/**
 * The agent. Drive it with selectAction() for each decision and
 * observe() for each completed transition; training and weight syncs
 * happen automatically at the configured cadence.
 */
class C51Agent final : public Agent
{
  public:
    explicit C51Agent(const C51Config &cfg);

    std::string name() const override { return "C51"; }

    /** Epsilon-greedy action for @p state using the inference network. */
    std::uint32_t selectAction(const ml::Vector &state) override;

    /** Two-phase decision (see Agent): Begin makes the RNG draws,
     *  FromRow decodes the greedy action from an inference-network
     *  output row the caller produced with inferRow. A greedy
     *  decision on an observation already decided since the last
     *  weight sync completes in Begin from the decision memo (see
     *  decisionMemo_). */
    bool selectActionBegin(const ml::Vector &state,
                           std::uint32_t &action) override;
    std::uint32_t selectActionFromRow(const float *row) override;
    ml::Network *batchNetwork() override { return inferenceNet_.get(); }

    /** Greedy action (no exploration) — used by evaluation probes. */
    std::uint32_t greedyAction(const ml::Vector &state) override;

    /** Q-value estimates (distribution expectations) per action from the
     *  inference network. */
    std::vector<double> qValues(const ml::Vector &state) override;

    /**
     * Record a transition. Once the buffer has filled, every
     * `bufferCapacity` observations trigger a training round
     * (batchesPerTraining x batchSize gradient steps), and every
     * `targetSyncEvery` observations the training weights are copied to
     * the inference network (Algorithm 1, lines 16-19).
     */
    void observe(Experience e) override;

    /** Allocation-free observe (see Agent::observeTransition). */
    void observeTransition(const ml::Vector &state, std::uint32_t action,
                           float reward,
                           const ml::Vector &nextState) override;

    /** Force one training round (for tests); always measures the
     *  loss it returns. */
    double trainRound() override;

    /** Copy the training weights to the inference network — the only
     *  place the inference weights change, so it also clears every
     *  per-sync memo. */
    void syncWeights();

    const C51Config &config() const { return cfg_; }
    const C51Stats &stats() const override { return stats_; }
    const CategoricalSupport &support() const { return support_; }
    const ReplayBuffer &buffer() const { return buffer_; }
    ml::Network &inferenceNetwork() { return *inferenceNet_; }
    ml::Network &trainingNetwork() { return *trainingNet_; }
    const ml::Network &inferenceNetwork() const { return *inferenceNet_; }
    const ml::Network &trainingNetwork() const { return *trainingNet_; }

    /** Change the exploration rate online (mixed-workload tuning).
     *  Re-pins the schedule to a constant epsilon. */
    void
    setEpsilon(double eps) override
    {
        cfg_.epsilon = eps;
        explore_.overrideConstant(eps);
    }

    /** The exploration schedule in effect. */
    const ExplorationSchedule &exploration() const { return explore_; }
    /** Change the learning rate online (Sibyl_Opt uses 1e-5). */
    void setLearningRate(double lr) override;

    /** fp16 weights of both networks + the 100-bit/entry replay buffer
     *  (the paper's 124.4 KiB accounting, Â§10.2). */
    std::size_t storageBytes() const override;

  private:
    /** Training-cadence/weight-sync bookkeeping shared by both
     *  observe paths. */
    void afterObserve();

    /** CategoricalSupport::decode() of one network output row into
     *  decodeProbs_ and decodeQ_ (allocation-free). */
    void decodeRow(const float *out);

    /** Greedy action from one inferRow() output: first-max argmax of
     *  the decoded expectations over the allowed actions. */
    std::uint32_t greedyFromRow(const float *out);

    /** Fill targetCache_ for every sampled entry not yet projected
     *  under the current frozen weights, evaluating each distinct
     *  next state at most once per sync period (see
     *  AgentConfig::cacheNextValues). */
    void refreshCachedTargets(const std::vector<std::size_t> &indices);

    /** One training round (batchesPerTraining batches). Measures
     *  the loss into stats_.lastLoss when @p measureLoss, else sets
     *  it to NaN and skips the loss where that saves work. */
    double runTrainingRound(bool measureLoss);

    /** One gradient step on a sampled batch; returns mean loss (0
     *  when the batched path skips it, !measureLoss). */
    double trainBatch(bool measureLoss);

    /** Batched path: whole minibatch per GEMM (cfg.batchedTraining). */
    double trainBatchBatched(const std::vector<std::size_t> &indices,
                             bool measureLoss);

    /** Legacy per-sample path (test reference for the batched one). */
    double trainBatchPerSample(const std::vector<std::size_t> &indices);

    C51Config cfg_;
    CategoricalSupport support_;
    ExplorationSchedule explore_;
    Pcg32 rng_;
    ReplayBuffer buffer_;
    std::unique_ptr<ml::Network> inferenceNet_;
    std::unique_ptr<ml::Network> trainingNet_;
    ml::Adam optimizer_;
    C51Stats stats_;
    std::uint64_t observations_ = 0;
    /** Something reads cadence rounds' loss (AgentConfig::measureLoss,
     *  prioritized replay, VDBE). */
    bool lossArmed_;

    // Reused batch-assembly scratch (no steady-state allocation).
    std::vector<std::size_t> indices_; // sampled replay entries
    std::vector<double> perWeights_;   // PER importance weights
    ml::Matrix stateBatch_;
    ml::Matrix nextBatch_;
    ml::Matrix gradOutM_;
    ml::Matrix freshTargets_;             // uncached-path targets
    ml::Matrix nextDists_;                // uncached-path greedy dists
    std::vector<const float *> targetRows_; // per row: its target
    std::vector<const float *> logitRows_;  // per row: taken-action logits
    std::vector<float *> gradRows_;         // per row: its gradient span
    std::vector<float> rowWeight_;          // per row: PER weight or 1
    std::vector<float> rowLoss_;
    ml::Vector laneTile_; // lane-major scratch: loss and target decode

    // Reused decode scratch: every action's softmaxed atom group and
    // expectation for one row (decodeRow), the allowed actions' Q
    // values for restricted Boltzmann draws, and the rows and
    // destinations of the targets' greedy next-state decode
    // (greedyDistRows).
    ml::Vector decodeProbs_;
    std::vector<double> decodeQ_;
    std::vector<double> qScratch_;
    std::vector<const float *> decodeIn_;
    std::vector<float *> decodeOut_;

    // Per-sync memo of greedy decisions, keyed on the observation
    // bytes. The inference network is frozen between syncs and the
    // observation is binned, so the greedy action is a pure function
    // of those bytes for a whole sync period; a repeat skips inferRow
    // and the decode. Consulted only after the epsilon draw chose the
    // greedy branch (the RNG stream is untouched), only under an
    // unrestricted action mask, and never for Boltzmann exploration,
    // whose draw needs the Q row. Bounded by targetSyncEvery rows
    // (at most kDecisionMemoRows) and started over when full. On the
    // sibyl_single and fleet_paper_cadence benchmark workloads (seed
    // 1) it answers 51% and 55% of greedy decisions: inferRow runs
    // for 0.486 and 0.451 decisions per request, against 0.999
    // without it. A Begin miss inserts the observation; the FromRow
    // that must follow it stores the decided action.
    static constexpr std::size_t kDecisionMemoRows = 4096;
    ObservationTable decisionMemo_;
    std::vector<std::uint8_t> decisionActions_; // per memo row
    std::uint32_t pendingDecision_ = ObservationTable::kNone;

    // Per-replay-entry cache of the *projected* Bellman target
    // distribution (reward and gamma are entry-fixed, the inference
    // net is frozen between syncs — see AgentConfig::cacheNextValues).
    // Caching past the projection skips the per-row softmax/
    // expectation/argmax/projection work for every resampled entry,
    // not just the batched forward.
    ml::Matrix targetCache_;
    std::vector<std::uint8_t> targetValid_;
    std::vector<std::size_t> uncachedRows_; // gather scratch

    // Per-sync memo of the greedy next-state distribution, keyed on
    // the next-state observation bytes: entries that share a next
    // state (binned observations recur) share one forward, softmax
    // and argmax. On the sibyl_single and fleet_paper_cadence
    // benchmark workloads 66% and 60% of projected entries repeat a
    // next state already evaluated since the last sync. Allocated
    // once for bufferCapacity rows, left uninitialized so only the
    // rows a run fills cost resident memory.
    ObservationTable nextMemo_;
    std::unique_ptr<float[]> memoDist_; // atoms floats per memo row
    std::vector<std::uint32_t> memoMisses_; // memo rows to evaluate
    std::vector<std::uint32_t> entrySlot_;  // per uncached entry: memo row

    // Duplicate-state folding scratch (see
    // AgentConfig::foldDuplicateStates).
    std::vector<std::uint64_t> foldKeys_; // 0 = empty slot
    std::vector<std::uint32_t> foldVals_;
    std::vector<std::uint32_t> rowToUnique_;
    std::vector<std::size_t> uniqueIdx_;
};

} // namespace sibyl::rl
