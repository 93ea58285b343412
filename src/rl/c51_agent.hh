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
     *  output row the caller produced with inferRow. */
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

    /** Force one training round (for tests). */
    double trainRound() override;

    /** Force a weight sync (for tests). */
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
    /** Distribution (atoms probs) for @p action of a network output row
     *  starting at @p out. */
    static void extractActionDist(const float *out, std::uint32_t action,
                                  std::uint32_t atoms, ml::Vector &dist);

    /** Training-cadence/weight-sync bookkeeping shared by both
     *  observe paths. */
    void afterObserve();

    /** Greedy action from one inferRow() output: per-action softmax
     *  into reused scratch, expectation over the support, first-max
     *  argmax — allocation-free. */
    std::uint32_t greedyFromRow(const float *out);

    /** Greedy-next-action selection for one inference-network output
     *  row: softmax every action's atom group, pick the argmax by
     *  expectation (first max wins), copy the winner's distribution
     *  to @p dist (atoms floats). One definition shared by the
     *  cached and uncached target paths, so the cache-on/off
     *  bit-equality cannot drift. */
    void greedyNextDist(const float *nrow, float *dist);

    /** Fill targetCache_ for every sampled entry not yet projected
     *  under the current frozen weights, evaluating each distinct
     *  next state at most once per sync period (see
     *  AgentConfig::cacheNextValues). */
    void refreshCachedTargets(const std::vector<std::size_t> &indices);

    /** Forget every memoized next-state distribution. */
    void clearNextMemo();

    /** One gradient step on a sampled batch; returns mean loss. */
    double trainBatch();

    /** Batched path: whole minibatch per GEMM (cfg.batchedTraining). */
    double trainBatchBatched(const std::vector<std::size_t> &indices);

    /** Legacy per-sample path (baseline for the perf_train bench). */
    double trainBatchPerSample(const std::vector<std::size_t> &indices);

    C51Config cfg_;
    CategoricalSupport support_;
    ExplorationSchedule explore_;
    Pcg32 rng_;
    ReplayBuffer buffer_;
    std::unique_ptr<ml::Network> inferenceNet_;
    std::unique_ptr<ml::Network> trainingNet_;
    std::unique_ptr<ml::Optimizer> optimizer_;
    C51Stats stats_;
    std::uint64_t observations_ = 0;

    // Reused batch-assembly scratch (no steady-state allocation).
    std::vector<std::size_t> indices_; // sampled replay entries
    std::vector<double> perWeights_;   // PER importance weights
    ml::Matrix stateBatch_;
    ml::Matrix nextBatch_;
    ml::Matrix gradOutM_;
    ml::Vector nextDists_;                // greedyNextDist softmax groups
    ml::Matrix freshTargets_;             // uncached-path targets
    std::vector<const float *> targetRows_; // per row: its target
    std::vector<const float *> logitRows_;  // per row: taken-action logits
    std::vector<float *> gradRows_;         // per row: its gradient span
    std::vector<float> rowWeight_;          // per row: PER weight or 1
    std::vector<float> rowLoss_;
    ml::Vector lossTile_;                 // softmaxCrossEntropyRows scratch

    // Reused decision-path scratch: one action's softmaxed atom group
    // (greedyFromRow; the uncached training path also borrows it for
    // the greedy next distribution) and the full Q vector for
    // Boltzmann draws.
    ml::Vector rowDist_;
    std::vector<double> qScratch_;

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
    // next state already evaluated since the last sync. Flat storage allocated once for bufferCapacity rows
    // but left uninitialized, so only the rows a run fills cost
    // resident memory; linear-probe table (key 0 = empty) with hash
    // hits verified against the stored observation.
    std::unique_ptr<float[]> memoDist_; // atoms floats per next state
    std::unique_ptr<float[]> memoObs_;  // stateDim floats per next state
    std::vector<std::uint64_t> memoKeys_;
    std::vector<std::uint32_t> memoVals_;
    std::size_t memoCount_ = 0;
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
