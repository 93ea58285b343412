/**
 * @file
 * Plain (non-distributional) Deep Q-Network agent.
 *
 * Ablation counterpart to Sibyl's C51 (§6.2.1: "C51's objective is to
 * learn the distribution of Q-values, whereas other variants of Deep
 * Q-Networks aim to approximate a single value"). Identical topology
 * and dual-network arrangement, but the head emits one scalar Q-value
 * per action trained with an MSE temporal-difference loss. The
 * agent-ablation bench quantifies what the distributional head buys.
 */

#pragma once

#include <memory>

#include "common/rng.hh"
#include "ml/network.hh"
#include "ml/optimizer.hh"
#include "rl/agent.hh"

namespace sibyl::rl
{

/** The plain-DQN agent (uses the shared AgentConfig). */
class DqnAgent final : public Agent
{
  public:
    explicit DqnAgent(const AgentConfig &cfg);

    std::string name() const override { return "DQN"; }

    std::uint32_t selectAction(const ml::Vector &state) override;

    /** Two-phase decision (see Agent): Begin makes the RNG draws,
     *  FromRow decodes the greedy action from an inference-network
     *  output row the caller produced with inferRow. */
    bool selectActionBegin(const ml::Vector &state,
                           std::uint32_t &action) override;
    std::uint32_t selectActionFromRow(const float *row) override;
    ml::Network *batchNetwork() override { return inferenceNet_.get(); }

    std::uint32_t greedyAction(const ml::Vector &state) override;
    std::vector<double> qValues(const ml::Vector &state) override;
    void observe(Experience e) override;
    void observeTransition(const ml::Vector &state, std::uint32_t action,
                           float reward,
                           const ml::Vector &nextState) override;
    double trainRound() override;

    const AgentStats &stats() const override { return stats_; }

    void
    setEpsilon(double eps) override
    {
        cfg_.epsilon = eps;
        explore_.overrideConstant(eps);
    }

    void setLearningRate(double lr) override;
    std::size_t storageBytes() const override;

    /** The exploration schedule in effect. */
    const ExplorationSchedule &exploration() const { return explore_; }

    /** Force a training-to-inference weight copy (for tests).
     *  Invalidates the cached Bellman next-values. */
    void syncWeights();

    const AgentConfig &config() const { return cfg_; }
    const ReplayBuffer &buffer() const { return buffer_; }
    ml::Network &inferenceNetwork() { return *inferenceNet_; }
    ml::Network &trainingNetwork() { return *trainingNet_; }
    const ml::Network &inferenceNetwork() const { return *inferenceNet_; }
    const ml::Network &trainingNetwork() const { return *trainingNet_; }

  private:
    /** Training-cadence/weight-sync bookkeeping shared by both
     *  observe paths. */
    void afterObserve();

    /** One gradient step on a sampled batch; returns the mean loss. */
    double trainBatch();

    /** Batched path: whole minibatch per GEMM (cfg.batchedTraining). */
    double trainBatchBatched(const std::vector<std::size_t> &indices);

    /** Legacy per-sample path (baseline for the perf_train bench). */
    double trainBatchPerSample(const std::vector<std::size_t> &indices);

    AgentConfig cfg_;
    ExplorationSchedule explore_;
    Pcg32 rng_;
    ReplayBuffer buffer_;
    std::unique_ptr<ml::Network> inferenceNet_;
    std::unique_ptr<ml::Network> trainingNet_;
    std::unique_ptr<ml::Optimizer> optimizer_;
    AgentStats stats_;
    std::uint64_t observations_ = 0;

    // Reused batch-assembly scratch (no steady-state allocation).
    std::vector<std::size_t> indices_; // sampled replay entries
    std::vector<double> perWeights_;   // PER importance weights
    ml::Matrix stateBatch_;
    ml::Matrix nextBatch_;
    ml::Matrix gradOutM_;
    ml::Vector nextValue_;

    // Reused decision-path scratch (Boltzmann exploration needs the
    // full Q vector; the default epsilon-greedy path never touches
    // it).
    std::vector<double> qScratch_;

    // Per-replay-entry cache of max_a Q_frozen(s', a) (see
    // AgentConfig::cacheNextValues). Slot-indexed alongside the ring;
    // flags cleared on weight sync, single slots on overwrite.
    std::vector<float> nextValCache_;
    std::vector<std::uint8_t> nextValValid_;
    std::vector<std::size_t> uncachedRows_; // gather scratch

    // Duplicate-state folding scratch (see
    // AgentConfig::foldDuplicateStates).
    std::vector<std::uint64_t> foldKeys_; // 0 = empty slot
    std::vector<std::uint32_t> foldVals_;
    std::vector<std::uint32_t> rowToUnique_;
    std::vector<std::size_t> uniqueIdx_;
};

} // namespace sibyl::rl
