#include "rl/dqn_agent.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sibyl::rl
{

DqnAgent::DqnAgent(const AgentConfig &cfg)
    : cfg_(cfg),
      explore_(makeExploration(cfg)),
      rng_(cfg.seed, 0xD62),
      buffer_(cfg.bufferCapacity, cfg.dedupBuffer),
      optimizer_(cfg.learningRate),
      lossArmed_(cfg.measureLoss ||
                 cfg.exploration.kind == ExplorationKind::Vdbe)
{
    std::vector<ml::LayerSpec> layers;
    for (auto h : cfg_.hidden)
        layers.push_back({h, ml::Activation::Swish});
    layers.push_back({static_cast<std::size_t>(cfg_.numActions),
                      ml::Activation::Identity});

    Pcg32 initRng(cfg.seed, 0x1219);
    trainingNet_ = std::make_unique<ml::Network>(cfg_.stateDim, layers,
                                                 initRng);
    Pcg32 initRng2(cfg.seed, 0x121A);
    inferenceNet_ = std::make_unique<ml::Network>(cfg_.stateDim, layers,
                                                  initRng2);
    inferenceNet_->copyWeightsFrom(*trainingNet_);
}

void
DqnAgent::setLearningRate(double lr)
{
    cfg_.learningRate = lr;
    optimizer_.setLearningRate(lr);
}

std::vector<double>
DqnAgent::qValues(const ml::Vector &state)
{
    const float *q = inferenceNet_->inferRow(state);
    return std::vector<double>(q, q + cfg_.numActions);
}

std::uint32_t
DqnAgent::greedyAction(const ml::Vector &state)
{
    // Single-row inference kernel: no heap allocation, no backward
    // caches. Bit-identical outputs to the legacy forward(Vector)
    // path, so the argmax — and therefore every decision — is
    // unchanged.
    const float *q = inferenceNet_->inferRow(state);
    return selectActionFromRow(q);
}

bool
DqnAgent::selectActionBegin(const ml::Vector &state, std::uint32_t &action)
{
    const std::uint64_t step = stats_.decisions++;
    const bool restricted = !maskCoversAll(actionMask_, cfg_.numActions);
    if (explore_.isBoltzmann()) {
        // The Boltzmann draw's arguments depend on the Q row, so this
        // path cannot defer the network evaluation; resolve inline.
        const float *q = inferenceNet_->inferRow(state);
        if (restricted) {
            // Compact the allowed actions, sample over them, map the
            // sampled index back to an action id.
            const auto allowed = static_cast<std::uint32_t>(
                std::popcount(actionMask_));
            qScratch_.resize(allowed);
            for (std::uint32_t i = 0; i < allowed; i++)
                qScratch_[i] = q[nthSetBit(actionMask_, i)];
            const auto greedy = static_cast<std::uint32_t>(
                std::max_element(qScratch_.begin(), qScratch_.end()) -
                qScratch_.begin());
            const std::uint32_t idx =
                explore_.sampleBoltzmann(qScratch_, rng_);
            if (idx != greedy)
                stats_.randomActions++;
            action = nthSetBit(actionMask_, idx);
            return true;
        }
        qScratch_.assign(q, q + cfg_.numActions);
        const auto greedy = static_cast<std::uint32_t>(
            std::max_element(qScratch_.begin(), qScratch_.end()) -
            qScratch_.begin());
        action = explore_.sampleBoltzmann(qScratch_, rng_);
        if (action != greedy)
            stats_.randomActions++;
        return true;
    }
    if (rng_.nextBool(explore_.epsilonAt(step))) {
        stats_.randomActions++;
        // One bounded draw either way; a restricting mask only narrows
        // the range, so the fault-free RNG stream is untouched.
        action = restricted
            ? nthSetBit(actionMask_,
                        rng_.nextBounded(static_cast<std::uint32_t>(
                            std::popcount(actionMask_))))
            : rng_.nextBounded(cfg_.numActions);
        return true;
    }
    return false; // greedy: caller evaluates the inference network row
}

std::uint32_t
DqnAgent::selectActionFromRow(const float *row)
{
    if (!maskCoversAll(actionMask_, cfg_.numActions)) {
        // First maximum among the allowed actions — the same winner
        // the unmasked argmax picks whenever it is allowed.
        auto best =
            static_cast<std::uint32_t>(std::countr_zero(actionMask_));
        for (std::uint32_t a = best + 1; a < cfg_.numActions; a++)
            if ((actionMask_ >> a & 1u) && row[a] > row[best])
                best = a;
        return best;
    }
    return static_cast<std::uint32_t>(
        std::max_element(row, row + cfg_.numActions) - row);
}

std::uint32_t
DqnAgent::selectAction(const ml::Vector &state)
{
    std::uint32_t action = 0;
    if (selectActionBegin(state, action))
        return action;
    return selectActionFromRow(inferenceNet_->inferRow(state));
}

void
DqnAgent::observe(Experience e)
{
    if (buffer_.add(std::move(e)) && !nextValValid_.empty())
        nextValValid_[buffer_.lastAddIndex()] = 0;
    afterObserve();
}

void
DqnAgent::observeTransition(const ml::Vector &state, std::uint32_t action,
                            float reward, const ml::Vector &nextState)
{
    if (buffer_.add(state, action, reward, nextState) &&
        !nextValValid_.empty()) {
        nextValValid_[buffer_.lastAddIndex()] = 0;
    }
    afterObserve();
}

void
DqnAgent::afterObserve()
{
    observations_++;
    const std::uint64_t cadence =
        cfg_.trainEvery ? cfg_.trainEvery : cfg_.bufferCapacity;
    if (buffer_.full() && observations_ % cadence == 0)
        runTrainingRound(lossArmed_);
    if (observations_ % cfg_.targetSyncEvery == 0 &&
        stats_.trainingRounds > 0)
        syncWeights();
}

double
DqnAgent::trainRound()
{
    return runTrainingRound(true);
}

double
DqnAgent::runTrainingRound(bool measureLoss)
{
    double loss = 0.0;
    for (std::uint32_t b = 0; b < cfg_.batchesPerTraining; b++)
        loss += trainBatch();
    stats_.trainingRounds++;
    // The squared TD error costs next to nothing here, but an unread
    // loss reads "not measured", as the C51 agent's does.
    if (!measureLoss) {
        stats_.lastLoss = std::numeric_limits<double>::quiet_NaN();
        return stats_.lastLoss;
    }
    const double prev = stats_.lastLoss;
    stats_.lastLoss = loss / std::max(1u, cfg_.batchesPerTraining);
    // VDBE feedback: the change in RMS TD error. The raw TD error
    // keeps a reward-noise floor at convergence (constant learning
    // rate), so only its movement signals that the value estimates
    // are still in flux.
    explore_.observeValueDelta(std::sqrt(stats_.lastLoss) -
                               std::sqrt(std::max(0.0, prev)));
    return stats_.lastLoss;
}

double
DqnAgent::trainBatch()
{
    if (cfg_.prioritizedReplay)
        buffer_.samplePrioritizedIndices(cfg_.batchSize, rng_,
                                         cfg_.perAlpha, indices_);
    else
        buffer_.sampleIndices(cfg_.batchSize, rng_, indices_);
    if (indices_.empty())
        return 0.0;
    return cfg_.batchedTraining ? trainBatchBatched(indices_)
                                : trainBatchPerSample(indices_);
}

double
DqnAgent::trainBatchBatched(const std::vector<std::size_t> &indices)
{
    const std::size_t batch = indices.size();
    const bool useCache = cfg_.cacheNextValues && !cfg_.doubleDqn;
    const bool fold = cfg_.foldDuplicateStates;

    // Duplicate-state folding: observations are coarsely binned, so a
    // sampled batch repeats rows; byte-identical states share one
    // forward/backward row with their output gradients summed (exact
    // up to float summation order — gradients are linear in gradOut
    // for a fixed input row). See buildStateFoldMap in agent.hh.
    std::size_t uRows = batch;
    if (fold) {
        uRows = buildStateFoldMap(buffer_, indices, foldKeys_, foldVals_,
                                  rowToUnique_, uniqueIdx_);
    }

    stateBatch_.resize(uRows, cfg_.stateDim);
    for (std::size_t r = 0; r < uRows; r++) {
        const Experience &e = buffer_[fold ? uniqueIdx_[r] : indices[r]];
        std::copy(e.state.begin(), e.state.end(), stateBatch_.row(r));
    }
    if (!useCache) {
        nextBatch_.resize(batch, cfg_.stateDim);
        for (std::size_t r = 0; r < batch; r++) {
            const Experience &e = buffer_[indices[r]];
            std::copy(e.nextState.begin(), e.nextState.end(),
                      nextBatch_.row(r));
        }
    }

    // TD targets for the whole batch: one batched forward per network
    // instead of one matvec chain per sample. Double DQN keeps its
    // select-with-training / evaluate-with-inference split.
    nextValue_.resize(batch);
    if (cfg_.doubleDqn) {
        // Action selection tracks the live training network, so
        // nothing here is cacheable across gradient steps.
        const ml::Matrix &sel = trainingNet_->infer(nextBatch_);
        const ml::Matrix &eval = inferenceNet_->infer(nextBatch_);
        for (std::size_t r = 0; r < batch; r++) {
            const float *srow = sel.row(r);
            const auto bestA = static_cast<std::size_t>(
                std::max_element(srow, srow + sel.cols()) - srow);
            nextValue_[r] = eval(r, bestA);
        }
    } else if (useCache) {
        // The inference network is frozen between syncs and training
        // rounds resample the same ring heavily, so most rows' target
        // values were already computed this sync period. Evaluate
        // only the misses as one compact batch and scatter them into
        // the slot-indexed cache; the batched row kernels make each
        // row's result independent of batch composition, so a cache
        // hit is bit-identical to a fresh evaluation.
        // Sized from the buffer's actual capacity (which clamps a
        // zero config to 1), so slot indices always fit.
        nextValCache_.resize(buffer_.capacity(), 0.0f);
        nextValValid_.resize(buffer_.capacity(), 0);
        uncachedRows_.clear();
        for (std::size_t r = 0; r < batch; r++) {
            const std::size_t idx = indices[r];
            if (!nextValValid_[idx]) {
                nextValValid_[idx] = 2; // queued this batch
                uncachedRows_.push_back(idx);
            }
        }
        if (!uncachedRows_.empty()) {
            nextBatch_.resize(uncachedRows_.size(), cfg_.stateDim);
            for (std::size_t r = 0; r < uncachedRows_.size(); r++) {
                const Experience &e = buffer_[uncachedRows_[r]];
                std::copy(e.nextState.begin(), e.nextState.end(),
                          nextBatch_.row(r));
            }
            const ml::Matrix &nextQ = inferenceNet_->infer(nextBatch_);
            for (std::size_t r = 0; r < uncachedRows_.size(); r++) {
                const float *qrow = nextQ.row(r);
                const std::size_t idx = uncachedRows_[r];
                nextValCache_[idx] =
                    *std::max_element(qrow, qrow + nextQ.cols());
                nextValValid_[idx] = 1;
            }
        }
        for (std::size_t r = 0; r < batch; r++)
            nextValue_[r] = nextValCache_[indices[r]];
    } else {
        const ml::Matrix &nextQ = inferenceNet_->infer(nextBatch_);
        for (std::size_t r = 0; r < batch; r++) {
            const float *qrow = nextQ.row(r);
            nextValue_[r] = *std::max_element(qrow, qrow + nextQ.cols());
        }
    }

    // The state forward must come last so the training network's cached
    // batch intermediates belong to the samples we backpropagate.
    const ml::Matrix &out = trainingNet_->forward(stateBatch_);
    gradOutM_.resize(uRows, out.cols());
    gradOutM_.fill(0.0f);

    // PER importance weights come from the distribution the batch was
    // sampled under, before the per-element priority refreshes below.
    if (cfg_.prioritizedReplay)
        buffer_.importanceWeights(indices, cfg_.perAlpha, cfg_.perBeta,
                                  perWeights_);

    double totalLoss = 0.0;
    for (std::size_t r = 0; r < batch; r++) {
        const std::size_t idx = indices[r];
        const std::size_t ui = fold ? rowToUnique_[r] : r;
        const Experience &e = buffer_[idx];
        const float target =
            e.reward + static_cast<float>(cfg_.gamma) * nextValue_[r];
        const float diff = out(ui, e.action) - target;
        totalLoss += 0.5 * static_cast<double>(diff) * diff;

        float weight = 1.0f;
        if (cfg_.prioritizedReplay) {
            weight = static_cast<float>(perWeights_[r]);
            buffer_.setPriority(idx, std::abs(diff));
        }
        gradOutM_(ui, e.action) += diff * weight;
    }

    trainingNet_->backward(gradOutM_);
    stats_.gradientSteps += batch;
    optimizer_.step(*trainingNet_, batch);
    return totalLoss / static_cast<double>(batch);
}

double
DqnAgent::trainBatchPerSample(const std::vector<std::size_t> &indices)
{
    // Same sampling-time importance weights as the batched path, so
    // the two paths stay numerically equivalent.
    if (cfg_.prioritizedReplay)
        buffer_.importanceWeights(indices, cfg_.perAlpha, cfg_.perBeta,
                                  perWeights_);

    double totalLoss = 0.0;
    ml::Vector gradOut;
    for (std::size_t k = 0; k < indices.size(); k++) {
        const std::size_t idx = indices[k];
        const Experience *e = &buffer_[idx];

        // TD target from the (frozen) inference network. With Double
        // DQN the *training* network chooses the next action and the
        // inference network scores it, decoupling selection from
        // evaluation (van Hasselt et al., 2016).
        float nextValue;
        if (cfg_.doubleDqn) {
            const ml::Vector &sel = trainingNet_->forward(e->nextState);
            const auto bestA = static_cast<std::size_t>(
                std::max_element(sel.begin(), sel.end()) - sel.begin());
            const ml::Vector &eval =
                inferenceNet_->forward(e->nextState);
            nextValue = eval[bestA];
        } else {
            const ml::Vector &nextQ =
                inferenceNet_->forward(e->nextState);
            nextValue = *std::max_element(nextQ.begin(), nextQ.end());
        }
        const float target =
            e->reward + static_cast<float>(cfg_.gamma) * nextValue;

        // MSE on the taken action's Q-value only.
        const ml::Vector &out = trainingNet_->forward(e->state);
        const float pred = out[e->action];
        const float diff = pred - target;
        totalLoss += 0.5 * static_cast<double>(diff) * diff;

        float weight = 1.0f;
        if (cfg_.prioritizedReplay) {
            weight = static_cast<float>(perWeights_[k]);
            buffer_.setPriority(idx, std::abs(diff));
        }

        gradOut.assign(out.size(), 0.0f);
        gradOut[e->action] = diff * weight;
        trainingNet_->backward(gradOut);
        stats_.gradientSteps++;
    }
    optimizer_.step(*trainingNet_, indices.size());
    return totalLoss / static_cast<double>(indices.size());
}

void
DqnAgent::syncWeights()
{
    inferenceNet_->copyWeightsFrom(*trainingNet_);
    stats_.weightSyncs++;
    // The frozen network the cached Bellman targets came from is gone.
    std::fill(nextValValid_.begin(), nextValValid_.end(), 0);
}

std::size_t
DqnAgent::storageBytes() const
{
    const std::size_t nets = 2 * trainingNet_->paramCount() * 2;
    const std::size_t buffer = cfg_.bufferCapacity * 100 / 8;
    return nets + buffer;
}

} // namespace sibyl::rl
