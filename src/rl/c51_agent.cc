#include "rl/c51_agent.hh"

#include <algorithm>

#include "ml/activations.hh"
#include "ml/loss.hh"

namespace sibyl::rl
{

C51Agent::C51Agent(const C51Config &cfg)
    : cfg_(cfg),
      support_(cfg.vmin, cfg.vmax, cfg.atoms),
      explore_(makeExploration(cfg)),
      rng_(cfg.seed, 0xA6E47),
      buffer_(cfg.bufferCapacity, cfg.dedupBuffer)
{
    std::vector<ml::LayerSpec> layers;
    for (auto h : cfg_.hidden)
        layers.push_back({h, ml::Activation::Swish});
    layers.push_back({static_cast<std::size_t>(cfg_.numActions) * cfg_.atoms,
                      ml::Activation::Identity});

    Pcg32 initRng(cfg.seed, 0x1217);
    trainingNet_ = std::make_unique<ml::Network>(cfg_.stateDim, layers,
                                                 initRng);
    Pcg32 initRng2(cfg.seed, 0x1218);
    inferenceNet_ = std::make_unique<ml::Network>(cfg_.stateDim, layers,
                                                  initRng2);
    inferenceNet_->copyWeightsFrom(*trainingNet_);

    if (cfg_.useAdam)
        optimizer_ = std::make_unique<ml::Adam>(cfg_.learningRate);
    else
        optimizer_ = std::make_unique<ml::Sgd>(cfg_.learningRate);
}

void
C51Agent::setLearningRate(double lr)
{
    cfg_.learningRate = lr;
    optimizer_->setLearningRate(lr);
}

void
C51Agent::extractActionDist(const float *out, std::uint32_t action,
                            std::uint32_t atoms, ml::Vector &dist)
{
    dist.assign(out + action * atoms, out + (action + 1) * atoms);
    ml::softmax(dist);
}

std::vector<double>
C51Agent::qValues(const ml::Vector &state)
{
    const float *out = inferenceNet_->inferRow(state);
    std::vector<double> q(cfg_.numActions);
    for (std::uint32_t a = 0; a < cfg_.numActions; a++) {
        extractActionDist(out, a, cfg_.atoms, rowDist_);
        q[a] = support_.expectation(rowDist_);
    }
    return q;
}

std::uint32_t
C51Agent::greedyFromRow(const float *out)
{
    // Per-row categorical expectation in reused scratch: softmax each
    // action's atom group, take its expectation over the support, and
    // keep the first maximum — the same winner std::max_element picks
    // over a materialized Q vector, without materializing one. With a
    // restricting action mask, masked actions are skipped; the allowed
    // actions keep the exact same expectations and tie-break order.
    const bool restricted = !maskCoversAll(actionMask_, cfg_.numActions);
    std::uint32_t bestA = restricted
        ? static_cast<std::uint32_t>(std::countr_zero(actionMask_))
        : 0;
    double bestQ = -1e300;
    for (std::uint32_t a = 0; a < cfg_.numActions; a++) {
        if (restricted && !(actionMask_ >> a & 1u))
            continue;
        extractActionDist(out, a, cfg_.atoms, rowDist_);
        const double q = support_.expectation(rowDist_);
        if (q > bestQ) {
            bestQ = q;
            bestA = a;
        }
    }
    return bestA;
}

std::uint32_t
C51Agent::greedyAction(const ml::Vector &state)
{
    return greedyFromRow(inferenceNet_->inferRow(state));
}

bool
C51Agent::selectActionBegin(const ml::Vector &state, std::uint32_t &action)
{
    const std::uint64_t step = stats_.decisions++;
    const bool restricted = !maskCoversAll(actionMask_, cfg_.numActions);
    if (explore_.isBoltzmann()) {
        // The Boltzmann draw's arguments depend on the Q row, so this
        // path cannot defer the network evaluation; resolve inline.
        const float *out = inferenceNet_->inferRow(state);
        if (restricted) {
            // Compact the allowed actions, sample over them, map the
            // sampled index back to an action id.
            const auto allowed = static_cast<std::uint32_t>(
                std::popcount(actionMask_));
            qScratch_.resize(allowed);
            for (std::uint32_t i = 0; i < allowed; i++) {
                extractActionDist(out, nthSetBit(actionMask_, i),
                                  cfg_.atoms, rowDist_);
                qScratch_[i] = support_.expectation(rowDist_);
            }
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
        qScratch_.resize(cfg_.numActions);
        for (std::uint32_t a = 0; a < cfg_.numActions; a++) {
            extractActionDist(out, a, cfg_.atoms, rowDist_);
            qScratch_[a] = support_.expectation(rowDist_);
        }
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
C51Agent::selectActionFromRow(const float *row)
{
    return greedyFromRow(row);
}

std::uint32_t
C51Agent::selectAction(const ml::Vector &state)
{
    std::uint32_t action = 0;
    if (selectActionBegin(state, action))
        return action;
    return selectActionFromRow(inferenceNet_->inferRow(state));
}

void
C51Agent::observe(Experience e)
{
    if (buffer_.add(std::move(e)) && !targetValid_.empty())
        targetValid_[buffer_.lastAddIndex()] = 0;
    afterObserve();
}

void
C51Agent::observeTransition(const ml::Vector &state, std::uint32_t action,
                            float reward, const ml::Vector &nextState)
{
    if (buffer_.add(state, action, reward, nextState) &&
        !targetValid_.empty()) {
        targetValid_[buffer_.lastAddIndex()] = 0;
    }
    afterObserve();
}

void
C51Agent::afterObserve()
{
    observations_++;

    // Train once the buffer has filled, then at every cadence boundary
    // (Algorithm 1, line 16; the paper's cadence is one buffer fill).
    std::uint64_t cadence =
        cfg_.trainEvery ? cfg_.trainEvery : cfg_.bufferCapacity;
    if (buffer_.full() && observations_ % cadence == 0)
        trainRound();
    // Copy training -> inference weights every targetSyncEvery requests
    // (§6.2.2: every 1000 requests).
    if (observations_ % cfg_.targetSyncEvery == 0 &&
        stats_.trainingRounds > 0)
        syncWeights();
}

double
C51Agent::trainRound()
{
    double loss = 0.0;
    for (std::uint32_t b = 0; b < cfg_.batchesPerTraining; b++)
        loss += trainBatch();
    stats_.trainingRounds++;
    const double prev = stats_.lastLoss;
    stats_.lastLoss = loss / std::max(1u, cfg_.batchesPerTraining);
    // VDBE feedback: the *change* in training loss proxies the
    // value-update magnitude. The raw cross-entropy cannot be used —
    // it has an irreducible entropy floor at convergence, so it would
    // keep epsilon pinned high forever; its round-to-round delta does
    // vanish once the distribution stops moving.
    explore_.observeValueDelta(stats_.lastLoss - prev);
    return stats_.lastLoss;
}

double
C51Agent::trainBatch()
{
    const auto indices = cfg_.prioritizedReplay
        ? buffer_.samplePrioritizedIndices(cfg_.batchSize, rng_,
                                           cfg_.perAlpha)
        : buffer_.sampleIndices(cfg_.batchSize, rng_);
    if (indices.empty())
        return 0.0;
    return cfg_.batchedTraining ? trainBatchBatched(indices)
                                : trainBatchPerSample(indices);
}

void
C51Agent::projectTargetFromRow(const float *nrow, float reward,
                               ml::Vector &dists, ml::Vector &target)
{
    // Greedy next action by distribution expectation. Softmax every
    // action group once into one scratch buffer; the winner's
    // distribution is then reused for the projection instead of
    // being recomputed.
    dists.assign(nrow, nrow + cfg_.numActions * cfg_.atoms);
    std::uint32_t bestA = 0;
    double bestQ = -1e30;
    for (std::uint32_t a = 0; a < cfg_.numActions; a++) {
        float *d = dists.data() + a * cfg_.atoms;
        ml::softmax(d, cfg_.atoms);
        const double q = support_.expectation(d);
        if (q > bestQ) {
            bestQ = q;
            bestA = a;
        }
    }
    support_.project(dists.data() + bestA * cfg_.atoms, reward, cfg_.gamma,
                     target);
}

double
C51Agent::trainBatchBatched(const std::vector<std::size_t> &indices)
{
    const std::size_t batch = indices.size();
    const bool useCache = cfg_.cacheNextValues;
    const bool fold = cfg_.foldDuplicateStates;

    // Duplicate-state folding, as in DqnAgent::trainBatchBatched
    // (see buildStateFoldMap in agent.hh).
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

    // Bellman targets from the *inference* network (frozen between
    // syncs, playing the target-network role). With the target cache
    // (the default), only entries not yet projected under the current
    // frozen weights run the batched forward + softmax + argmax +
    // projection; everything resampled since the last sync reuses its
    // slot in targetCache_ bit for bit (the batched row kernels make
    // each row independent of batch composition, and reward/gamma are
    // entry-fixed).
    ml::Vector dists, target, logits, gradLogits;
    const ml::Matrix *nextOut = nullptr;
    if (useCache) {
        // Sized from the buffer's actual capacity (which clamps a
        // zero config to 1), so slot indices always fit.
        targetCache_.resize(buffer_.capacity(), cfg_.atoms);
        targetValid_.resize(buffer_.capacity(), 0);
        uncachedRows_.clear();
        for (std::size_t r = 0; r < batch; r++) {
            const std::size_t idx = indices[r];
            if (!targetValid_[idx]) {
                targetValid_[idx] = 2; // queued this batch
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
            const ml::Matrix &fresh = inferenceNet_->infer(nextBatch_);
            for (std::size_t r = 0; r < uncachedRows_.size(); r++) {
                const std::size_t idx = uncachedRows_[r];
                projectTargetFromRow(fresh.row(r), buffer_[idx].reward,
                                     dists, target);
                std::copy(target.begin(), target.end(),
                          targetCache_.row(idx));
                targetValid_[idx] = 1;
            }
        }
    } else {
        nextOut = &inferenceNet_->infer(nextBatch_);
    }

    // The state forward through the training network comes last so its
    // cached batch intermediates are the ones the batched backward
    // consumes.
    const ml::Matrix &out = trainingNet_->forward(stateBatch_);
    gradOutM_.resize(uRows, out.cols());
    gradOutM_.fill(0.0f);

    // PER importance weights come from the distribution the batch was
    // sampled under, before the per-element priority refreshes below.
    std::vector<double> perWeights;
    if (cfg_.prioritizedReplay)
        perWeights = buffer_.importanceWeights(indices, cfg_.perAlpha,
                                               cfg_.perBeta);

    double totalLoss = 0.0;
    for (std::size_t r = 0; r < batch; r++) {
        const std::size_t idx = indices[r];
        const std::size_t ui = fold ? rowToUnique_[r] : r;
        const Experience &e = buffer_[idx];

        if (useCache) {
            const float *trow = targetCache_.row(idx);
            target.assign(trow, trow + cfg_.atoms);
        } else {
            projectTargetFromRow(nextOut->row(r), e.reward, dists, target);
        }

        // Cross-entropy between the projected target and the training
        // network's prediction for the taken action; gradient flows only
        // through that action's atom group.
        logits.assign(out.row(ui) + e.action * cfg_.atoms,
                      out.row(ui) + (e.action + 1) * cfg_.atoms);
        const double loss =
            ml::softmaxCrossEntropy(logits, target, gradLogits);
        totalLoss += loss;

        float weight = 1.0f;
        if (cfg_.prioritizedReplay) {
            weight = static_cast<float>(perWeights[r]);
            buffer_.setPriority(idx, static_cast<float>(loss));
        }

        float *grow = gradOutM_.row(ui);
        for (std::size_t k = 0; k < gradLogits.size(); k++)
            grow[e.action * cfg_.atoms + k] += gradLogits[k] * weight;
    }

    trainingNet_->backward(gradOutM_);
    stats_.gradientSteps += batch;
    optimizer_->step(*trainingNet_, batch);
    return totalLoss / static_cast<double>(batch);
}

double
C51Agent::trainBatchPerSample(const std::vector<std::size_t> &indices)
{
    // Same sampling-time importance weights as the batched path, so
    // the two paths stay numerically equivalent.
    std::vector<double> perWeights;
    if (cfg_.prioritizedReplay)
        perWeights = buffer_.importanceWeights(indices, cfg_.perAlpha,
                                               cfg_.perBeta);

    double totalLoss = 0.0;
    ml::Vector nextDist, target, gradOut;
    for (std::size_t k = 0; k < indices.size(); k++) {
        const std::size_t idx = indices[k];
        const Experience *e = &buffer_[idx];
        // Bellman target from the *inference* network (frozen between
        // syncs, playing the target-network role): distribution of the
        // greedy next action.
        const ml::Vector &nextOut = inferenceNet_->forward(e->nextState);
        std::uint32_t bestA = 0;
        double bestQ = -1e30;
        for (std::uint32_t a = 0; a < cfg_.numActions; a++) {
            extractActionDist(nextOut.data(), a, cfg_.atoms, nextDist);
            double q = support_.expectation(nextDist);
            if (q > bestQ) {
                bestQ = q;
                bestA = a;
            }
        }
        extractActionDist(nextOut.data(), bestA, cfg_.atoms, nextDist);
        support_.project(nextDist, e->reward, cfg_.gamma, target);

        // Cross-entropy between the projected target and the training
        // network's prediction for the taken action; gradient flows only
        // through that action's atom group.
        const ml::Vector &out = trainingNet_->forward(e->state);
        ml::Vector logits(out.begin() + e->action * cfg_.atoms,
                          out.begin() + (e->action + 1) * cfg_.atoms);
        ml::Vector gradLogits;
        const double loss =
            ml::softmaxCrossEntropy(logits, target, gradLogits);
        totalLoss += loss;

        float weight = 1.0f;
        if (cfg_.prioritizedReplay) {
            // Importance-sample to correct the prioritization bias and
            // refresh the entry's priority with its latest loss.
            weight = static_cast<float>(perWeights[k]);
            buffer_.setPriority(idx, static_cast<float>(loss));
        }

        gradOut.assign(out.size(), 0.0f);
        for (std::size_t k = 0; k < gradLogits.size(); k++)
            gradOut[e->action * cfg_.atoms + k] = gradLogits[k] * weight;
        trainingNet_->backward(gradOut);
        stats_.gradientSteps++;
    }
    optimizer_->step(*trainingNet_, indices.size());
    return totalLoss / static_cast<double>(indices.size());
}

void
C51Agent::syncWeights()
{
    inferenceNet_->copyWeightsFrom(*trainingNet_);
    stats_.weightSyncs++;
    // The frozen network the cached projected targets came from is
    // gone.
    std::fill(targetValid_.begin(), targetValid_.end(), 0);
}

std::size_t
C51Agent::storageBytes() const
{
    // Two fp16 networks (§10.2) plus the replay buffer at 100 bits per
    // experience (40-bit state + 4-bit action + 16-bit reward + 40-bit
    // next state).
    const std::size_t nets = 2 * trainingNet_->paramCount() * 2;
    const std::size_t buffer = cfg_.bufferCapacity * 100 / 8;
    return nets + buffer;
}

} // namespace sibyl::rl
