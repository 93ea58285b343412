#include "rl/c51_agent.hh"

#include <algorithm>
#include <cassert>

#include "ml/loss.hh"

namespace sibyl::rl
{

C51Agent::C51Agent(const C51Config &cfg)
    : cfg_(cfg),
      support_(cfg.vmin, cfg.vmax, cfg.atoms),
      explore_(makeExploration(cfg)),
      rng_(cfg.seed, 0xA6E47),
      buffer_(cfg.bufferCapacity, cfg.dedupBuffer),
      optimizer_(cfg.learningRate)
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

    decodeProbs_.resize(static_cast<std::size_t>(cfg_.numActions) *
                        cfg_.atoms);
    decodeQ_.resize(cfg_.numActions);
    const std::size_t memoRows = std::min<std::size_t>(
        cfg_.targetSyncEvery, kDecisionMemoRows);
    decisionMemo_.allocate(memoRows, cfg_.stateDim);
    decisionActions_.resize(decisionMemo_.capacity());
}

void
C51Agent::setLearningRate(double lr)
{
    cfg_.learningRate = lr;
    optimizer_.setLearningRate(lr);
}

void
C51Agent::decodeRow(const float *out)
{
    support_.decode(out, cfg_.numActions, decodeProbs_.data(),
                    decodeQ_.data());
}

std::vector<double>
C51Agent::qValues(const ml::Vector &state)
{
    decodeRow(inferenceNet_->inferRow(state));
    return decodeQ_;
}

std::uint32_t
C51Agent::greedyFromRow(const float *out)
{
    // Keep the first maximum — the same winner std::max_element picks
    // over the Q vector. With a restricting action mask, masked
    // actions are skipped; the allowed actions keep the exact same
    // expectations and tie-break order.
    decodeRow(out);
    const bool restricted = !maskCoversAll(actionMask_, cfg_.numActions);
    std::uint32_t bestA = restricted
        ? static_cast<std::uint32_t>(std::countr_zero(actionMask_))
        : 0;
    double bestQ = -1e300;
    for (std::uint32_t a = 0; a < cfg_.numActions; a++) {
        if (restricted && !(actionMask_ >> a & 1u))
            continue;
        if (decodeQ_[a] > bestQ) {
            bestQ = decodeQ_[a];
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
        decodeRow(inferenceNet_->inferRow(state));
        if (restricted) {
            // Compact the allowed actions, sample over them, map the
            // sampled index back to an action id.
            const auto allowed = static_cast<std::uint32_t>(
                std::popcount(actionMask_));
            qScratch_.resize(allowed);
            for (std::uint32_t i = 0; i < allowed; i++)
                qScratch_[i] = decodeQ_[nthSetBit(actionMask_, i)];
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
        const auto greedy = static_cast<std::uint32_t>(
            std::max_element(decodeQ_.begin(), decodeQ_.end()) -
            decodeQ_.begin());
        action = explore_.sampleBoltzmann(decodeQ_, rng_);
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
    if (restricted)
        return false; // greedy: caller evaluates the inference row

    // Greedy under the full mask: answer a repeat from the decision
    // memo, else give the observation a row for FromRow to fill.
    assert(state.size() == cfg_.stateDim);
    ObservationTable::Probe p = decisionMemo_.find(state.data());
    if (p.row != ObservationTable::kNone) {
        action = decisionActions_[p.row];
        stats_.decisionMemoHits++;
        return true;
    }
    if (decisionMemo_.full()) {
        decisionMemo_.clear(); // exact: it only recomputes
        p = decisionMemo_.find(state.data());
    }
    pendingDecision_ = decisionMemo_.insert(p, state.data());
    return false; // caller evaluates the inference network row
}

std::uint32_t
C51Agent::selectActionFromRow(const float *row)
{
    const std::uint32_t action = greedyFromRow(row);
    if (pendingDecision_ != ObservationTable::kNone) {
        decisionActions_[pendingDecision_] =
            static_cast<std::uint8_t>(action);
        pendingDecision_ = ObservationTable::kNone;
    }
    return action;
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

void
C51Agent::greedyNextDist(const float *nrow, float *dist)
{
    // Greedy next action by distribution expectation; the winner's
    // decoded distribution is copied out instead of being recomputed.
    decodeRow(nrow);
    std::uint32_t bestA = 0;
    double bestQ = -1e30;
    for (std::uint32_t a = 0; a < cfg_.numActions; a++) {
        if (decodeQ_[a] > bestQ) {
            bestQ = decodeQ_[a];
            bestA = a;
        }
    }
    const float *win = decodeProbs_.data() + bestA * cfg_.atoms;
    std::copy(win, win + cfg_.atoms, dist);
}

void
C51Agent::refreshCachedTargets(const std::vector<std::size_t> &indices)
{
    // Sized from the buffer's actual capacity (which clamps a zero
    // config to 1), so slot indices always fit.
    const std::size_t cap = buffer_.capacity();
    if (targetValid_.size() != cap) {
        targetCache_.resize(cap, cfg_.atoms);
        targetValid_.assign(cap, 0);
        memoDist_ =
            std::make_unique_for_overwrite<float[]>(cap * cfg_.atoms);
        nextMemo_.allocate(cap, cfg_.stateDim);
    }
    uncachedRows_.clear();
    for (const std::size_t idx : indices) {
        if (!targetValid_[idx]) {
            targetValid_[idx] = 2; // queued this batch
            uncachedRows_.push_back(idx);
        }
    }
    if (uncachedRows_.empty())
        return;

    // Map each uncached entry to the memo slot of its next state.
    // Distinct observations per sync period can outgrow the flat
    // store (the ring turns over between syncs); starting the memo
    // over is exact, it only recomputes. The uncached entries are
    // distinct ring slots, so they always fit a fresh memo.
    if (nextMemo_.size() + uncachedRows_.size() > cap)
        nextMemo_.clear();
    const std::size_t dim = cfg_.stateDim;
    const std::size_t atoms = cfg_.atoms;
    memoMisses_.clear();
    entrySlot_.resize(uncachedRows_.size());
    for (std::size_t u = 0; u < uncachedRows_.size(); u++) {
        const ml::Vector &ns = buffer_[uncachedRows_[u]].nextState;
        assert(ns.size() == dim);
        ObservationTable::Probe p = nextMemo_.find(ns.data());
        if (p.row == ObservationTable::kNone) {
            p.row = nextMemo_.insert(p, ns.data());
            memoMisses_.push_back(p.row);
        }
        entrySlot_[u] = p.row;
    }

    // One batched forward over the next states not seen since the
    // sync; rows are composition-independent, so each stored
    // distribution equals a fresh evaluation bit for bit.
    if (!memoMisses_.empty()) {
        nextBatch_.resize(memoMisses_.size(), dim);
        for (std::size_t m = 0; m < memoMisses_.size(); m++) {
            const float *obs = nextMemo_.observation(memoMisses_[m]);
            std::copy(obs, obs + dim, nextBatch_.row(m));
        }
        const ml::Matrix &fresh = inferenceNet_->infer(nextBatch_);
        for (std::size_t m = 0; m < memoMisses_.size(); m++)
            greedyNextDist(fresh.row(m),
                           memoDist_.get() + memoMisses_[m] * atoms);
    }
    for (std::size_t u = 0; u < uncachedRows_.size(); u++) {
        const std::size_t idx = uncachedRows_[u];
        support_.project(memoDist_.get() + entrySlot_[u] * atoms,
                         buffer_[idx].reward, cfg_.gamma,
                         targetCache_.row(idx));
        targetValid_[idx] = 1;
    }
}

double
C51Agent::trainBatchBatched(const std::vector<std::size_t> &indices)
{
    const std::size_t batch = indices.size();
    const bool useCache = cfg_.cacheNextValues;
    const bool fold = cfg_.foldDuplicateStates;
    const std::uint32_t atoms = cfg_.atoms;

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

    // Bellman targets from the *inference* network (frozen between
    // syncs, playing the target-network role). With the target cache
    // (the default), only entries not yet projected under the current
    // frozen weights are projected, and only their next states not
    // yet evaluated this sync period run the forward + softmax +
    // argmax; everything else reuses its cached bits.
    targetRows_.resize(batch);
    if (useCache) {
        refreshCachedTargets(indices);
        for (std::size_t r = 0; r < batch; r++)
            targetRows_[r] = targetCache_.row(indices[r]);
    } else {
        nextBatch_.resize(batch, cfg_.stateDim);
        for (std::size_t r = 0; r < batch; r++) {
            const Experience &e = buffer_[indices[r]];
            std::copy(e.nextState.begin(), e.nextState.end(),
                      nextBatch_.row(r));
        }
        const ml::Matrix &nextOut = inferenceNet_->infer(nextBatch_);
        freshTargets_.resize(batch, atoms);
        rowDist_.resize(atoms);
        for (std::size_t r = 0; r < batch; r++) {
            greedyNextDist(nextOut.row(r), rowDist_.data());
            support_.project(rowDist_.data(), buffer_[indices[r]].reward,
                             cfg_.gamma, freshTargets_.row(r));
            targetRows_[r] = freshTargets_.row(r);
        }
    }

    // The state forward through the training network comes last so its
    // cached batch intermediates are the ones the batched backward
    // consumes.
    const ml::Matrix &out = trainingNet_->forward(stateBatch_);
    gradOutM_.resize(uRows, out.cols());
    gradOutM_.fill(0.0f);

    // PER importance weights come from the distribution the batch was
    // sampled under, before the per-element priority refreshes below.
    rowWeight_.assign(batch, 1.0f);
    if (cfg_.prioritizedReplay) {
        buffer_.importanceWeights(indices, cfg_.perAlpha, cfg_.perBeta,
                                  perWeights_);
        for (std::size_t r = 0; r < batch; r++)
            rowWeight_[r] = static_cast<float>(perWeights_[r]);
    }

    // Cross-entropy between the projected target and the training
    // network's prediction for the taken action, all rows at once;
    // the weighted gradient flows only into that action's atom group.
    logitRows_.resize(batch);
    gradRows_.resize(batch);
    for (std::size_t r = 0; r < batch; r++) {
        const std::size_t ui = fold ? rowToUnique_[r] : r;
        const std::size_t off = buffer_[indices[r]].action * atoms;
        logitRows_[r] = out.row(ui) + off;
        gradRows_[r] = gradOutM_.row(ui) + off;
    }
    rowLoss_.resize(batch);
    ml::softmaxCrossEntropyRows(logitRows_.data(), targetRows_.data(),
                                rowWeight_.data(), gradRows_.data(), batch,
                                atoms, rowLoss_.data(), lossTile_);

    double totalLoss = 0.0;
    for (std::size_t r = 0; r < batch; r++) {
        const double loss = rowLoss_[r];
        totalLoss += loss;
        if (cfg_.prioritizedReplay)
            buffer_.setPriority(indices[r], static_cast<float>(loss));
    }

    trainingNet_->backward(gradOutM_);
    stats_.gradientSteps += batch;
    optimizer_.step(*trainingNet_, batch);
    return totalLoss / static_cast<double>(batch);
}

double
C51Agent::trainBatchPerSample(const std::vector<std::size_t> &indices)
{
    // Same sampling-time importance weights as the batched path, so
    // the two paths stay numerically equivalent.
    if (cfg_.prioritizedReplay)
        buffer_.importanceWeights(indices, cfg_.perAlpha, cfg_.perBeta,
                                  perWeights_);

    double totalLoss = 0.0;
    ml::Vector nextDist, target, gradOut;
    for (std::size_t k = 0; k < indices.size(); k++) {
        const std::size_t idx = indices[k];
        const Experience *e = &buffer_[idx];
        // Bellman target from the *inference* network (frozen between
        // syncs, playing the target-network role): distribution of the
        // greedy next action.
        const ml::Vector &nextOut = inferenceNet_->forward(e->nextState);
        nextDist.resize(cfg_.atoms);
        greedyNextDist(nextOut.data(), nextDist.data());
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
            weight = static_cast<float>(perWeights_[k]);
            buffer_.setPriority(idx, static_cast<float>(loss));
        }

        gradOut.assign(out.size(), 0.0f);
        for (std::size_t k = 0; k < gradLogits.size(); k++)
            gradOut[e->action * cfg_.atoms + k] = gradLogits[k] * weight;
        trainingNet_->backward(gradOut);
        stats_.gradientSteps++;
    }
    optimizer_.step(*trainingNet_, indices.size());
    return totalLoss / static_cast<double>(indices.size());
}

void
C51Agent::syncWeights()
{
    inferenceNet_->copyWeightsFrom(*trainingNet_);
    stats_.weightSyncs++;
    // The frozen network the cached projected targets, next-state
    // distributions and greedy decisions came from is gone.
    std::fill(targetValid_.begin(), targetValid_.end(), 0);
    nextMemo_.clear();
    decisionMemo_.clear();
    pendingDecision_ = ObservationTable::kNone;
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
