#include "policies/archivist.hh"

#include <cmath>

#include "ml/loss.hh"

namespace sibyl::policies
{

ArchivistPolicy::ArchivistPolicy(const ArchivistConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed, 0xA2C41), opt_(cfg.learningRate)
{
    std::vector<ml::LayerSpec> layers = {
        {cfg_.hiddenNeurons, ml::Activation::ReLU},
        {cfg_.hiddenNeurons, ml::Activation::ReLU},
        {1, ml::Activation::Identity}, // logit
    };
    net_ = std::make_unique<ml::Network>(4, layers, rng_);
}

ml::Vector
ArchivistPolicy::makeFeatures(const hss::HybridSystem &sys,
                              const trace::Request &req) const
{
    auto logNorm = [](double v, double scale) {
        return static_cast<float>(std::log2(v + 1.0) / scale);
    };
    return {
        logNorm(req.sizePages, 7.0),                     // up to 128 pages
        req.op == OpType::Write ? 1.0f : 0.0f,           // type
        logNorm(static_cast<double>(sys.accessCount(req.page)), 16.0),
        logNorm(static_cast<double>(sys.accessInterval(req.page)), 24.0),
    };
}

DeviceId
ArchivistPolicy::selectPlacement(const hss::HybridSystem &sys,
                                 const trace::Request &req,
                                 std::size_t reqIndex)
{
    const DeviceId fast = 0;
    const DeviceId slow = sys.numDevices() - 1;

    if (reqIndex != 0 && reqIndex % cfg_.epochLength == 0)
        rotateEpoch();

    ml::Vector feats = makeFeatures(sys, req);
    epochSamples_.push_back({feats, req.page});
    epochCount_[req.page]++;

    if (!trained_)
        return slow; // no classifier yet: be conservative

    const ml::Vector &out = net_->forward(feats);
    return out[0] > 0.0f ? fast : slow; // logit > 0 <=> p(hot) > 0.5
}

void
ArchivistPolicy::rotateEpoch()
{
    if (epochSamples_.empty())
        return;
    // Label each recorded request by whether its page turned out hot
    // during the epoch, then fit the classifier.
    for (std::uint32_t pass = 0; pass < cfg_.trainPasses; pass++) {
        for (const auto &s : epochSamples_) {
            float label =
                epochCount_[s.page] >= cfg_.hotThreshold ? 1.0f : 0.0f;
            const ml::Vector &out = net_->forward(s.features);
            float gradLogit = 0.0f;
            ml::binaryCrossEntropy(out[0], label, gradLogit);
            net_->backward({gradLogit});
            opt_.step(*net_, 1);
        }
    }
    trained_ = true;
    epochSamples_.clear();
    epochCount_.clear();
}

void
ArchivistPolicy::reset()
{
    epochSamples_.clear();
    epochCount_.clear();
    trained_ = false;
    Pcg32 initRng(cfg_.seed, 0xA2C41);
    std::vector<ml::LayerSpec> layers = {
        {cfg_.hiddenNeurons, ml::Activation::ReLU},
        {cfg_.hiddenNeurons, ml::Activation::ReLU},
        {1, ml::Activation::Identity},
    };
    net_ = std::make_unique<ml::Network>(4, layers, initRng);
    opt_ = ml::Adam(cfg_.learningRate);
}

} // namespace sibyl::policies
