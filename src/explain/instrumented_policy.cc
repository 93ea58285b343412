#include "explain/instrumented_policy.hh"

namespace sibyl::explain
{

InstrumentedSibyl::InstrumentedSibyl(const core::SibylConfig &cfg,
                                     std::uint32_t numDevices,
                                     std::size_t logCapacity)
    : sibyl_(std::make_unique<core::SibylPolicy>(cfg, numDevices)),
      log_(logCapacity)
{
}

DeviceId
InstrumentedSibyl::selectPlacement(const hss::HybridSystem &sys,
                                   const trace::Request &req,
                                   std::size_t reqIndex)
{
    // Encode the same pre-action observation Sibyl sees (the encoder
    // is deterministic, so this matches the policy's own input).
    DecisionRecord rec;
    rec.reqIndex = reqIndex_++;
    rec.state = sibyl_->encoder().encode(sys, req);

    const DeviceId action = sibyl_->selectPlacement(sys, req, reqIndex);
    rec.action = action;
    pendingRec_ = std::move(rec);
    pending_ = true;
    return action;
}

void
InstrumentedSibyl::observeOutcome(const hss::HybridSystem &sys,
                                  const trace::Request &req,
                                  DeviceId action,
                                  const hss::ServeResult &result)
{
    sibyl_->observeOutcome(sys, req, action, result);
    if (pending_) {
        pendingRec_.eviction = result.eviction;
        pendingRec_.latencyUs = result.latencyUs;
        log_.record(std::move(pendingRec_));
        pending_ = false;
    }
}

void
InstrumentedSibyl::reset()
{
    sibyl_->reset();
    log_.clear();
    reqIndex_ = 0;
    pending_ = false;
}

} // namespace sibyl::explain
