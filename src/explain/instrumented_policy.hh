/**
 * @file
 * A transparent recording wrapper around SibylPolicy.
 *
 * Forwards every call unchanged while logging each decision — the
 * encoded observation, the chosen action and the serve outcome —
 * into an ActionLog, enabling the §9-style post-hoc analyses
 * (preference extraction, per-feature preference slicing, saliency
 * probing) without perturbing the policy under study.
 */

#pragma once

#include <memory>

#include "core/sibyl_policy.hh"
#include "explain/action_log.hh"

namespace sibyl::explain
{

/** SibylPolicy + decision recording. */
class InstrumentedSibyl : public policies::PlacementPolicy
{
  public:
    /**
     * @param cfg         Sibyl configuration (forwarded).
     * @param numDevices  Devices in the target system.
     * @param logCapacity Max decisions retained (oldest dropped).
     */
    InstrumentedSibyl(const core::SibylConfig &cfg,
                      std::uint32_t numDevices,
                      std::size_t logCapacity = 1 << 20);

    std::string name() const override { return "Sibyl (instrumented)"; }

    DeviceId selectPlacement(const hss::HybridSystem &sys,
                             const trace::Request &req,
                             std::size_t reqIndex) override;

    void observeOutcome(const hss::HybridSystem &sys,
                        const trace::Request &req, DeviceId action,
                        const hss::ServeResult &result) override;

    void reset() override;

    core::SibylPolicy &sibyl() { return *sibyl_; }
    const ActionLog &log() const { return log_; }

  private:
    std::unique_ptr<core::SibylPolicy> sibyl_;
    ActionLog log_;
    std::uint64_t reqIndex_ = 0;
    bool pending_ = false;
    DecisionRecord pendingRec_;
};

} // namespace sibyl::explain
