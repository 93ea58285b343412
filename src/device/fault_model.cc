#include "device/fault_model.hh"

#include <cmath>
#include <cstdio>
#include <string>

#include "common/logging.hh"

namespace sibyl::device
{

bool
FaultConfig::enabled() const
{
    return readErrorProb > 0.0 || writeErrorProb > 0.0 || !windows.empty();
}

bool
FaultConfig::hardFaultsEnabled() const
{
    return !offlineWindows.empty() || failAtUs >= 0.0 ||
           failOnUnrecoverable;
}

namespace
{

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

std::string
validateWindow(const DegradedWindow &w)
{
    // Explicit finiteness checks first: NaN compares false against
    // everything, so "startUs < endUs" alone would wave NaN through.
    if (!std::isfinite(w.startUs) || !std::isfinite(w.endUs))
        return "window bounds must be finite (got [" + num(w.startUs) +
               ", " + num(w.endUs) + "))";
    if (w.endUs <= w.startUs)
        return "window must end after it starts (got [" +
               num(w.startUs) + ", " + num(w.endUs) + "))";
    // The runtime FaultModel aborts on multiplier <= 0; reject the
    // same set here so a bad scenario is a diagnostic, not an abort.
    if (!std::isfinite(w.latencyMultiplier) || w.latencyMultiplier <= 0.0)
        return "latencyMultiplier must be finite and > 0 (got " +
               num(w.latencyMultiplier) + ")";
    return "";
}

std::string
validateWindow(const OfflineWindow &w)
{
    if (!std::isfinite(w.startUs) || !std::isfinite(w.endUs))
        return "window bounds must be finite (got [" + num(w.startUs) +
               ", " + num(w.endUs) + "))";
    if (w.endUs <= w.startUs)
        return "window must end after it starts (got [" +
               num(w.startUs) + ", " + num(w.endUs) + "))";
    return "";
}

std::string
validateFaultConfig(const FaultConfig &cfg)
{
    const auto prob = [](const char *name, double p) -> std::string {
        if (std::isnan(p) || p < 0.0 || p > 1.0)
            return std::string(name) + " must be in [0, 1] (got " +
                   num(p) + ")";
        return "";
    };
    std::string err = prob("readErrorProb", cfg.readErrorProb);
    if (err.empty())
        err = prob("writeErrorProb", cfg.writeErrorProb);
    if (!err.empty())
        return err;
    if (!std::isfinite(cfg.retryMultiplier) || cfg.retryMultiplier < 0.0)
        return "retryMultiplier must be finite and >= 0 (got " +
               num(cfg.retryMultiplier) + ")";
    if (!std::isfinite(cfg.recoveryUs) || cfg.recoveryUs < 0.0)
        return "recoveryUs must be finite and >= 0 (got " +
               num(cfg.recoveryUs) + ")";
    for (std::size_t i = 0; i < cfg.windows.size(); i++) {
        err = validateWindow(cfg.windows[i]);
        if (!err.empty())
            return "windows[" + std::to_string(i) + "]: " + err;
    }
    for (std::size_t i = 0; i < cfg.offlineWindows.size(); i++) {
        err = validateWindow(cfg.offlineWindows[i]);
        if (!err.empty())
            return "offlineWindows[" + std::to_string(i) + "]: " + err;
        // Overlap check against every earlier window (outages either
        // hold or they don't; two live outages would double-count the
        // unavailability). Quadratic, but offline sets are tiny.
        for (std::size_t j = 0; j < i; j++) {
            const OfflineWindow &a = cfg.offlineWindows[j];
            const OfflineWindow &b = cfg.offlineWindows[i];
            if (a.startUs < b.endUs && b.startUs < a.endUs)
                return "offlineWindows[" + std::to_string(i) +
                       "]: overlaps offlineWindows[" +
                       std::to_string(j) + "] ([" + num(b.startUs) +
                       ", " + num(b.endUs) + ") vs [" +
                       num(a.startUs) + ", " + num(a.endUs) + "))";
        }
    }
    // NaN never satisfies `>= 0`, so it would silently mean "never
    // fails" — reject it as the user error it is.
    if (std::isnan(cfg.failAtUs))
        return "failAtUs must not be NaN (negative = never fails)";
    if (cfg.failAtUs >= 0.0) {
        for (std::size_t i = 0; i < cfg.offlineWindows.size(); i++) {
            const OfflineWindow &w = cfg.offlineWindows[i];
            if (cfg.failAtUs >= w.startUs && cfg.failAtUs < w.endUs)
                return "failAtUs (" + num(cfg.failAtUs) +
                       ") lies inside offlineWindows[" +
                       std::to_string(i) + "] [" + num(w.startUs) +
                       ", " + num(w.endUs) +
                       ") — a device cannot permanently fail while "
                       "already offline";
        }
    }
    if (!std::isfinite(cfg.drainPagesPerMs) || cfg.drainPagesPerMs < 0.0)
        return "drainPagesPerMs must be finite and >= 0 (got " +
               num(cfg.drainPagesPerMs) + ")";
    if (!std::isfinite(cfg.failoverTimeoutUs) ||
        cfg.failoverTimeoutUs < 0.0)
        return "failoverTimeoutUs must be finite and >= 0 (got " +
               num(cfg.failoverTimeoutUs) + ")";
    return "";
}

std::string
faultConfigCanonical(const FaultConfig &cfg)
{
    if (!cfg.enabled() && !cfg.hardFaultsEnabled())
        return "";
    std::string s = "rp=" + num(cfg.readErrorProb) +
                    ",wp=" + num(cfg.writeErrorProb) +
                    ",mr=" + std::to_string(cfg.maxRetries) +
                    ",rm=" + num(cfg.retryMultiplier) +
                    ",rec=" + num(cfg.recoveryUs);
    for (const auto &w : cfg.windows)
        s += ",deg=" + num(w.startUs) + ":" + num(w.endUs) + ":" +
             num(w.latencyMultiplier);
    for (const auto &w : cfg.offlineWindows)
        s += ",off=" + num(w.startUs) + ":" + num(w.endUs);
    if (cfg.failAtUs >= 0.0)
        s += ",failAt=" + num(cfg.failAtUs);
    if (cfg.failOnUnrecoverable)
        s += ",founr=1";
    if (cfg.drainPagesPerMs != 0.0)
        s += ",drain=" + num(cfg.drainPagesPerMs);
    if (cfg.failoverTimeoutUs != 5000.0)
        s += ",fot=" + num(cfg.failoverTimeoutUs);
    return s;
}

FaultModel::FaultModel(FaultConfig cfg) : cfg_(std::move(cfg))
{
    // One source of truth with the scenario-lowering validation: the
    // old ad-hoc range checks here waved NaN probabilities through
    // (NaN compares false against every bound).
    const std::string err = validateFaultConfig(cfg_);
    if (!err.empty())
        fatal("FaultModel: " + err);
}

double
FaultModel::degradationMultiplier(SimTime startUs)
{
    double mult = 1.0;
    for (const auto &w : cfg_.windows) {
        if (startUs >= w.startUs && startUs < w.endUs)
            mult *= w.latencyMultiplier;
    }
    if (mult != 1.0)
        counters_.degradedOps++;
    return mult;
}

double
FaultModel::errorLatencyUs(OpType op, double baseCommandUs, Pcg32 &rng)
{
    const double prob =
        op == OpType::Read ? cfg_.readErrorProb : cfg_.writeErrorProb;
    lastExhausted_ = false;
    if (prob <= 0.0)
        return 0.0;

    double extra = 0.0;
    std::uint32_t attempts = 0;
    while (attempts < cfg_.maxRetries && rng.nextBool(prob)) {
        attempts++;
        extra += cfg_.retryMultiplier * baseCommandUs;
    }
    if (attempts > 0) {
        counters_.erroredOps++;
        counters_.retries += attempts;
        if (attempts == cfg_.maxRetries) {
            // Every retry failed: heroic recovery, then success —
            // unless the config escalates unrecoverable ops to a
            // permanent device failure (the owner checks the flag).
            counters_.recoveries++;
            extra += cfg_.recoveryUs;
            lastExhausted_ = true;
        }
    }
    counters_.errorLatencyUs += extra;
    return extra;
}

} // namespace sibyl::device
