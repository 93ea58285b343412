/**
 * @file
 * Multi-tenant fleet serving.
 *
 * The paper evaluates one trace against one HSS instance per run; the
 * fleet runner scales that shape toward the ROADMAP's "heavy traffic
 * from millions of users" north star: one run hosts N tenants, each
 * with its own device stack, its own placement policy (and RL agent),
 * and its own trace, interleaved by a trace::TraceMultiplexer into one
 * global arrival schedule.
 *
 * ## Tenant RNG-derivation rule
 *
 * Per-tenant streams must not depend on which *other* tenants share
 * the fleet (adding tenant j must leave tenant i's trajectory
 * bit-identical), so they are NOT derived from the fleet's own run key
 * — that key hashes the whole composition. Instead each tenant gets a
 * private pseudo-run key: the ParallelRunner::runKey() of a
 * single-tenant RunSpec carrying the tenant's (policy, workload,
 * traceLen, traceSeed, timeCompress) plus the fleet's shared
 * (hssConfig, fastCapacityFrac, seed, sim) fields, with variantTag
 * "fleet-tenant:<index>" so two identical tenants in one fleet still
 * own distinct streams. Device-jitter and agent seeds then derive from
 * that key via the usual deriveStream() salts. Consequences:
 *
 *  - appending a tenant never perturbs existing tenants' results;
 *  - a tenant's streams are a pure function of its own config, its
 *    index, and the fleet-shared fields — never of thread count or
 *    scheduling, so a fleet run is bit-identical at any thread count
 *    (numThreads=1 walks the multiplexed schedule serially and is the
 *    oracle the determinism tests compare against).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "device/fault_model.hh"
#include "sim/experiment.hh"

namespace sibyl::trace
{
class TraceCache;
}

namespace sibyl::sim
{

struct RunSpec; // sim/parallel_runner.hh

/** One tenant of a fleet run: its policy and its trace shape. The
 *  device stack (hssConfig, fastCapacityFrac), experiment seed, and
 *  sim knobs are fleet-shared and come from the owning RunSpec. */
struct FleetTenant
{
    /** Policy descriptor understood by makePolicy(). */
    std::string policy = "Sibyl";

    /** Workload profile name — or mix name when `mixedWorkload`. */
    std::string workload = "prxy_1";
    bool mixedWorkload = false;

    /** Trace shape: request count (0 = inherit the fleet RunSpec's
     *  traceLen, which may itself be 0 = generator default), generator
     *  seed (0 = per-workload default), time compression. */
    std::size_t traceLen = 0;
    std::uint64_t traceSeed = 0;
    double timeCompress = 1.0;

    /** Per-tenant fault injection: `faults` is installed on device
     *  `faultDevice` of THIS tenant's private stack (after the fleet
     *  spec's specTweak, which applies to every tenant). Default = no
     *  faults. A faulted tenant's identity (and therefore its RNG
     *  streams) folds device::faultConfigCanonical() into the tenant
     *  variant tag; fault-free tenants keep their historical identity,
     *  and the tenant RNG-derivation rule keeps every *other* tenant's
     *  trajectory bit-identical when one tenant's stack fails. */
    std::uint32_t faultDevice = 0;
    device::FaultConfig faults;

    /** True when this tenant configures any fault mechanism. */
    bool faultsConfigured() const
    {
        return faults.enabled() || faults.hardFaultsEnabled();
    }
};

/** Immutable description of a fleet run's tenant set. */
struct FleetSpec
{
    std::vector<FleetTenant> tenants;

    /** Canonical composition string folded into the fleet run key:
     *  per-tenant "policyIdentity|traceKeyCanonical" joined with ';'.
     *  Frozen byte format — changing it moves every fleet run onto
     *  different RNG streams (treat like the run-key format). */
    std::string canonical() const;
};

/**
 * Execute the fleet run described by @p spec (spec.fleet must be set).
 *
 * Each tenant is constructed deterministically (trace via @p traces,
 * system + policy seeded per the tenant RNG-derivation rule above),
 * then all tenants are stepped through their requests: serially in
 * multiplexer order when @p numThreads <= 1 (the oracle), or sharded
 * one-tenant-per-task via ThreadPool::parallelFor otherwise. Tenants
 * share no mutable state, so both paths produce bit-identical results.
 *
 * The returned PolicyResult carries fleet aggregates in `metrics`
 * (latency stats merged across tenants, IOPS over the fleet-wide
 * makespan, summed counters), per-tenant slices in `tenants`, and the
 * Jain fairness index over per-tenant IOPS in `fairnessJain`.
 * Normalized metrics are 0 — there is no Fast-Only divisor for a
 * heterogeneous fleet.
 *
 * The `bool` argument is ignored (seeds are always derived as above);
 * it is kept only for source compatibility with existing callers.
 */
PolicyResult runFleetExperiment(const RunSpec &spec,
                                trace::TraceCache &traces,
                                bool deriveRunSeeds, unsigned numThreads);

/** Jain fairness index (sum x)^2 / (N * sum x^2) over @p xs; 1.0 for
 *  an empty or all-zero vector (a degenerate fleet is trivially fair). */
double jainFairnessIndex(const std::vector<double> &xs);

} // namespace sibyl::sim
