/**
 * @file
 * Parallel experiment orchestration.
 *
 * Shards a batch of RunSpecs (typically one scenario::ScenarioSpec
 * grid: policies x workloads x HSS configs x seeds) across cores: each
 * run is an independent (trace, system, policy) simulation writing
 * its PolicyResult into a preallocated slot, traces are generated
 * once and shared read-only through a trace::TraceCache, and
 * Fast-Only baselines are computed once per (config, trace, seed) and
 * shared the same way. `ParallelConfig::numThreads = 1` runs the
 * identical work inline on the calling thread in batch order — the
 * serial equivalence oracle the determinism tests compare the
 * parallel path against.
 *
 * ## Run-key -> RNG-stream derivation rule
 *
 * Every run owns private RNG streams derived from a *stable run key*,
 * never from scheduling order, thread ids, or global counters — this is
 * what makes N-thread results bit-identical to the serial path:
 *
 *  1. `runKey(spec)` = FNV-1a 64-bit hash of the canonical run string
 *     `policy NUL traceKey.canonical() NUL hssConfig NUL fastFrac(%.17g)
 *      NUL seed NUL queueDepth NUL skipPrepare [NUL variantTag]`
 *     — i.e. exactly the fields that influence simulation dynamics
 *     (the trailing variantTag component is appended only when
 *     non-empty, standing in for the unhashable specTweak closure it
 *     describes). Batch position, thread count, and result-only
 *     knobs (recordPerRequest) are deliberately excluded — as are the
 *     `guardrail*` params of a policy descriptor: run supervision is
 *     observation-only until it trips, so "Sibyl" and
 *     "Sibyl{guardrail=1}" share one run key and therefore one
 *     trajectory (the zero-behavior-change claim is a bit-identity).
 *  2. `deriveStream(runKey, salt)` = splitmix64(runKey ^
 *     splitmix64(salt)): independent well-mixed streams per salt.
 *  3. A run's device-jitter seed is deriveStream(runKey,
 *     kDeviceJitterSalt) and the Sibyl agent seed is deriveStream(runKey,
 *     kAgentSalt). The Fast-Only baseline, shared by every policy on the
 *     same (config, trace, seed), uses deriveStream(baselineKey,
 *     kDeviceJitterSalt) where baselineKey is the run key of a
 *     pseudo-run with policy "Fast-Only-baseline", fastCapacityFrac 1.6
 *     and no variantTag.
 *
 * Changing the canonical string format invalidates every golden-run
 * snapshot; treat it like an on-disk format.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "trace/trace_cache.hh"

namespace sibyl::sim
{

/** Salts for deriveStream(); one per independent per-run stream. */
inline constexpr std::uint64_t kDeviceJitterSalt = 0xD591CE5EEDULL;
inline constexpr std::uint64_t kAgentSalt = 0xA9E27A11ULL;

struct FleetSpec; // sim/fleet.hh

/** Policy descriptor with the run-supervision (guardrail*) and
 *  ablation-feature (wearFeatures) params stripped — the identity
 *  string hashed into run keys (see the derivation-rule comment
 *  above). */
std::string policyIdentity(const std::string &policy);

/** One cell of an experiment grid: everything that defines a run. */
struct RunSpec
{
    /** Policy name understood by makePolicy(). */
    std::string policy = "Sibyl";

    /** Workload profile name — or mix name when `mixedWorkload`. */
    std::string workload = "prxy_1";
    bool mixedWorkload = false;

    /** HSS shorthand ("H&M", "H&L", "H&M&L", "H&M&L_SSD", quad). */
    std::string hssConfig = "H&M";
    double fastCapacityFrac = 0.10;

    /** Trace shape: request count (0 = default), generator seed
     *  (0 = per-workload default), and time compression. */
    std::size_t traceLen = 0;
    std::uint64_t traceSeed = 0;
    double timeCompress = 1.0;

    /** Experiment seed; feeds the run key, from which every per-run
     *  RNG stream is derived. */
    std::uint64_t seed = 42;

    SimConfig sim;
    core::SibylConfig sibylCfg;

    /** Optional device-spec hook, as ExperimentConfig::specTweak. */
    std::function<void(std::vector<device::DeviceSpec> &)> specTweak;

    /**
     * Canonical description of what specTweak does (fault windows,
     * channel overrides, FTL selection...). specTweak itself is an
     * unhashable closure, but it influences simulation dynamics, so
     * any caller installing one should set this tag: when non-empty
     * it is folded into the run key and emitted as the "variant"
     * field of writeResultsJson — distinguishing e.g. a faulted run
     * from its healthy control in result sets. Scenario-layer
     * deviceOverrides set it automatically. Empty tags leave the run
     * key byte-identical to the pre-tag format (golden snapshots
     * unaffected).
     */
    std::string variantTag;

    /** Replay this trace instead of synthesizing `workload` (used by
     *  the CLI's --trace). Bypasses the cache; `workload` and
     *  `traceLen` should still describe it for the run key. */
    std::shared_ptr<const trace::Trace> externalTrace;

    /** Multi-tenant fleet description (sim/fleet.hh). When set, the
     *  run interleaves the fleet's tenants instead of replaying one
     *  (policy, workload) pair: `policy`/`workload` become display
     *  identities ("Fleet" / "fleet:..."), the fleet composition is
     *  folded into the run key, and policySetup/policyFinish hooks are
     *  not invoked. traceLen acts as the default tenant trace length
     *  for tenants that do not pin their own. */
    std::shared_ptr<const FleetSpec> fleet;

    /** Optional hooks around the policy's lifetime, e.g. checkpoint
     *  warm-start/save. Called from the worker thread that owns the
     *  run; must not touch other runs' state. */
    std::function<void(policies::PlacementPolicy &)> policySetup;
    std::function<void(policies::PlacementPolicy &)> policyFinish;

    /** Cache identity of this spec's trace. */
    trace::TraceKey traceKey() const;
};

/** One finished (or failed) run. */
struct RunRecord
{
    RunSpec spec;
    std::uint64_t runKey = 0;
    PolicyResult result;

    /** "ok", or "failed" when every attempt threw — `result` is then
     *  default-constructed and `error` carries the diagnostic. */
    std::string status = "ok";

    /** "phase: what" diagnostic of the last failed attempt (phase is
     *  one of trace/baseline/policy/simulate/finish). */
    std::string error;

    /** Attempts consumed (1 = first try succeeded; > 1 records a
     *  transient failure that a retry recovered, or the bound at
     *  which a persistent failure was given up on). */
    std::uint32_t attempts = 1;

    bool failed() const { return status != "ok"; }
};

/** Orchestration knobs. */
struct ParallelConfig
{
    /** Worker count: 0 = ThreadPool::defaultThreads() (SIBYL_THREADS
     *  env override, else hardware concurrency); 1 = serial oracle. */
    unsigned numThreads = 0;
};

/**
 * Runs RunSpec batches across a worker pool. Stateless between runAll()
 * calls except for the trace and baseline caches, which persist so
 * successive batches over the same workloads reuse them.
 */
class ParallelRunner
{
  public:
    explicit ParallelRunner(ParallelConfig cfg = ParallelConfig());

    /** Called after each run settles (success or recorded failure),
     *  from the worker thread that owned the run, with the spec index
     *  and the finished record. Used by the campaign checkpoint
     *  journal; must be safe to call concurrently for distinct runs. */
    using RunDoneFn =
        std::function<void(std::size_t, const RunRecord &)>;

    /**
     * Run every spec and return records in spec order (index i of the
     * result corresponds to specs[i] regardless of scheduling). Runs
     * are failure-isolated: a run that throws gets one fresh retry off
     * the same run-key-derived streams (so a transient failure replays
     * the identical trajectory) and, failing again, becomes a
     * structured failure record (RunRecord::status/error) while every
     * other run completes bit-exact to a batch without it.
     */
    std::vector<RunRecord> runAll(const std::vector<RunSpec> &specs);

    /** runAll() with a per-run completion hook. */
    std::vector<RunRecord> runAll(const std::vector<RunSpec> &specs,
                                  const RunDoneFn &onRunDone);

    trace::TraceCache &traceCache() { return traces_; }
    const ParallelConfig &config() const { return cfg_; }

    /** Fast-Only baselines computed so far (for tests/diagnostics). */
    std::size_t baselineCount() const;

    /** Stable run key of @p spec (see file header for the rule). */
    static std::uint64_t runKey(const RunSpec &spec);

    /** Independent RNG stream for (@p key, @p salt). */
    static std::uint64_t deriveStream(std::uint64_t key,
                                      std::uint64_t salt);

  private:
    std::shared_ptr<const trace::Trace> traceFor(const RunSpec &spec);
    std::shared_ptr<const RunMetrics>
    baselineFor(const RunSpec &spec, const trace::Trace &t);
    void runOne(const RunSpec &spec, RunRecord &rec,
                const char *&phase);

    ParallelConfig cfg_;
    trace::TraceCache traces_;
    mutable std::mutex baselineMutex_;
    std::map<std::string,
             std::shared_future<std::shared_ptr<const RunMetrics>>>
        baselines_;
};

/**
 * Optional annotations for writeResultsJson: a campaign identity and a
 * partition of the record array into named scenario groups. With both
 * empty the output is byte-identical to the unannotated form, so every
 * existing BENCH_*.json consumer keeps working.
 */
struct ResultsAnnotations
{
    /** Emitted as a top-level "campaign" field when non-empty. */
    std::string campaign;

    /** One contiguous slice of the record array (a lowered scenario). */
    struct Group
    {
        std::string scenario; ///< scenario name ("scenario" field)
        std::string tag;      ///< manifest tag ("tag" field)
        std::size_t count = 0;
    };

    /** When non-empty, group counts must sum to the record count;
     *  writeResultsJson throws std::invalid_argument otherwise. Each
     *  record in group g gains "scenario" and "tag" fields, keying the
     *  merged set by (campaign, scenario, run). */
    std::vector<Group> groups;
};

/**
 * Serialize one record as the exact JSON object writeResultsJson emits
 * for it (no surrounding array or indentation). @p group, when
 * non-null, contributes the leading "scenario"/"tag" fields. Failed
 * records emit the identity fields plus "status"/"error"/"attempts"
 * and no metrics; runs that needed a retry gain an "attempts" field;
 * guardrail-supervised runs gain "guardrail*" trip accounting. The
 * campaign checkpoint journal stores precisely these bytes, which is
 * what makes a resumed merge byte-identical by construction.
 */
void writeRecordJson(std::ostream &os, const RunRecord &r,
                     const ResultsAnnotations::Group *group);

/**
 * Structured result sink: emit records as machine-readable JSON
 * (`{"results": [...]}`, one object per run with the spec identity and
 * the Fast-Only-normalized metrics). Doubles are printed with %.17g so
 * two bit-identical result sets serialize to byte-identical JSON.
 */
void writeResultsJson(std::ostream &os,
                      const std::vector<RunRecord> &records);

/** Annotated form: campaign field + per-record scenario/tag keys (see
 *  ResultsAnnotations). The regression gate diffs two such files. */
void writeResultsJson(std::ostream &os,
                      const std::vector<RunRecord> &records,
                      const ResultsAnnotations &notes);

/** writeResultsJson() to @p path via write-tmp + atomic-rename
 *  (scenario::writeTextFileAtomic), so an interrupted process never
 *  leaves a truncated results file; returns false on I/O failure. */
bool writeResultsJsonFile(const std::string &path,
                          const std::vector<RunRecord> &records);

/** Annotated writeResultsJson() to @p path. */
bool writeResultsJsonFile(const std::string &path,
                          const std::vector<RunRecord> &records,
                          const ResultsAnnotations &notes);

} // namespace sibyl::sim
