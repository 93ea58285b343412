/**
 * @file
 * Shared pieces of the benchmark program: clocks, the result report,
 * correctness checks, and the outside-in traced request loop.
 *
 * Tracing never happens inside the library. The traced loop drives
 * sim::RequestStepper through the same public calls step() makes
 * (stepBegin -> Network::inferRow -> selectPlacementFromRow ->
 * stepFinish) and times each call from here.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sibyl_config.hh"
#include "hss/hybrid_system.hh"
#include "policies/policy.hh"
#include "sim/metrics.hh"
#include "trace/trace.hh"

namespace sibylbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Wall-clock seconds since an arbitrary epoch. */
double wallNow();

/** Process CPU seconds (all threads). */
double cpuNow();

/** Peak resident set of the process, in MiB. */
double peakRssMb();

/** Median of @p v (which must not be empty). */
double median(std::vector<double> v);

/** Independent, nonzero generator seed for stream @p salt of @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

/** Worker threads of the threaded workloads: min(4, nproc). */
unsigned benchThreads();

/** Every per-layer metric (name, unit) a traced run reports. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/**
 * Everything one run reports: named metrics with units, and the
 * operation/failure counts behind `attempted` and `failed`.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Report per-layer metric @p name (unit from perLayerMetrics). */
    void layer(const std::string &name, double value);

    /** Report 0 for every per-layer metric not reported yet: a layer
     *  the workload never calls did no work. */
    void fillAbsentLayers();

    /** Record one correctness check; a failure is printed at once. */
    bool check(bool ok, const std::string &what);

    /** Count @p n operations (runs or tenants) and @p failed of them
     *  as failed. */
    void operations(std::uint64_t n, std::uint64_t failed);

    /** requests == @p expectedRequests, p50 <= p99 <= max, and every
     *  reported latency finite and positive. */
    void checkRun(const sibyl::sim::RunMetrics &m,
                  std::size_t expectedRequests, const std::string &what);

    /** Print the metric table and the final one-line JSON result.
     *  Returns the process exit code (0 only when nothing failed). */
    int finish() const;

    /** Free-form line in the human-readable part of the output. */
    static void note(const std::string &line);

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** The bytes sim::writeRecordJson emits for @p m: two runs agree
 *  exactly when these agree. */
std::string metricsJson(const sibyl::sim::RunMetrics &m);

/** One (trace, system, policy) simulation, described as data so it can
 *  be rebuilt from scratch for every repetition. */
struct Cell
{
    std::shared_ptr<const sibyl::trace::Trace> trace;
    std::string hssConfig = "H&M"; ///< fast device: 10% of the WSS
    bool detailedFtlOnM = false; ///< page-mapped FTL on device 1
    std::uint64_t deviceSeed = 42;
    std::string policy = "Sibyl";
    sibyl::core::SibylConfig sibylCfg;

    std::unique_ptr<sibyl::hss::HybridSystem> makeSystem() const;
    std::unique_ptr<sibyl::policies::PlacementPolicy>
    makePolicy(std::uint32_t numDevices) const;
};

/** Untraced reference: sim::runSimulation on a fresh system+policy. */
sibyl::sim::RunMetrics runCell(const Cell &c);

/** Host time and counts accumulated by the traced loop. */
struct LayerTrace
{
    double loopNs = 0;       ///< whole traced loop, prepare included
    double prepareNs = 0;
    std::uint64_t prepares = 0;
    double trainBeginNs = 0; ///< stepBegin calls that ran training
    double beginNs = 0; ///< all other stepBegin calls
    std::uint64_t begins = 0;
    double inferNs = 0;
    std::uint64_t infers = 0;
    double decodeNs = 0;
    std::uint64_t decodes = 0;
    double finishNs = 0;
    std::uint64_t finishes = 0;
    /** stepFinish of read-heavy (< 20% writes) / write-heavy (> 80%)
     *  traces; traces in between count in neither. */
    double finishNsByClass[2] = {0, 0};
    std::uint64_t finishesByClass[2] = {0, 0};
    std::uint64_t requests = 0;
    std::uint64_t trainRounds = 0;
    std::uint64_t gradientSteps = 0;

    // Simulated counts, summed over cells.
    std::uint64_t evictionEvents = 0;
    std::uint64_t promotions = 0;
    std::uint64_t fastPlacements = 0;
    std::uint64_t placements = 0;
    std::uint64_t ftlHostWrites = 0;
    std::uint64_t ftlGcCopies = 0;
    std::uint64_t ftlErases = 0;
    /** Device busy time over makespan, summed over cells, per device
     *  name H/M/L, with the number of cells that had the device. */
    double busyFrac[3] = {0, 0, 0};
    std::uint64_t busyCells[3] = {0, 0, 0};
};

/** Run @p c through the outside-in traced loop, adding its host times
 *  and simulated counts to @p lt. Returns the run's metrics. */
sibyl::sim::RunMetrics tracedCell(const Cell &c, LayerTrace &lt);

/**
 * Alternate untraced (runCell) and traced (tracedCell) passes over
 * @p cells until @p seconds elapse (at least two of each), check that
 * every traced cell reproduces its untraced metrics bit for bit, and
 * report the median of each per-layer value over the traced passes,
 * with trace.overhead_frac (median traced over median untraced pass
 * time, minus 1). Returns the untraced metrics of each cell.
 */
std::vector<sibyl::sim::RunMetrics>
traceCells(const std::vector<Cell> &cells, double seconds, Report &rep);

/** Print the host fingerprint line (ROADMAP 1a). */
void printFingerprint(const Options &opt, unsigned threads);

} // namespace sibylbench
