#include "harness.hh"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/sibyl_policy.hh"
#include "ml/network.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"

namespace sibylbench
{

using namespace sibyl;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
peakRssMb()
{
    // VmHWM belongs to this process image; getrusage's ru_maxrss would
    // also count the launching process, since it survives execve.
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::logic_error("median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer, kept here rather than borrowed from the
    // library so a library change cannot change the benchmark's inputs.
    // 0 would select a generator's default seed.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z ? z : 1;
}

unsigned
benchThreads()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return static_cast<unsigned>(std::clamp<long>(n, 1, 4));
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> table = {
        {"rl.train_share", "ratio"},
        {"rl.train_us_per_round", "us"},
        {"rl.train_rounds", "count"},
        {"rl.gradient_steps", "count"},
        {"rl.decode_ns", "ns"},
        {"sim.step_begin_ns", "ns"},
        {"ml.infer_row_ns", "ns"},
        {"ml.infer_calls_per_req", "ratio"},
        {"policies.decide_ns", "ns"},
        {"policies.prepare_ms", "ms"},
        {"hss.step_finish_ns", "ns"},
        {"hss.serve_ns.read_heavy", "ns"},
        {"hss.serve_ns.write_heavy", "ns"},
        {"hss.evictions_per_req", "ratio"},
        {"hss.promotions_per_req", "ratio"},
        {"hss.fast_placement_frac", "ratio"},
        {"ftl.write_amp", "ratio"},
        {"ftl.gc_copies_per_host_write", "ratio"},
        {"ftl.erases", "count"},
        {"device.busy_frac.H", "ratio"},
        {"device.busy_frac.M", "ratio"},
        {"device.busy_frac.L", "ratio"},
        {"trace.gen_ns_per_req", "ns"},
        {"trace.overhead_frac", "ratio"},
        {"trace.cache_generated", "count"},
        {"sim.runner.parallelism", "ratio"},
        {"sim.runner.baselines", "count"},
        {"sim.fleet.parallelism", "ratio"},
        {"sim.fleet.speedup_vs_serial", "ratio"},
    };
    return table;
}

void
Report::layer(const std::string &name, double value)
{
    for (const auto &[n, unit] : perLayerMetrics())
        if (n == name) {
            metric(name, value, unit);
            return;
        }
    throw std::logic_error("unknown per-layer metric: " + name);
}

void
Report::fillAbsentLayers()
{
    for (const auto &[name, unit] : perLayerMetrics()) {
        bool present = false;
        for (const Metric &m : metrics_)
            present = present || m.name == name;
        if (!present)
            metric(name, 0.0, unit);
    }
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            throw std::logic_error("metric reported twice: " + name);
    check(std::isfinite(value), name + " is finite");
    metrics_.push_back({name, value, unit});
}

bool
Report::check(bool ok, const std::string &what)
{
    attempted_++;
    if (!ok) {
        failed_++;
        std::printf("CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
}

void
Report::operations(std::uint64_t n, std::uint64_t failed)
{
    attempted_ += n;
    failed_ += failed;
}

void
Report::checkRun(const sim::RunMetrics &m, std::size_t expectedRequests,
                 const std::string &what)
{
    const double vals[] = {m.avgLatencyUs, m.p50LatencyUs, m.p99LatencyUs,
                           m.maxLatencyUs, m.iops, m.makespanUs};
    bool finite = true;
    for (double v : vals)
        finite = finite && std::isfinite(v) && v > 0.0;
    check(m.requests == expectedRequests,
          what + ": requests == trace length");
    check(m.p50LatencyUs <= m.p99LatencyUs &&
              m.p99LatencyUs <= m.maxLatencyUs,
          what + ": p50 <= p99 <= max");
    check(finite, what + ": latencies finite and positive");
}

void
Report::note(const std::string &line)
{
    std::printf("%s\n", line.c_str());
}

int
Report::finish() const
{
    std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
    for (const Metric &m : metrics_)
        std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("operations attempted %llu, failed %llu "
                "(failed_frac %.6g)\n\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                attempted_ ? static_cast<double>(failed_) /
                                 static_cast<double>(attempted_)
                           : 0.0);

    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); i++) {
        char num[64];
        const double v = metrics_[i].value;
        std::snprintf(num, sizeof(num), "%.17g",
                      std::isfinite(v) ? v : -1.0);
        if (i)
            json += ", ";
        json += "\"" + metrics_[i].name + "\": {\"value\": " + num +
                ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failed_ == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// Cells and the traced loop
// ---------------------------------------------------------------------

std::string
metricsJson(const sim::RunMetrics &m)
{
    sim::RunRecord rec;
    rec.result.metrics = m;
    std::ostringstream os;
    sim::writeRecordJson(os, rec, nullptr);
    return os.str();
}

std::unique_ptr<hss::HybridSystem>
Cell::makeSystem() const
{
    auto specs = hss::makeHssConfig(hssConfig, trace->uniquePages());
    if (detailedFtlOnM)
        specs.at(1).detailedFtl = true;
    return std::make_unique<hss::HybridSystem>(std::move(specs),
                                               deviceSeed);
}

std::unique_ptr<policies::PlacementPolicy>
Cell::makePolicy(std::uint32_t numDevices) const
{
    return sim::makePolicy(policy, numDevices, sibylCfg);
}

sim::RunMetrics
runCell(const Cell &c)
{
    auto sys = c.makeSystem();
    auto policy = c.makePolicy(sys->numDevices());
    return sim::runSimulation(*c.trace, *sys, *policy);
}

namespace
{

using Clock = std::chrono::steady_clock;

double
ns(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Device-name slot of the busy-fraction table, or -1. */
int
busySlot(const std::string &name)
{
    if (name == "H")
        return 0;
    if (name == "M")
        return 1;
    if (name == "L")
        return 2;
    return -1;
}

} // namespace

sim::RunMetrics
tracedCell(const Cell &c, LayerTrace &lt)
{
    auto sys = c.makeSystem();
    auto policy = c.makePolicy(sys->numDevices());
    auto *sibylPolicy = dynamic_cast<core::SibylPolicy *>(policy.get());
    const trace::Trace &t = *c.trace;

    std::size_t writes = 0;
    for (const trace::Request &r : t)
        writes += r.op == OpType::Write;
    const double writeFrac =
        static_cast<double>(writes) / static_cast<double>(t.size());
    const int cls = writeFrac < 0.2 ? 0 : writeFrac > 0.8 ? 1 : -1;

    // Mirrors sim::runSimulation with the default SimConfig (the
    // stepper's constructor touches neither the system nor the policy,
    // so building it first changes nothing).
    sim::RequestStepper stepper(*sys, *policy, sim::SimConfig(), t.size());
    const Clock::time_point start = Clock::now();
    policy->prepare(t, *sys);
    Clock::time_point a = Clock::now();
    lt.prepareNs += ns(start, a);
    lt.prepares++;
    for (std::size_t i = 0; i < t.size(); i++) {
        const trace::Request &req = t[i];
        const std::uint64_t rounds =
            sibylPolicy ? sibylPolicy->agent().stats().trainingRounds : 0;
        SimTime arrival{};
        DeviceId action{};
        const float *row = nullptr;
        ml::Network *net = stepper.stepBegin(req, arrival, action, &row);
        Clock::time_point b = Clock::now();
        if (sibylPolicy &&
            sibylPolicy->agent().stats().trainingRounds != rounds) {
            lt.trainBeginNs += ns(a, b);
        } else {
            lt.beginNs += ns(a, b);
            lt.begins++;
        }
        if (net) {
            const float *out = net->inferRow(row);
            const Clock::time_point c1 = Clock::now();
            action = stepper.policy().selectPlacementFromRow(out);
            const Clock::time_point c2 = Clock::now();
            lt.inferNs += ns(b, c1);
            lt.infers++;
            lt.decodeNs += ns(c1, c2);
            lt.decodes++;
            b = c2;
        }
        stepper.stepFinish(req, arrival, action);
        a = Clock::now();
        const double fin = ns(b, a);
        lt.finishNs += fin;
        lt.finishes++;
        if (cls >= 0) {
            lt.finishNsByClass[cls] += fin;
            lt.finishesByClass[cls]++;
        }
    }
    lt.loopNs += ns(start, a);
    lt.requests += t.size();
    if (sibylPolicy) {
        lt.trainRounds += sibylPolicy->agent().stats().trainingRounds;
        lt.gradientSteps += sibylPolicy->agent().stats().gradientSteps;
    }

    const sim::RunMetrics m = stepper.finish();
    const auto &hc = sys->counters();
    lt.evictionEvents += hc.evictionEvents;
    lt.promotions += hc.promotions;
    for (std::size_t d = 0; d < hc.placements.size(); d++) {
        lt.placements += hc.placements[d];
        if (d == 0)
            lt.fastPlacements += hc.placements[d];
    }
    for (DeviceId d = 0; d < sys->numDevices(); d++) {
        const device::BlockDevice &dev = sys->device(d);
        if (const ftl::PageMappedFtl *f = dev.ftl()) {
            lt.ftlHostWrites += f->stats().hostWrites;
            lt.ftlGcCopies += f->stats().gcCopies;
            lt.ftlErases += f->stats().erases;
        }
        const int slot = busySlot(dev.spec().name);
        if (slot >= 0 && m.makespanUs > 0.0) {
            lt.busyFrac[slot] += dev.counters().busyUs / m.makespanUs;
            lt.busyCells[slot]++;
        }
    }
    return m;
}

namespace
{

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The per-layer metrics one traced pass yields. */
std::vector<std::pair<std::string, double>>
layerValues(const LayerTrace &lt)
{
    const double reqs = static_cast<double>(lt.requests);
    const auto per = [](double total, std::uint64_t n) {
        return n ? total / static_cast<double>(n) : 0.0;
    };
    return {
        {"rl.train_share", ratio(lt.trainBeginNs, lt.loopNs)},
        {"rl.train_us_per_round",
         ratio(lt.trainBeginNs * 1e-3, static_cast<double>(lt.trainRounds))},
        {"rl.train_rounds", static_cast<double>(lt.trainRounds)},
        {"rl.gradient_steps", static_cast<double>(lt.gradientSteps)},
        {"rl.decode_ns", per(lt.decodeNs, lt.decodes)},
        {"sim.step_begin_ns", per(lt.beginNs, lt.begins)},
        {"ml.infer_row_ns", per(lt.inferNs, lt.infers)},
        {"ml.infer_calls_per_req",
         ratio(static_cast<double>(lt.infers), reqs)},
        {"policies.decide_ns",
         per(lt.beginNs + lt.inferNs + lt.decodeNs, lt.begins)},
        {"policies.prepare_ms", per(lt.prepareNs * 1e-6, lt.prepares)},
        {"hss.step_finish_ns", per(lt.finishNs, lt.finishes)},
        {"hss.serve_ns.read_heavy",
         per(lt.finishNsByClass[0], lt.finishesByClass[0])},
        {"hss.serve_ns.write_heavy",
         per(lt.finishNsByClass[1], lt.finishesByClass[1])},
        {"hss.evictions_per_req",
         ratio(static_cast<double>(lt.evictionEvents), reqs)},
        {"hss.promotions_per_req",
         ratio(static_cast<double>(lt.promotions), reqs)},
        {"hss.fast_placement_frac",
         ratio(static_cast<double>(lt.fastPlacements),
               static_cast<double>(lt.placements))},
        {"ftl.write_amp",
         ratio(static_cast<double>(lt.ftlHostWrites + lt.ftlGcCopies),
               static_cast<double>(lt.ftlHostWrites))},
        {"ftl.gc_copies_per_host_write",
         ratio(static_cast<double>(lt.ftlGcCopies),
               static_cast<double>(lt.ftlHostWrites))},
        {"ftl.erases", static_cast<double>(lt.ftlErases)},
        {"device.busy_frac.H", per(lt.busyFrac[0], lt.busyCells[0])},
        {"device.busy_frac.M", per(lt.busyFrac[1], lt.busyCells[1])},
        {"device.busy_frac.L", per(lt.busyFrac[2], lt.busyCells[2])},
    };
}

} // namespace

std::vector<sim::RunMetrics>
traceCells(const std::vector<Cell> &cells, double seconds, Report &rep)
{
    std::vector<sim::RunMetrics> untraced(cells.size());
    std::vector<double> untracedWall, tracedWall;
    std::vector<LayerTrace> passes;
    bool reproduced = true;
    const double deadline = wallNow() + seconds;
    while (passes.size() < 2 || wallNow() < deadline) {
        double t0 = wallNow();
        for (std::size_t i = 0; i < cells.size(); i++)
            untraced[i] = runCell(cells[i]);
        untracedWall.push_back(wallNow() - t0);

        LayerTrace lt;
        std::vector<sim::RunMetrics> traced;
        t0 = wallNow();
        for (const Cell &c : cells)
            traced.push_back(tracedCell(c, lt));
        tracedWall.push_back(wallNow() - t0);
        passes.push_back(lt);
        for (std::size_t i = 0; i < cells.size(); i++)
            reproduced = reproduced &&
                         metricsJson(traced[i]) == metricsJson(untraced[i]);
    }
    rep.check(reproduced, "traced loop reproduces sim::runSimulation "
                          "metrics bit for bit");
    rep.operations(2 * passes.size() * cells.size(), 0);

    // Median of every per-layer value across the traced passes.
    const auto first = layerValues(passes.front());
    for (std::size_t k = 0; k < first.size(); k++) {
        std::vector<double> v;
        for (const LayerTrace &lt : passes)
            v.push_back(layerValues(lt)[k].second);
        rep.layer(first[k].first, median(v));
    }
    rep.layer("trace.overhead_frac",
              median(tracedWall) / median(untracedWall) - 1.0);
    return untraced;
}

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

void
printFingerprint(const Options &opt, unsigned threads)
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(" \t", colon + 1));
            break;
        }
    }
    utsname un{};
    uname(&un);
#if defined(__AVX512F__)
    const char *isa = "avx512f";
#elif defined(__AVX2__)
    const char *isa = "avx2";
#else
    const char *isa = "baseline";
#endif
    std::printf("fingerprint: {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
                "\"threads\": %u, \"cpu\": \"%s\", \"kernel\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"isa\": \"%s\", \"native\": %s}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), threads,
                cpu.c_str(), un.release, SIBYLBENCH_COMPILER,
                SIBYLBENCH_BUILD_TYPE, isa,
                SIBYLBENCH_NATIVE ? "true" : "false");
}

} // namespace sibylbench
