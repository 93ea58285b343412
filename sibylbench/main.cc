/**
 * @file
 * Benchmark program entry point.
 *
 *   sibylbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads: sibyl_single, fleet_paper_cadence, grid_heuristic (see
 * README.md). --trace 0 reports the end-to-end metrics, --trace 1 the
 * per-layer metrics of the outside-in traced run. The last line of
 * standard output is one JSON object with the keys correct, attempted,
 * failed and metrics. Exit status 0 only when every check passed.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hh"
#include "workloads.hh"

using namespace sibylbench;

namespace
{

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "sibylbench: %s\nusage: sibylbench --workload "
                 "<sibyl_single|fleet_paper_cadence|grid_heuristic> "
                 "[--seed N] [--seconds S] [--trace 0|1]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val, &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val, &end);
        } else if (arg == "--trace") {
            opt.trace = std::string(val) == "1";
            if (!opt.trace && std::string(val) != "0")
                return usage("--trace takes 0 or 1");
        } else {
            return usage(("unknown option " + arg).c_str());
        }
        if (end && *end)
            return usage(("malformed number for " + arg).c_str());
    }
    if (!(opt.seconds > 0.0))
        return usage("--seconds must be positive");

    void (*workload)(const Options &, Report &) = nullptr;
    unsigned threads = benchThreads();
    if (opt.workload == "sibyl_single") {
        workload = sibylSingle;
        threads = 1;
    } else if (opt.workload == "fleet_paper_cadence") {
        workload = fleetPaperCadence;
    } else if (opt.workload == "grid_heuristic") {
        workload = gridHeuristic;
    } else {
        return usage(("unknown workload \"" + opt.workload + "\"").c_str());
    }

    printFingerprint(opt, threads);
    Report rep;
    try {
        workload(opt, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sibylbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    if (opt.trace)
        rep.fillAbsentLayers();
    return rep.finish();
}
