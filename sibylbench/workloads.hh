/**
 * @file
 * The benchmark's three workloads. Each reports the end-to-end metrics
 * (untraced mode) or its per-layer metrics (traced mode) into a Report,
 * together with its correctness checks.
 */

#pragma once

#include "harness.hh"

namespace sibylbench
{

/** One Sibyl (C51, trainEvery=125) run on prxy_1, H&M, 10% fast. */
void sibylSingle(const Options &opt, Report &rep);

/** Eight Sibyl{trainEvery=0} tenants through runFleetExperiment. */
void fleetPaperCadence(const Options &opt, Report &rep);

/** CDE/HPS/Oracle/Slow-Only over four traces and two configs through
 *  ParallelRunner. */
void gridHeuristic(const Options &opt, Report &rep);

} // namespace sibylbench
