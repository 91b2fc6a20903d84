/**
 * @file
 * End-to-end benchmark of the Earth+ pipeline, from capture to served
 * pixel.
 *
 *   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--out-dir <dir>] [--work-dir <dir>]
 *   e2ebench --host-speed <windows>
 *
 * Workloads: planet_earthplus, sentinel_kodan, ground_ingest_serve.
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. --host-speed instead times a
 * fixed ALU loop in 100 ms windows and prints the iterations of each
 * window, so the host's own speed spread can be set beside the
 * benchmark's.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.hh"

using namespace e2ebench;

namespace {

int
usage()
{
    std::cerr << "usage: e2ebench --workload <planet_earthplus|"
                 "sentinel_kodan|ground_ingest_serve> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--work-dir <dir>]\n"
                 "       e2ebench --host-speed <windows>\n";
    return 2;
}

/** Iterations of a fixed integer loop per 100 ms window. */
int
hostSpeed(int windows)
{
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::cout << "[";
    for (int w = 0; w < windows; ++w) {
        uint64_t iters = 0;
        uint64_t t0 = nowNs();
        while (nowNs() - t0 < 100'000'000ULL) {
            for (int i = 0; i < 4096; ++i)
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            iters += 4096;
        }
        std::cout << (w ? ", " : "") << iters;
    }
    std::cout << "]\n";
    return x == 0 ? 1 : 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string v = argv[++i];
        if (a == "--workload") {
            opts.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            opts.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            opts.seconds = std::atof(v.c_str());
        } else if (a == "--trace") {
            opts.trace = v == "1";
        } else if (a == "--out-dir") {
            opts.outDir = v;
        } else if (a == "--work-dir") {
            opts.workDir = v;
        } else if (a == "--host-speed") {
            return hostSpeed(std::atoi(v.c_str()));
        } else {
            return usage();
        }
    }
    if (!haveWorkload || opts.seconds <= 0.0)
        return usage();

    RunResult result;
    int rc;
    if (opts.workload == "planet_earthplus")
        rc = runPlanetEarthPlus(opts, result);
    else if (opts.workload == "sentinel_kodan")
        rc = runSentinelKodan(opts, result);
    else if (opts.workload == "ground_ingest_serve")
        rc = runGroundIngestServe(opts, result);
    else
        return usage();
    if (rc != 0) {
        for (const std::string &p : result.problems)
            std::cerr << "error: " << p << "\n";
        return rc;
    }
    printResult(result);
    return 0;
}
