/**
 * @file
 * The benchmark's own capture loop: one location's captures through
 * the on-board system, serialization and the ground station, as
 * core::LocationSimulation::run() drives them, but with every call
 * into a layer timed (and traced on request) and every output checked.
 */

#ifndef E2EBENCH_ONBOARD_HH
#define E2EBENCH_ONBOARD_HH

#include <cstdint>
#include <vector>

#include "common.hh"
#include "core/simulation.hh"
#include "raster/bitmap.hh"
#include "raster/image.hh"
#include "synth/dataset.hh"
#include "synth/sensor.hh"

namespace e2ebench {

/** Lanes of the program's pool (and render threads) on board. */
constexpr int kOnboardThreads = 2;

/** Per-packet loss probability of every workload's downlink. */
constexpr double kPacketLoss = 1e-4;

/** A dataset, a system and the simulation parameters it runs with. */
struct OnboardSetup
{
    earthplus::synth::DatasetSpec spec;
    earthplus::core::SystemKind kind = earthplus::core::SystemKind::EarthPlus;
    earthplus::core::SimParams params;
};

/**
 * Planet-like large-constellation spec: `locations` coastal locations
 * whose noise, weather and sensor seeds derive from `seed`.
 */
OnboardSetup planetSetup(uint64_t seed, int locations);

/**
 * Sentinel-2-like spec: the dataset's locations in order, with their
 * noise, weather and sensor seeds derived from `seed`.
 */
OnboardSetup sentinelSetup(uint64_t seed);

/** Rendered inputs of one location (made during set-up). */
struct LocationInputs
{
    int locIdx = 0;
    /** Whole constellation schedule of the location. */
    std::vector<std::pair<double, int>> schedule;
    /** Per schedule entry: kept by the dataset's cloud filter. */
    std::vector<uint8_t> kept;
    /** One rendered capture per kept entry, schedule order. */
    std::vector<earthplus::synth::Capture> captures;
    double setupSec = 0.0;
    double renderSec = 0.0;
};

/** Render one location's captures (threads split the captures). */
LocationInputs setUpLocation(const OnboardSetup &setup, int locIdx,
                             int threads);

/** One downlinked capture as the ground workload lands it. */
struct CollectedCapture
{
    int locationId = 0;
    int satelliteId = 0;
    double day = 0.0;
    double referenceDay = -1.0;
    bool fullDownload = false;
    std::vector<std::vector<uint8_t>> payloads;
    earthplus::raster::Image truth;
    earthplus::raster::Bitmap cloudTruth;
};

/** Layer timings and counts summed over captures. */
struct LayerTotals
{
    uint64_t ops = 0;
    uint64_t downlinked = 0;
    double uplinkMs = 0.0;
    double uplinkBytes = 0.0;
    double processMs = 0.0;
    double cloudMs = 0.0;
    double changeMs = 0.0;
    double encodeMs = 0.0;
    double serializeMs = 0.0;
    double downlinkMs = 0.0;
    double codedTileFraction = 0.0;
    double headerBytes = 0.0;
    double bytesOverBudget = 0.0;
    double refAgeSum = 0.0;
    uint64_t refAgeCount = 0;
    double cacheBytes = 0.0;
    uint64_t cacheSamples = 0;
    uint64_t packets = 0;
    uint64_t retransmits = 0;
    uint64_t airBytes = 0;
    uint64_t landed = 0;
    uint64_t lost = 0;
    double payloadBytes = 0.0;
    double psnrSum = 0.0;
    std::vector<double> stationOpenSec;
    std::vector<double> latencyMs;

    void add(const LayerTotals &o);
};

/** Outcome of running one location once. */
struct LocationOutcome
{
    earthplus::core::SimSummary summary;
    LayerTotals totals;
};

/**
 * Run one location's capture loop (timed through `clock`), then check
 * its outputs: recomputed PSNR and byte-identical landed payloads.
 *
 * @param collect When non-null, receives every downlinked capture.
 */
LocationOutcome runLocation(const OnboardSetup &setup,
                            const LocationInputs &inputs, PhaseClock &clock,
                            TraceBuffer &trace, uint64_t &opCounter,
                            RunResult &result,
                            std::vector<CollectedCapture> *collect);

/**
 * Mean PSNR across bands over non-cloudy pixels, from the benchmark's
 * own squared-error sum (99 dB for an exact band, as the program caps).
 */
double independentPsnr(const earthplus::raster::Image &truth,
                       const earthplus::raster::Image &recon,
                       const earthplus::raster::Bitmap &cloudTruth);

/** True when two summaries agree exactly on what run() reports. */
bool sameSummary(const earthplus::core::SimSummary &a,
                 const earthplus::core::SimSummary &b, std::string *why);

} // namespace e2ebench

#endif // E2EBENCH_ONBOARD_HH
