/**
 * @file
 * On-board compression systems: Earth+ and the paper's baselines.
 *
 * Every system runs one pipeline, OnboardSystem::process(): cloud
 * detection -> drop if cloudier than dropCloudFraction -> tile
 * selection (every clear tile, or the tiles that changed against a
 * reference) -> encode -> ground reconstruction + PSNR -> commit.
 * The systems differ only in their policies:
 *
 *  - EarthPlusSystem: cheap cloud detector; change detection against
 *    the satellite's cached (downsampled, constellation-fresh)
 *    reference; monthly guaranteed full download; reconstructions
 *    refresh the ground reference store (§5).
 *  - KodanSystem [37]: accurate (expensive) cloud detector, downloads
 *    every non-cloudy tile.
 *  - SatRoISystem [61]: change detection against a fixed reference
 *    image that is never refreshed.
 *  - DownloadAllSystem: no cloud detector, encodes everything (the
 *    "Download everything" bar of Fig. 19).
 *
 * All systems share the same codec and the same gamma so comparisons
 * isolate the *selection* policy, exactly as in the paper (§6.1).
 */

#ifndef EARTHPLUS_CORE_SYSTEMS_HH
#define EARTHPLUS_CORE_SYSTEMS_HH

#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "cloud/detector.hh"
#include "codec/codec.hh"
#include "core/onboard_cache.hh"
#include "core/reference_store.hh"
#include "core/uplink_planner.hh"
#include "orbit/links.hh"
#include "synth/sensor.hh"

namespace earthplus::core {

/** Parameters shared by every on-board system. */
struct SystemParams
{
    /** Bits per pixel spent on each encoded tile (the paper's gamma). */
    double gamma = 2.0;
    /** Change-detection threshold theta (mean abs diff). */
    double theta = 0.01;
    /** Reference downsampling factor (Earth+ only; sets the geometry
     *  of the on-board caches and so of every reference update). */
    int refDownsample = 16;
    /** Tile edge length in pixels. */
    int tileSize = raster::kDefaultTileSize;
    /** Guaranteed full download period in days (§5). */
    double guaranteedPeriodDays = 30.0;
    /** Drop captures with more on-board-detected cloud than this. */
    double dropCloudFraction = 0.5;
    /** Quality layers per encoded image. */
    int layers = 1;
    /**
     * Ground ingestion happens outside the system (the ground-segment
     * downlink feeds the ReferenceStore when a download *completes*
     * rather than at capture time). When set, EarthPlusSystem does not
     * offer reconstructions to the store itself.
     */
    bool externalGroundIngest = false;
};

/** Everything a system reports about processing one capture. */
struct ProcessResult
{
    /** Capture dropped (cloud coverage above the drop threshold). */
    bool dropped = false;
    /** This was a guaranteed (or bootstrap) full download. */
    bool fullDownload = false;
    /** Bytes the downlink must carry for this capture. */
    size_t downlinkBytes = 0;
    /** Downlink bytes attributed to each band (sums to downlinkBytes). */
    std::vector<size_t> bandDownlinkBytes;
    /** Fraction of tiles downloaded. */
    double downloadedTileFraction = 0.0;
    /** Ground-reconstruction PSNR (dB) over non-cloudy pixels. */
    double psnr = 0.0;
    /** Age of the reference used (days; +inf when none, which
     *  includes every dropped capture). */
    double referenceAgeDays = std::numeric_limits<double>::infinity();
    /** Cloud coverage as measured on board. */
    double measuredCloudCoverage = 0.0;
    double cloudDetectSec = 0.0;  ///< Cloud-detection runtime (s).
    double changeDetectSec = 0.0; ///< Change-detection runtime (s).
    double encodeSec = 0.0;       ///< Encoding runtime (s).
    /**
     * The encoded downlink payload, one stream per band (what the
     * ground segment packetizes and archives). Empty when dropped.
     */
    std::vector<codec::EncodedImage> encodedBands;
    /** Ground-side reconstruction (empty when dropped). */
    raster::Image reconstructed;
};

/**
 * The on-board pipeline shared by every system: process() runs each
 * step once, and subclasses supply the policies (cloud detector, tile
 * selection, commit bookkeeping).
 */
class OnboardSystem
{
  public:
    virtual ~OnboardSystem() = default;

    /** Process one capture and produce the download + reconstruction. */
    ProcessResult process(const synth::Capture &capture);

  protected:
    /** The on-board cloud detector a system runs. */
    enum class Clouds
    {
        None,     ///< No detector: nothing is masked or dropped.
        Cheap,    ///< cloud::CheapCloudDetector.
        Accurate, ///< cloud::AccurateCloudDetector.
    };

    /** A system's tile-selection policy for one capture. */
    struct Selection
    {
        /** Code every clear tile: a guaranteed or bootstrap download. */
        bool fullDownload = false;
        /**
         * Reference change detection compares against (null: code
         * every clear tile). Unused for full downloads.
         */
        const raster::Image *reference = nullptr;
        /** Downsampling factor of `reference` against the capture. */
        int referenceFactor = 1;
        /** Age of the reference (days; +inf when none). */
        double referenceAgeDays = std::numeric_limits<double>::infinity();
        /** Ground image filling undownloaded tiles (null: flat gray). */
        const raster::Image *fill = nullptr;
    };

    OnboardSystem(std::vector<synth::BandSpec> bands,
                  const SystemParams &params, Clouds clouds);

    /**
     * Tile-selection policy for a capture that was not dropped. The
     * default has no reference: every clear tile is coded.
     */
    virtual Selection select(const raster::CaptureInfo &) { return {}; }

    /** Bookkeeping after a capture was coded (default: none). */
    virtual void commit(const synth::Capture &, const ProcessResult &) {}

    /**
     * True when the location has had no full download within
     * guaranteedPeriodDays of `day` (§5's guaranteed download).
     */
    bool fullDownloadDue(int locationId, double day) const;

    SystemParams params_;

  private:
    /** Run the configured detector (None: an all-clear detection). */
    cloud::CloudDetection detectClouds(const raster::Image &img,
                                       const raster::TileGrid &grid) const;

    std::vector<synth::BandSpec> bands_;
    Clouds clouds_;
    /** Last full-download day per location. */
    std::map<int, double> lastFullDownload_;
};

/**
 * Earth+ — constellation-wide reference-based encoding.
 */
class EarthPlusSystem : public OnboardSystem
{
  public:
    /**
     * @param bands Band specs of the captures this system will see.
     * @param params Shared system parameters.
     * @param uplinkParams Reference-update parameters.
     * @param ground Ground reference store (shared with the simulation).
     */
    EarthPlusSystem(std::vector<synth::BandSpec> bands,
                    const SystemParams &params,
                    const UplinkPlanner::Params &uplinkParams,
                    ReferenceStore &ground);

    /**
     * Run the uplink planner for one satellite before its capture:
     * updates that satellite's on-board cache (and the ground's mirror
     * of it) within the budget.
     *
     * @return The executed plan (bytes consumed, tiles updated).
     */
    UplinkPlan prepareCapture(int locationId, int satelliteId,
                              orbit::DailyByteBudget &budget);

    /** On-board cache of one satellite (created on demand). */
    OnboardCache &cacheFor(int satelliteId);

  protected:
    Selection select(const raster::CaptureInfo &info) override;
    void commit(const synth::Capture &capture,
                const ProcessResult &res) override;

  private:
    UplinkPlanner planner_;
    ReferenceStore &ground_;
    std::map<int, OnboardCache> caches_;
    /** Full-res ground mirror of each (satellite, location) cache. */
    std::map<std::pair<int, int>, raster::Image> groundMirror_;
};

/**
 * Kodan — accurate on-board cloud filtering, downloads all non-cloudy
 * tiles.
 */
class KodanSystem : public OnboardSystem
{
  public:
    KodanSystem(std::vector<synth::BandSpec> bands,
                const SystemParams &params);
};

/**
 * SatRoI — reference-based encoding with a fixed (never-refreshed)
 * full-resolution reference.
 */
class SatRoISystem : public OnboardSystem
{
  public:
    SatRoISystem(std::vector<synth::BandSpec> bands,
                 const SystemParams &params);

  protected:
    Selection select(const raster::CaptureInfo &info) override;
    void commit(const synth::Capture &capture,
                const ProcessResult &res) override;

  private:
    /** The fixed reference (set once per location, then frozen). */
    std::map<int, raster::Image> fixedRef_;
};

/**
 * Download-everything — no filtering, every tile encoded at gamma.
 */
class DownloadAllSystem : public OnboardSystem
{
  public:
    DownloadAllSystem(std::vector<synth::BandSpec> bands,
                      const SystemParams &params);

  protected:
    Selection select(const raster::CaptureInfo &info) override;
};

} // namespace earthplus::core

#endif // EARTHPLUS_CORE_SYSTEMS_HH
