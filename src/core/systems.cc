#include "core/systems.hh"

#include <chrono>
#include <cmath>
#include <limits>

#include "change/detector.hh"
#include "raster/metrics.hh"
#include "raster/resample.hh"
#include "util/parallel.hh"

namespace earthplus::core {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double>(dt).count();
}

/** Zero out cloudy pixels (the paper's cloud removal, §5). */
raster::Plane
removeClouds(const raster::Plane &p, const raster::Bitmap &cloudMask)
{
    raster::Plane out = p;
    for (int y = 0; y < out.height(); ++y) {
        float *row = out.row(y);
        for (int x = 0; x < out.width(); ++x)
            if (cloudMask.get(x, y))
                row[x] = 0.0f;
    }
    return out;
}

/**
 * Encode every band of `img`, each over its own ROI (§5: bands are
 * handled separately — different areas change in different bands).
 * Zeroes cloudy pixels first.
 */
size_t
encodeBands(const raster::Image &img, const raster::Bitmap &cloudMask,
            const std::vector<raster::TileMask> &rois,
            const SystemParams &params,
            std::vector<codec::EncodedImage> &encoded,
            std::vector<size_t> &bandBytes)
{
    // Bands are independent encode jobs; each band's per-tile jobs
    // nest inline when the pool is already saturated.
    auto results = util::parallelMap(
        static_cast<size_t>(img.bandCount()), [&](size_t b) {
            raster::Plane clean =
                removeClouds(img.band(static_cast<int>(b)), cloudMask);
            codec::EncodeParams ep;
            ep.bitsPerPixel = params.gamma;
            ep.tileSize = params.tileSize;
            ep.layers = params.layers;
            ep.roi = &rois[b];
            return codec::encode(clean, ep);
        });
    size_t bytes = 0;
    bandBytes.clear();
    for (auto &enc : results) {
        bandBytes.push_back(enc.totalBytes());
        bytes += bandBytes.back();
        encoded.push_back(std::move(enc));
    }
    return bytes;
}

/** Fraction of (band, tile) pairs downloaded. */
double
downloadedFraction(const std::vector<raster::TileMask> &rois)
{
    double set = 0.0, total = 0.0;
    for (const auto &r : rois) {
        set += r.countSet();
        total += r.count();
    }
    return total > 0.0 ? set / total : 0.0;
}

/**
 * Per-band tiles of `img` that changed against `ref` (downsampled by
 * `factor` against the capture), judged on cloud-free pixels only and
 * never including a cloudy tile. Bands are handled separately (§5)
 * and are independent, so they fan across the pool.
 */
std::vector<raster::TileMask>
changedTiles(const raster::Image &img, const raster::Image &ref, int factor,
             const cloud::CloudDetection &cd, const SystemParams &params)
{
    raster::Bitmap valid = factor == 1
        ? cd.pixelMask
        : raster::downsampleAny(cd.pixelMask, factor);
    valid.invert();
    change::ChangeDetectorParams cp;
    cp.threshold = params.theta;
    cp.tileSize = params.tileSize;
    cp.referenceFactor = factor;
    return util::parallelMap(
        static_cast<size_t>(img.bandCount()), [&](size_t b) {
            change::ChangeDetection det = change::detectChanges(
                img.band(static_cast<int>(b)),
                ref.band(static_cast<int>(b)), cp, &valid);
            raster::TileMask roi = det.changedTiles;
            roi.subtract(cd.tileMask);
            return roi;
        });
}

/**
 * Ground reconstruction: decoded ROI tiles pasted over a fill image
 * (the ground's copy of the reference, or flat gray when absent).
 */
raster::Image
reconstruct(const std::vector<codec::EncodedImage> &encoded,
            const std::vector<raster::TileMask> &rois,
            const raster::Image *fill, int width, int height,
            int tileSize)
{
    raster::TileGrid grid(width, height, tileSize);
    // Bands decode independently; addBand order stays deterministic.
    auto planes = util::parallelMap(encoded.size(), [&](size_t b) {
        raster::Plane plane(width, height, 0.5f);
        if (fill && static_cast<int>(b) < fill->bandCount())
            plane = fill->band(static_cast<int>(b));
        raster::Plane decoded = codec::decode(encoded[b]);
        const raster::TileMask &roi = rois[b];
        for (int t = 0; t < grid.tileCount(); ++t) {
            if (!roi.get(t))
                continue;
            raster::TileRect r = grid.rect(t);
            plane.paste(decoded.crop(r.x0, r.y0, r.width, r.height),
                        r.x0, r.y0);
        }
        return plane;
    });
    raster::Image out;
    for (auto &p : planes)
        out.addBand(std::move(p));
    return out;
}

/** Mean PSNR across bands over non-cloudy pixels. */
double
meanPsnr(const raster::Image &truth, const raster::Image &recon,
         const raster::Bitmap &cloudTruth)
{
    raster::Bitmap valid = cloudTruth;
    valid.invert();
    double sum = 0.0;
    int n = 0;
    for (int b = 0; b < truth.bandCount(); ++b) {
        double p = raster::psnr(truth.band(b), recon.band(b), &valid);
        if (std::isinf(p))
            p = 99.0; // identical reconstruction; cap for averaging
        sum += p;
        ++n;
    }
    return n ? sum / n : 0.0;
}

} // anonymous namespace

OnboardSystem::OnboardSystem(std::vector<synth::BandSpec> bands,
                             const SystemParams &params, Clouds clouds)
    : params_(params), bands_(std::move(bands)), clouds_(clouds)
{
}

cloud::CloudDetection
OnboardSystem::detectClouds(const raster::Image &img,
                            const raster::TileGrid &grid) const
{
    switch (clouds_) {
      case Clouds::Cheap:
        return cloud::CheapCloudDetector().detect(img, bands_, grid);
      case Clouds::Accurate:
        return cloud::AccurateCloudDetector().detect(img, bands_, grid);
      case Clouds::None:
        break;
    }
    cloud::CloudDetection none;
    none.pixelMask = raster::Bitmap(img.width(), img.height(), false);
    none.tileMask = raster::TileMask(grid);
    return none;
}

bool
OnboardSystem::fullDownloadDue(int locationId, double day) const
{
    auto it = lastFullDownload_.find(locationId);
    return it == lastFullDownload_.end() ||
           day - it->second >= params_.guaranteedPeriodDays;
}

ProcessResult
OnboardSystem::process(const synth::Capture &capture)
{
    ProcessResult res;
    const raster::Image &img = capture.image;
    raster::TileGrid grid(img.width(), img.height(), params_.tileSize);

    auto t0 = std::chrono::steady_clock::now();
    cloud::CloudDetection cd = detectClouds(img, grid);
    if (clouds_ != Clouds::None)
        res.cloudDetectSec = secondsSince(t0);
    res.measuredCloudCoverage = cd.coverage;
    if (cd.coverage > params_.dropCloudFraction) {
        res.dropped = true;
        return res;
    }

    Selection sel = select(img.info());
    res.fullDownload = sel.fullDownload;
    res.referenceAgeDays = sel.referenceAgeDays;
    std::vector<raster::TileMask> rois;
    if (sel.reference && !sel.fullDownload) {
        auto t1 = std::chrono::steady_clock::now();
        rois = changedTiles(img, *sel.reference, sel.referenceFactor, cd,
                            params_);
        res.changeDetectSec = secondsSince(t1);
    } else {
        raster::TileMask roi(grid, true);
        roi.subtract(cd.tileMask);
        rois.assign(static_cast<size_t>(img.bandCount()), roi);
    }

    auto t2 = std::chrono::steady_clock::now();
    res.downlinkBytes = encodeBands(img, cd.pixelMask, rois, params_,
                                    res.encodedBands,
                                    res.bandDownlinkBytes);
    res.encodeSec = secondsSince(t2);
    res.downloadedTileFraction = downloadedFraction(rois);

    res.reconstructed = reconstruct(res.encodedBands, rois, sel.fill,
                                    img.width(), img.height(),
                                    params_.tileSize);
    res.reconstructed.info() = img.info();
    res.psnr = meanPsnr(img, res.reconstructed, capture.cloudTruth);

    if (res.fullDownload)
        lastFullDownload_[img.info().locationId] = img.info().captureDay;
    commit(capture, res);
    return res;
}

EarthPlusSystem::EarthPlusSystem(std::vector<synth::BandSpec> bands,
                                 const SystemParams &params,
                                 const UplinkPlanner::Params &uplinkParams,
                                 ReferenceStore &ground)
    : OnboardSystem(std::move(bands), params, Clouds::Cheap),
      planner_(uplinkParams), ground_(ground)
{
}

OnboardCache &
EarthPlusSystem::cacheFor(int satelliteId)
{
    auto it = caches_.find(satelliteId);
    if (it == caches_.end())
        it = caches_.emplace(satelliteId,
                             OnboardCache(params_.refDownsample,
                                          params_.tileSize)).first;
    return it->second;
}

UplinkPlan
EarthPlusSystem::prepareCapture(int locationId, int satelliteId,
                                orbit::DailyByteBudget &budget)
{
    OnboardCache &cache = cacheFor(satelliteId);
    UplinkPlan plan = planner_.planUpdate(ground_, cache, locationId,
                                          budget);
    if (plan.sent) {
        // Mirror the cache update at full resolution on the ground so
        // reconstruction uses exactly the content the satellite
        // compared against. The cache's low-res tiles map one to one
        // onto the full-res tiles of this grid.
        auto key = std::make_pair(satelliteId, locationId);
        const raster::Image &full = ground_.reference(locationId);
        if (plan.fullInstall || groundMirror_.count(key) == 0) {
            groundMirror_[key] = full;
        } else {
            raster::Image &mirror = groundMirror_[key];
            raster::TileGrid grid(mirror.width(), mirror.height(),
                                  params_.tileSize);
            for (int t = 0; t < grid.tileCount(); ++t) {
                if (plan.updatedTiles.count() == 0 ||
                    !plan.updatedTiles.get(t))
                    continue;
                raster::TileRect r = grid.rect(t);
                for (int b = 0; b < mirror.bandCount(); ++b)
                    mirror.band(b).paste(
                        full.band(b).crop(r.x0, r.y0, r.width, r.height),
                        r.x0, r.y0);
            }
            mirror.info() = full.info();
        }
    }
    return plan;
}

OnboardSystem::Selection
EarthPlusSystem::select(const raster::CaptureInfo &info)
{
    Selection sel;
    const OnboardCache &cache = cacheFor(info.satelliteId);
    if (cache.has(info.locationId)) {
        sel.reference = &cache.reference(info.locationId);
        sel.referenceFactor = cache.downsampleFactor();
        sel.referenceAgeDays =
            info.captureDay - cache.referenceDay(info.locationId);
    }
    sel.fullDownload = !sel.reference ||
                       fullDownloadDue(info.locationId, info.captureDay);
    // The ground reconstructs from its mirror of the satellite's cache.
    auto it = groundMirror_.find({info.satelliteId, info.locationId});
    if (it != groundMirror_.end())
        sel.fill = &it->second;
    return sel;
}

void
EarthPlusSystem::commit(const synth::Capture &capture,
                        const ProcessResult &res)
{
    // Offer the reconstruction as a fresh reference. The ground
    // re-detects clouds with its accurate detector; we model that
    // near-perfect detector with the ground-truth coverage (see
    // DESIGN.md). With a ground segment in the loop, ingestion instead
    // happens when the packetized download completes.
    if (!params_.externalGroundIngest)
        ground_.offer(res.reconstructed, capture.cloudCoverage);
}

KodanSystem::KodanSystem(std::vector<synth::BandSpec> bands,
                         const SystemParams &params)
    : OnboardSystem(std::move(bands), params, Clouds::Accurate)
{
}

SatRoISystem::SatRoISystem(std::vector<synth::BandSpec> bands,
                           const SystemParams &params)
    : OnboardSystem(std::move(bands), params, Clouds::Cheap)
{
}

OnboardSystem::Selection
SatRoISystem::select(const raster::CaptureInfo &info)
{
    // Full-resolution change detection against the frozen reference,
    // which also fills the undownloaded tiles on the ground.
    Selection sel;
    auto it = fixedRef_.find(info.locationId);
    if (it != fixedRef_.end()) {
        sel.reference = &it->second;
        sel.referenceAgeDays = info.captureDay - it->second.info().captureDay;
        sel.fill = &it->second;
    }
    sel.fullDownload = !sel.reference ||
                       fullDownloadDue(info.locationId, info.captureDay);
    return sel;
}

void
SatRoISystem::commit(const synth::Capture &capture, const ProcessResult &res)
{
    // The reference is fixed: set it from the first good full
    // download, never update afterwards [61].
    int loc = capture.image.info().locationId;
    if (res.fullDownload && capture.cloudCoverage < 0.05 &&
        fixedRef_.count(loc) == 0)
        fixedRef_[loc] = res.reconstructed;
}

DownloadAllSystem::DownloadAllSystem(std::vector<synth::BandSpec> bands,
                                     const SystemParams &params)
    : OnboardSystem(std::move(bands), params, Clouds::None)
{
}

OnboardSystem::Selection
DownloadAllSystem::select(const raster::CaptureInfo &)
{
    Selection sel;
    sel.fullDownload = true;
    return sel;
}

} // namespace earthplus::core
