#include "onboard.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "codec/codec.hh"
#include "ground/station.hh"
#include "orbit/links.hh"
#include "raster/tile.hh"
#include "synth/scene.hh"
#include "synth/weather.hh"
#include "util/parallel.hh"

namespace e2ebench {

using namespace earthplus;

namespace {

/** Rendered inputs kept across passes up to this many bytes. */
constexpr double kKeepInputsBytes = 192.0 * 1024 * 1024;
/** Downlinked captures a run needs before it stops adding locations. */
constexpr uint64_t kMinDownlinked = 100;
/** Reported PSNR must match the recomputed one this closely (dB). */
constexpr double kPsnrTolDb = 1e-6;
/** Floor the mean reconstruction PSNR must stay above (dB). */
constexpr double kPsnrFloorDb = 30.0;

/**
 * Derive the locations' scene seeds (land cover, texture, change
 * events) from the run's seed. Weather and sensor keep the dataset's
 * seed, so every run sees the same capture schedule, cloud days and
 * mix of full and delta downloads, and seeds differ in content only.
 */
void
seedLocations(synth::DatasetSpec &spec, uint64_t seed)
{
    for (size_t i = 0; i < spec.locations.size(); ++i)
        spec.locations[i].seed ^= mix64(seed * 131 + i + 1);
}

ground::GroundSegmentParams
groundSegment(uint64_t seed)
{
    ground::GroundSegmentParams gp;
    gp.enabled = true;
    gp.channel.lossProbability = kPacketLoss;
    gp.channel.seed = mix64(seed ^ 0x10557ULL);
    return gp;
}

/** Sum of max(0, bytes - gamma x coded pixels / 8) over bands. */
double
bytesOverBudget(const codec::EncodedImage &enc, double gamma)
{
    raster::TileGrid grid(enc.width, enc.height, enc.tileSize);
    double pixels = 0.0;
    for (int t = 0; t < grid.tileCount(); ++t) {
        if (!enc.tileCoded[static_cast<size_t>(t)])
            continue;
        raster::TileRect r = grid.rect(t);
        pixels += static_cast<double>(r.width) * r.height;
    }
    double over = static_cast<double>(enc.totalBytes()) - gamma * pixels / 8.0;
    return std::max(0.0, over);
}

/**
 * Place the stage times the program reports (cloud, change, encode)
 * as consecutive child spans from the start of process().
 */
void
traceStages(TraceBuffer &trace, uint64_t op, int32_t parent,
            uint64_t processStart, const core::ProcessResult &res)
{
    uint64_t t = processStart;
    auto stage = [&](const char *name, double sec) {
        if (sec <= 0.0)
            return;
        uint64_t dur = static_cast<uint64_t>(sec * 1e9);
        trace.add(name, op, parent, t, t + dur);
        t += dur;
    };
    stage("cloud.detect", res.cloudDetectSec);
    stage("change.detect", res.changeDetectSec);
    stage("codec.encode", res.encodeSec);
}

} // anonymous namespace

void
LayerTotals::add(const LayerTotals &o)
{
    ops += o.ops;
    downlinked += o.downlinked;
    uplinkMs += o.uplinkMs;
    uplinkBytes += o.uplinkBytes;
    processMs += o.processMs;
    cloudMs += o.cloudMs;
    changeMs += o.changeMs;
    encodeMs += o.encodeMs;
    serializeMs += o.serializeMs;
    downlinkMs += o.downlinkMs;
    codedTileFraction += o.codedTileFraction;
    headerBytes += o.headerBytes;
    bytesOverBudget += o.bytesOverBudget;
    refAgeSum += o.refAgeSum;
    refAgeCount += o.refAgeCount;
    cacheBytes += o.cacheBytes;
    cacheSamples += o.cacheSamples;
    packets += o.packets;
    retransmits += o.retransmits;
    airBytes += o.airBytes;
    landed += o.landed;
    lost += o.lost;
    payloadBytes += o.payloadBytes;
    psnrSum += o.psnrSum;
    stationOpenSec.insert(stationOpenSec.end(), o.stationOpenSec.begin(),
                          o.stationOpenSec.end());
    latencyMs.insert(latencyMs.end(), o.latencyMs.begin(),
                     o.latencyMs.end());
}

OnboardSetup
planetSetup(uint64_t seed, int locations)
{
    OnboardSetup s;
    s.spec = synth::largeConstellationDataset();
    synth::LocationProfile coastal = s.spec.locations.front();
    s.spec.locations.clear();
    for (int i = 0; i < locations; ++i) {
        synth::LocationProfile p = coastal;
        p.locationId = i;
        p.name = coastal.name + "-" + std::to_string(i);
        s.spec.locations.push_back(p);
    }
    seedLocations(s.spec, seed);
    s.kind = core::SystemKind::EarthPlus;
    s.params.groundSegment = groundSegment(seed);
    return s;
}

OnboardSetup
sentinelSetup(uint64_t seed)
{
    OnboardSetup s;
    s.spec = synth::richContentDataset();
    seedLocations(s.spec, seed);
    s.kind = core::SystemKind::Kodan;
    s.params.groundSegment = groundSegment(seed);
    return s;
}

LocationInputs
setUpLocation(const OnboardSetup &setup, int locIdx, int threads)
{
    const synth::DatasetSpec &spec = setup.spec;
    LocationInputs in;
    uint64_t t0 = nowNs();
    in.locIdx = locIdx;
    int locationId = spec.locations[static_cast<size_t>(locIdx)].locationId;
    in.schedule = synth::constellationSchedule(spec, locationId);

    // The same scene, weather and sensor configuration
    // LocationSimulation builds.
    synth::SceneConfig sc;
    sc.width = spec.width;
    sc.height = spec.height;
    sc.tileSize = spec.tileSize;
    sc.bands = spec.bands;
    sc.historyStartDay = spec.startDay - 120.0;
    sc.horizonDays = spec.endDay + 30.0;
    synth::WeatherParams wp;
    wp.seed = spec.seed ^ 0x77ea77e5ULL;
    synth::WeatherProcess weather(wp);
    synth::SensorParams sp;
    sp.seed = spec.seed ^ 0x5e45042ULL;

    std::vector<std::pair<double, int>> toRender;
    for (const auto &[day, sat] : in.schedule) {
        bool keep = true;
        if (spec.maxCloudCoverage < 1.0) {
            int dayIdx = static_cast<int>(std::floor(day));
            keep = weather.coverage(locationId, dayIdx) <=
                   spec.maxCloudCoverage;
        }
        in.kept.push_back(keep ? 1 : 0);
        if (keep)
            toRender.emplace_back(day, sat);
    }

    // Each thread renders every threads-th capture from its own scene
    // (SceneModel memoizes internally and is not thread-safe).
    uint64_t r0 = nowNs();
    in.captures.resize(toRender.size());
    int n = std::max(1, std::min<int>(threads,
                                      static_cast<int>(toRender.size())));
    std::vector<std::thread> workers;
    for (int w = 0; w < n; ++w)
        workers.emplace_back([&, w] {
            synth::SceneModel scene(
                spec.locations[static_cast<size_t>(locIdx)], sc);
            synth::CaptureSimulator sim(scene, weather, sp);
            for (size_t i = static_cast<size_t>(w); i < toRender.size();
                 i += static_cast<size_t>(n))
                in.captures[i] =
                    sim.capture(toRender[i].first, toRender[i].second);
        });
    for (auto &t : workers)
        t.join();
    uint64_t t1 = nowNs();
    in.renderSec = secBetween(r0, t1);
    in.setupSec = secBetween(t0, t1);
    return in;
}

double
independentPsnr(const raster::Image &truth, const raster::Image &recon,
                const raster::Bitmap &cloudTruth)
{
    double sum = 0.0;
    int bands = truth.bandCount();
    for (int b = 0; b < bands; ++b) {
        const raster::Plane &t = truth.band(b);
        const raster::Plane &r = recon.band(b);
        double se = 0.0;
        size_t n = 0;
        for (int y = 0; y < t.height(); ++y)
            for (int x = 0; x < t.width(); ++x) {
                if (cloudTruth.get(x, y))
                    continue;
                double d = static_cast<double>(t.at(x, y)) - r.at(x, y);
                se += d * d;
                ++n;
            }
        double mse = n ? se / static_cast<double>(n) : 0.0;
        sum += mse > 0.0 ? 10.0 * std::log10(1.0 / mse) : 99.0;
    }
    return bands ? sum / bands : 0.0;
}

bool
sameSummary(const core::SimSummary &a, const core::SimSummary &b,
            std::string *why)
{
    auto differ = [&](const char *what) {
        if (why)
            *why = what;
        return false;
    };
    if (a.captures.size() != b.captures.size())
        return differ("capture count");
    if (a.totalDownlinkBytes != b.totalDownlinkBytes)
        return differ("total downlink bytes");
    if (a.totalUplinkBytes != b.totalUplinkBytes)
        return differ("total uplink bytes");
    if (a.meanPsnr != b.meanPsnr)
        return differ("mean PSNR");
    if (a.meanReferenceAgeDays != b.meanReferenceAgeDays)
        return differ("mean reference age");
    if (a.processedCount != b.processedCount)
        return differ("processed count");
    if (a.droppedCount != b.droppedCount)
        return differ("dropped count");
    if (a.fullDownloadCount != b.fullDownloadCount)
        return differ("full download count");
    const ground::StationStats &x = a.groundStats;
    const ground::StationStats &y = b.groundStats;
    if (x.capturesCompleted != y.capturesCompleted ||
        x.capturesFailed != y.capturesFailed ||
        x.capturesByteIdentical != y.capturesByteIdentical ||
        x.lastCompletionDay != y.lastCompletionDay)
        return differ("station capture stats");
    if (x.channel.packetsSent != y.channel.packetsSent ||
        x.channel.packetsLost != y.channel.packetsLost ||
        x.channel.packetsRetransmitted != y.channel.packetsRetransmitted ||
        x.channel.bytesSent != y.channel.bytesSent ||
        x.channel.streamsCompleted != y.channel.streamsCompleted ||
        x.channel.streamsFailed != y.channel.streamsFailed)
        return differ("channel stats");
    return true;
}

LocationOutcome
runLocation(const OnboardSetup &setup, const LocationInputs &inputs,
            PhaseClock &clock, TraceBuffer &trace, uint64_t &opCounter,
            RunResult &result, std::vector<CollectedCapture> *collect)
{
    const synth::DatasetSpec &spec = setup.spec;
    int locationId =
        spec.locations[static_cast<size_t>(inputs.locIdx)].locationId;
    LocationOutcome out;
    core::SimSummary &summary = out.summary;
    LayerTotals &lt = out.totals;

    // The objects LocationSimulation builds when the ground segment
    // is enabled: downloads reach the reference store on completion.
    core::SimParams params = setup.params;
    params.system.externalGroundIngest = true;
    core::ReferenceStore store(params.maxCloudForReference);
    uint64_t s0 = nowNs();
    ground::GroundStation station(
        params.groundSegment,
        [&store](const ground::CaptureDownload &download) {
            store.offer(download.reconstructed, download.cloudFraction);
        });
    lt.stationOpenSec.push_back(secBetween(s0, nowNs()));
    std::unique_ptr<core::OnboardSystem> system;
    core::EarthPlusSystem *earthPlus = nullptr;
    if (setup.kind == core::SystemKind::EarthPlus) {
        auto sys = std::make_unique<core::EarthPlusSystem>(
            spec.bands, params.system, params.uplink, store);
        earthPlus = sys.get();
        system = std::move(sys);
    } else {
        system = std::make_unique<core::KodanSystem>(spec.bands,
                                                     params.system);
    }

    // What the benchmark handed to the station, per (satellite, day).
    std::map<std::pair<int, double>, std::vector<std::vector<uint8_t>>>
        submitted;
    std::set<int> satellites;

    orbit::DailyByteBudget uplinkBudget(params.uplinkBytesPerDay);
    double currentDay = std::floor(spec.startDay) - 1.0;
    size_t captureIdx = 0;
    clock.resume();
    for (size_t i = 0; i < inputs.schedule.size(); ++i) {
        const auto &[day, satelliteId] = inputs.schedule[i];
        if (std::floor(day) > currentDay) {
            currentDay = std::floor(day);
            uplinkBudget.startDay();
        }
        if (!inputs.kept[i])
            continue;
        const synth::Capture &cap = inputs.captures[captureIdx++];
        uint64_t op = ++opCounter;
        ++lt.ops;
        satellites.insert(satelliteId);

        core::CaptureMetrics m;
        m.day = day;
        m.satelliteId = satelliteId;

        ScopedSpan root(trace, "capture", op, -1);
        uint64_t tAdvance = nowNs();
        {
            ScopedSpan s(trace, "ground.downlink", op, root.index());
            station.advanceTo(day);
        }
        uint64_t tUplink = nowNs();
        lt.downlinkMs += msBetween(tAdvance, tUplink);
        if (earthPlus) {
            ScopedSpan s(trace, "core.uplink", op, root.index());
            core::UplinkPlan plan = earthPlus->prepareCapture(
                locationId, satelliteId, uplinkBudget);
            m.uplinkBytes = plan.bytes;
            summary.totalUplinkBytes += plan.bytes;
            lt.uplinkBytes += plan.bytes;
        }
        uint64_t tProcess = nowNs();
        lt.uplinkMs += msBetween(tUplink, tProcess);
        core::ProcessResult res;
        {
            ScopedSpan s(trace, "core.process", op, root.index());
            res = system->process(cap);
            if (trace.enabled())
                traceStages(trace, op, s.index(),
                            trace.spans()[static_cast<size_t>(s.index())]
                                .startNs,
                            res);
        }
        uint64_t tProcessed = nowNs();
        lt.processMs += msBetween(tProcess, tProcessed);
        lt.cloudMs += res.cloudDetectSec * 1e3;
        lt.changeMs += res.changeDetectSec * 1e3;
        lt.encodeMs += res.encodeSec * 1e3;

        m.dropped = res.dropped;
        m.fullDownload = res.fullDownload;
        m.downlinkBytes = res.downlinkBytes;
        m.downloadedTileFraction = res.downloadedTileFraction;
        m.psnr = res.psnr;
        m.referenceAgeDays = res.referenceAgeDays;
        m.cloudDetectSec = res.cloudDetectSec;
        m.changeDetectSec = res.changeDetectSec;
        m.encodeSec = res.encodeSec;
        summary.captures.push_back(m);

        if (res.dropped) {
            ++summary.droppedCount;
            continue;
        }

        ground::CaptureDownload download;
        download.locationId = locationId;
        download.satelliteId = satelliteId;
        download.captureDay = day;
        download.referenceDay = std::isfinite(res.referenceAgeDays)
                                    ? day - res.referenceAgeDays
                                    : -1.0;
        download.fullDownload = res.fullDownload;
        {
            ScopedSpan s(trace, "codec.serialize", op, root.index());
            for (const auto &enc : res.encodedBands)
                download.bandPayloads.push_back(enc.serialize());
        }
        uint64_t tSerialized = nowNs();
        lt.serializeMs += msBetween(tProcessed, tSerialized);

        // Checks and bookkeeping stay outside the timed phase.
        clock.pause();
        {
            ScopedSpan s(trace, "bench.check", op, root.index());
            double psnr = independentPsnr(cap.image, res.reconstructed,
                                          cap.cloudTruth);
            if (std::fabs(psnr - res.psnr) > kPsnrTolDb)
                result.problem("recomputed PSNR " + std::to_string(psnr) +
                               " != reported " + std::to_string(res.psnr));
            lt.psnrSum += psnr;
            double coded = 0.0;
            for (const auto &enc : res.encodedBands) {
                coded += enc.codedTileFraction();
                lt.headerBytes += static_cast<double>(enc.headerBytes());
                lt.bytesOverBudget +=
                    bytesOverBudget(enc, params.system.gamma);
            }
            if (!res.encodedBands.empty())
                lt.codedTileFraction +=
                    coded / static_cast<double>(res.encodedBands.size());
            if (std::isfinite(res.referenceAgeDays)) {
                lt.refAgeSum += res.referenceAgeDays;
                ++lt.refAgeCount;
            }
            submitted[{satelliteId, day}] = download.bandPayloads;
            if (collect) {
                CollectedCapture c;
                c.locationId = locationId;
                c.satelliteId = satelliteId;
                c.day = day;
                c.referenceDay = download.referenceDay;
                c.fullDownload = download.fullDownload;
                c.payloads = download.bandPayloads;
                c.truth = cap.image;
                c.cloudTruth = cap.cloudTruth;
                collect->push_back(std::move(c));
            }
        }
        download.reconstructed = std::move(res.reconstructed);
        download.cloudFraction = cap.cloudCoverage;
        clock.resume();

        uint64_t tSubmit = nowNs();
        {
            ScopedSpan s(trace, "ground.downlink", op, root.index());
            station.submit(std::move(download));
        }
        uint64_t tDone = nowNs();
        lt.downlinkMs += msBetween(tSubmit, tDone);
        lt.latencyMs.push_back(msBetween(tUplink, tSerialized) +
                               msBetween(tSubmit, tDone));

        ++summary.processedCount;
        ++lt.downlinked;
        lt.payloadBytes += static_cast<double>(res.downlinkBytes);
        summary.totalDownlinkBytes += static_cast<double>(res.downlinkBytes);
        if (summary.bandDownlinkBytes.size() < res.bandDownlinkBytes.size())
            summary.bandDownlinkBytes.resize(res.bandDownlinkBytes.size(),
                                             0.0);
        for (size_t b = 0; b < res.bandDownlinkBytes.size(); ++b)
            summary.bandDownlinkBytes[b] +=
                static_cast<double>(res.bandDownlinkBytes[b]);
        summary.meanPsnr += res.psnr;
        summary.meanDownloadedFraction += res.downloadedTileFraction;
        if (std::isfinite(res.referenceAgeDays)) {
            summary.meanReferenceAgeDays += res.referenceAgeDays;
            ++summary.referencedCount;
        }
        if (res.fullDownload)
            ++summary.fullDownloadCount;
    }

    // Flush the downlink as run() does.
    const ground::GroundSegmentParams &gp = params.groundSegment;
    double flushDays =
        std::ceil(static_cast<double>(gp.channel.retentionContacts) /
                  static_cast<double>(std::max(gp.contactsPerDay, 1))) +
        1.0;
    double lastDay = inputs.schedule.empty() ? spec.endDay
                                             : inputs.schedule.back().first;
    uint64_t tFlush = nowNs();
    {
        ScopedSpan s(trace, "ground.downlink", 0, -1);
        station.advanceTo(lastDay + flushDays);
    }
    lt.downlinkMs += msBetween(tFlush, nowNs());
    clock.pause();

    if (summary.processedCount > 0) {
        double n = static_cast<double>(summary.processedCount);
        summary.meanPsnr /= n;
        summary.meanDownloadedFraction /= n;
    }
    if (summary.referencedCount > 0)
        summary.meanReferenceAgeDays /=
            static_cast<double>(summary.referencedCount);
    summary.groundEnabled = true;
    summary.groundStats = station.stats();

    const ground::StationStats &st = summary.groundStats;
    lt.packets += st.channel.packetsSent;
    lt.retransmits += st.channel.packetsRetransmitted;
    lt.airBytes += st.channel.bytesSent;
    lt.landed += st.capturesCompleted;
    lt.lost += st.capturesFailed;
    if (earthPlus) {
        double bytes = 0.0;
        for (int sat : satellites)
            bytes += static_cast<double>(
                earthPlus->cacheFor(sat).storageBytes());
        lt.cacheBytes += bytes;
        ++lt.cacheSamples;
    }

    // Every landed payload, read back through the archive, must be
    // byte-identical to what the benchmark handed to the station.
    const ground::Archive &archive = station.archive();
    std::map<std::pair<int, double>, int> bandsLanded;
    for (size_t idx = 0; idx < archive.recordCount(); ++idx) {
        ground::RecordEntry e = archive.record(idx);
        auto it = submitted.find({e.meta.satelliteId, e.meta.captureDay});
        ground::PayloadView view = archive.payloadView(idx);
        if (it == submitted.end() || e.meta.band < 0 ||
            e.meta.band >= static_cast<int>(it->second.size())) {
            result.problem("archive holds a record nobody submitted");
            continue;
        }
        const std::vector<uint8_t> &want =
            it->second[static_cast<size_t>(e.meta.band)];
        if (view.size() != want.size() ||
            !std::equal(want.begin(), want.end(), view.data()))
            result.problem("landed payload differs from the submitted bytes");
        ++bandsLanded[{e.meta.satelliteId, e.meta.captureDay}];
    }
    uint64_t complete = 0;
    for (const auto &[key, payloads] : submitted)
        if (bandsLanded[key] == static_cast<int>(payloads.size()))
            ++complete;
    if (complete != st.capturesCompleted ||
        st.capturesByteIdentical != st.capturesCompleted)
        result.problem("landed captures disagree with the station's count");
    return out;
}

namespace {

/** The on-board workloads: passes over a seed-chosen set of locations. */
int
runOnboard(const Options &opts, const OnboardSetup &setup, RunResult &out)
{
    util::ThreadPool::setGlobalThreads(kOnboardThreads);
    TraceBuffer trace(opts.trace);
    PhaseClock clock;
    uint64_t opCounter = 0;

    // Pass 1 takes locations in order until enough captures went down;
    // later passes repeat the same locations until the run has measured
    // opts.seconds. Inputs are kept between passes when they fit.
    std::vector<LocationInputs> kept;
    std::vector<LocationOutcome> first;
    std::vector<double> setupSec;
    double renderSec = 0.0;
    uint64_t rendered = 0;
    LayerTotals all;
    uint64_t downlinked = 0;
    double inputBytes = 0.0;
    int maxLocations = static_cast<int>(setup.spec.locations.size());
    for (int l = 0; l < maxLocations && downlinked < kMinDownlinked; ++l) {
        LocationInputs in = setUpLocation(setup, l, kOnboardThreads);
        setupSec.push_back(in.setupSec);
        renderSec += in.renderSec;
        rendered += in.captures.size();
        LocationOutcome o =
            runLocation(setup, in, clock, trace, opCounter, out, nullptr);
        downlinked += o.totals.downlinked;
        all.add(o.totals);
        for (const auto &c : in.captures)
            inputBytes += static_cast<double>(c.image.pixelBytes());
        first.push_back(std::move(o));
        kept.push_back(std::move(in));
        if (inputBytes > kKeepInputsBytes)
            for (auto &k : kept)
                k.captures.clear();
    }
    if (downlinked < kMinDownlinked)
        out.problem("fewer than 100 downlinked captures in the whole dataset");
    bool keepInputs = inputBytes <= kKeepInputsBytes;
    int passes = 1;
    while (clock.wallSec() < opts.seconds) {
        ++passes;
        for (size_t l = 0; l < first.size(); ++l) {
            LocationInputs fresh;
            const LocationInputs *in = &kept[l];
            if (!keepInputs) {
                fresh = setUpLocation(setup, kept[l].locIdx, kOnboardThreads);
                in = &fresh;
            }
            LocationOutcome o =
                runLocation(setup, *in, clock, trace, opCounter, out, nullptr);
            std::string why;
            if (!sameSummary(o.summary, first[l].summary, &why))
                out.problem("pass " + std::to_string(passes) +
                            " differs from pass 1: " + why);
            all.add(o.totals);
        }
    }
    kept.clear();

    // Loop fidelity: the benchmark's loop must reproduce run() on the
    // first location exactly.
    {
        core::LocationSimulation sim(setup.spec, 0, setup.kind, setup.params);
        core::SimSummary ref = sim.run();
        std::string why;
        if (!sameSummary(first.front().summary, ref, &why))
            out.problem("benchmark loop differs from LocationSimulation::run()"
                        " on location 0: " + why);
    }

    // Deterministic figures come from pass 1, timings from every pass.
    LayerTotals p1;
    for (const auto &o : first)
        p1.add(o.totals);
    double dl = static_cast<double>(std::max<uint64_t>(p1.downlinked, 1));
    double ops = static_cast<double>(std::max<uint64_t>(all.ops, 1));
    double psnr = p1.psnrSum / dl;
    if (psnr < kPsnrFloorDb)
        out.problem("mean PSNR " + std::to_string(psnr) + " below floor");
    // A capture lost to the retention window is a failed operation.
    out.attempted = all.ops;
    out.failed = all.lost;

    Metrics &m = out.metrics;
    if (!opts.trace) {
        m.set("setup_s", median(setupSec), "s");
        m.set("ops_per_s", ops / clock.wallSec(), "1/s");
        m.set("latency_ms_p50", percentile(all.latencyMs, 0.5), "ms");
        m.set("latency_ms_p90", percentile(all.latencyMs, 0.9), "ms");
        m.set("cpu_ms_per_op", clock.cpuSec() * 1e3 / ops, "ms");
        m.set("rss_mb", peakRssMb(), "MiB");
        m.set("downlink_bytes_per_capture", p1.payloadBytes / dl, "B");
        m.set("downlink_air_bytes_per_capture",
              static_cast<double>(p1.airBytes) / dl, "B");
        m.set("psnr_db", psnr, "dB");
        m.set("ingest_captures_per_s",
              static_cast<double>(all.landed) / (all.downlinkMs * 1e-3),
              "1/s");
        return 0;
    }

    TraceReport tr = finishTrace(opts, {&trace});
    if (tr.mismatchedOps > 0)
        out.problem(std::to_string(tr.mismatchedOps) +
                    " traced operations whose layer self-times miss "
                    "their wall time");
    double p1ops = static_cast<double>(std::max<uint64_t>(p1.ops, 1));
    m.set("synth.render_ms_per_capture",
          renderSec * 1e3 / static_cast<double>(std::max<uint64_t>(rendered, 1)),
          "ms");
    m.set("core.uplink_ms_per_capture", all.uplinkMs / ops, "ms");
    m.set("core.uplink_bytes_per_capture", p1.uplinkBytes / p1ops, "B");
    m.set("core.reference_age_days",
          p1.refAgeCount ? p1.refAgeSum / static_cast<double>(p1.refAgeCount)
                         : 0.0,
          "d");
    m.set("core.onboard_cache_bytes",
          p1.cacheSamples ? p1.cacheBytes / static_cast<double>(p1.cacheSamples)
                          : 0.0,
          "B");
    m.set("core.process_ms_per_capture", all.processMs / ops, "ms");
    m.set("core.reconstruct_ms_per_capture",
          (all.processMs - all.cloudMs - all.changeMs - all.encodeMs) / ops,
          "ms");
    m.set("cloud.detect_ms_per_capture", all.cloudMs / ops, "ms");
    m.set("change.detect_ms_per_capture", all.changeMs / ops, "ms");
    m.set("codec.encode_ms_per_capture", all.encodeMs / ops, "ms");
    m.set("codec.serialize_ms_per_capture", all.serializeMs / ops, "ms");
    m.set("codec.coded_tile_fraction", p1.codedTileFraction / dl, "ratio");
    m.set("codec.header_bytes_per_capture", p1.headerBytes / dl, "B");
    m.set("codec.bytes_over_budget_per_capture", p1.bytesOverBudget / dl,
          "B");
    m.set("ground.downlink_ms_per_capture", all.downlinkMs / ops, "ms");
    m.set("ground.packets_per_capture", static_cast<double>(p1.packets) / dl,
          "count");
    m.set("ground.retransmits_per_capture",
          static_cast<double>(p1.retransmits) / dl, "count");
    m.set("ground.archive_open_s", median(all.stationOpenSec), "s");
    for (const char *name :
         {"ground.serve_ms_p50", "ground.serve_ms_p99", "net.overhead_ms_p50",
          "net.overhead_ms_p99", "net.roundtrip_ms_p99"})
        m.set(name, 0.0, "ms");
    for (const char *name :
         {"ground.tiles_decoded_per_query", "ground.tiles_cached_per_query",
          "ground.tiles_coalesced_per_query"})
        m.set(name, 0.0, "count");
    m.set("trace.ops_per_s", ops / clock.wallSec(), "1/s");
    m.set("trace.latency_ms_p50", percentile(all.latencyMs, 0.5), "ms");
    m.set("trace.spans_per_op",
          static_cast<double>(tr.spans) / ops, "count");
    return 0;
}

} // anonymous namespace

int
runPlanetEarthPlus(const Options &opts, RunResult &out)
{
    return runOnboard(opts, planetSetup(opts.seed, 64), out);
}

int
runSentinelKodan(const Options &opts, RunResult &out)
{
    return runOnboard(opts, sentinelSetup(opts.seed), out);
}

} // namespace e2ebench
