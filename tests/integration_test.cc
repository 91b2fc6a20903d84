/**
 * @file
 * End-to-end integration tests: full LocationSimulation runs on shrunk
 * datasets, checking the paper's qualitative results hold through the
 * whole pipeline (capture -> uplink -> on-board -> downlink -> ground).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "ground/crc32.hh"
#include "util/parallel.hh"
#include "util/simd.hh"

using namespace earthplus;
using namespace earthplus::core;

namespace {

synth::DatasetSpec
smallPlanet(double days = 40.0)
{
    synth::DatasetSpec spec = synth::largeConstellationDataset(128, 128);
    // Summer-centric window: weather is seasonal and a winter slice
    // has too few processable captures for meaningful statistics.
    spec.startDay = 120.0;
    spec.endDay = 120.0 + days;
    return spec;
}

synth::DatasetSpec
smallSentinel(double days = 60.0)
{
    synth::DatasetSpec spec = synth::richContentDataset(128, 128);
    spec.startDay = 120.0;
    spec.endDay = 120.0 + days;
    // Keep the run quick: RGB only (band subsetting is supported).
    spec.bands = {spec.bands[1], spec.bands[2], spec.bands[3],
                  spec.bands[11]};
    return spec;
}

} // namespace

TEST(Integration, EarthPlusBeatsBaselinesOnDownlink)
{
    // Long enough that SatRoI's fixed reference ages materially.
    synth::DatasetSpec spec = smallPlanet(75.0);
    SimParams params;
    params.system.refDownsample = 16;

    SimSummary ep =
        LocationSimulation(spec, 0, SystemKind::EarthPlus, params).run();
    SimSummary kodan =
        LocationSimulation(spec, 0, SystemKind::Kodan, params).run();
    SimSummary satroi =
        LocationSimulation(spec, 0, SystemKind::SatRoI, params).run();
    SimSummary all =
        LocationSimulation(spec, 0, SystemKind::DownloadAll, params).run();

    ASSERT_GT(ep.processedCount, 5);
    ASSERT_EQ(ep.processedCount, kodan.processedCount);

    // The headline result: Earth+ uses materially less downlink than
    // both baselines and massively less than downloading everything.
    EXPECT_LT(ep.totalDownlinkBytes, 0.7 * kodan.totalDownlinkBytes);
    EXPECT_LT(ep.totalDownlinkBytes, all.totalDownlinkBytes * 0.5);
    EXPECT_LE(ep.totalDownlinkBytes, satroi.totalDownlinkBytes * 1.05);

    // ... without a quality collapse (same gamma everywhere).
    EXPECT_GT(ep.meanPsnr, 32.0); // absolute floor; see Fig. 11 note
    EXPECT_GT(ep.meanPsnr, 28.0);

    // Earth+ actually uses the uplink; baselines do not.
    EXPECT_GT(ep.totalUplinkBytes, 0.0);
    EXPECT_EQ(kodan.totalUplinkBytes, 0.0);
}

TEST(Integration, ConstellationKeepsReferencesFresh)
{
    // Constellation-wide sharing (many satellites) vs satellite-local
    // (a single satellite): the reference age gap of Fig. 5.
    synth::DatasetSpec constellation = smallPlanet(60.0);
    // Disable the Planet <5% dataset filter so the single-satellite
    // run has enough captures to compare.
    constellation.maxCloudCoverage = 1.0;
    SimParams params;

    SimSummary wide =
        LocationSimulation(constellation, 0, SystemKind::EarthPlus,
                           params).run();

    synth::DatasetSpec local = constellation;
    local.satelliteCount = 1;
    local.revisitDays = 10.0;
    SimSummary single =
        LocationSimulation(local, 0, SystemKind::EarthPlus, params).run();

    ASSERT_GT(wide.processedCount, 10);
    ASSERT_GT(single.processedCount, 1);
    EXPECT_LT(wide.meanReferenceAgeDays, single.meanReferenceAgeDays);
    // Constellation-wide references stay a handful of days old.
    EXPECT_LT(wide.meanReferenceAgeDays, 10.0);
}

TEST(Integration, SatRoIReferenceAgesGrowUnbounded)
{
    synth::DatasetSpec spec = smallPlanet(60.0);
    SimParams params;
    // Disable guaranteed downloads to watch pure reference aging.
    params.system.guaranteedPeriodDays = 1e9;
    SimSummary ep =
        LocationSimulation(spec, 0, SystemKind::EarthPlus, params).run();
    SimSummary sr =
        LocationSimulation(spec, 0, SystemKind::SatRoI, params).run();
    ASSERT_GT(sr.processedCount, 5);
    EXPECT_GT(sr.meanReferenceAgeDays, 2.0 * ep.meanReferenceAgeDays);
}

TEST(Integration, UplinkBudgetShortageDegradesGracefully)
{
    synth::DatasetSpec spec = smallPlanet(50.0);
    SimParams ample;
    SimParams tight;
    tight.uplinkBytesPerDay = 200.0; // far below one reference update

    SimSummary a =
        LocationSimulation(spec, 0, SystemKind::EarthPlus, ample).run();
    SimSummary t =
        LocationSimulation(spec, 0, SystemKind::EarthPlus, tight).run();

    ASSERT_EQ(a.captures.size(), t.captures.size());
    // Starved uplink -> no reference updates get through -> older (or
    // absent) references -> at least as much downlink.
    EXPECT_LT(t.totalUplinkBytes, a.totalUplinkBytes);
    EXPECT_GE(t.totalDownlinkBytes, a.totalDownlinkBytes);
}

TEST(Integration, GuaranteedDownloadsHappenMonthly)
{
    synth::DatasetSpec spec = smallPlanet(75.0);
    SimParams params;
    SimSummary s =
        LocationSimulation(spec, 0, SystemKind::EarthPlus, params).run();
    // 75 days with a 30-day period: bootstrap + at least one periodic
    // guaranteed download.
    EXPECT_GE(s.fullDownloadCount, 2);
    // And they are a small minority of captures.
    EXPECT_LT(s.fullDownloadCount, s.processedCount / 2 + 2);
}

TEST(Integration, RefDownsampleAloneSetsReferenceGeometry)
{
    // SystemParams::refDownsample is the one knob for the reference
    // geometry: the uplink planner takes the downsampling factor and
    // low-res tile size from the on-board cache it updates, so a
    // non-default factor runs end to end and codes captures against
    // a reference.
    synth::DatasetSpec spec = smallPlanet(40.0);
    SimParams params;
    params.system.refDownsample = 8;
    SimSummary s =
        LocationSimulation(spec, 0, SystemKind::EarthPlus, params).run();
    int referenceBased = 0;
    for (const CaptureMetrics &c : s.captures)
        if (!c.dropped && !c.fullDownload)
            ++referenceBased;
    EXPECT_GT(referenceBased, 0);
    EXPECT_GT(s.totalUplinkBytes, 0.0);
}

TEST(Integration, RichContentDatasetRuns)
{
    synth::DatasetSpec spec = smallSentinel(40.0);
    SimParams params;
    params.maxCaptures = 10;
    SimSummary ep =
        LocationSimulation(spec, 0, SystemKind::EarthPlus, params).run();
    SimSummary kd =
        LocationSimulation(spec, 0, SystemKind::Kodan, params).run();
    // Sentinel keeps cloudy captures in the dataset, so drops occur.
    EXPECT_GT(ep.captures.size(), 0u);
    EXPECT_GT(ep.meanPsnr, 24.0);
    EXPECT_GT(kd.meanPsnr, 22.0);
}

TEST(Integration, SnowyLocationBenefitsLess)
{
    // Fig. 14: snowy location H barely improves over the baseline
    // because snow albedo keeps changing. Compare downloaded-tile
    // fractions of Earth+ between a snowy and a non-snowy location in
    // winter.
    synth::DatasetSpec spec = synth::richContentDataset(128, 128);
    spec.bands = {spec.bands[1], spec.bands[2], spec.bands[3],
                  spec.bands[11]};
    spec.startDay = 330.0; // winter
    spec.endDay = 365.0;
    SimParams params;
    params.system.guaranteedPeriodDays = 1e9;

    // Location B: forest (non-snowy); location H: snowy mountains.
    SimSummary forest =
        LocationSimulation(spec, 1, SystemKind::EarthPlus, params).run();
    SimSummary snowy =
        LocationSimulation(spec, 7, SystemKind::EarthPlus, params).run();
    if (forest.processedCount < 2 || snowy.processedCount < 2)
        GTEST_SKIP() << "not enough clear winter captures";
    EXPECT_GT(snowy.meanDownloadedFraction,
              forest.meanDownloadedFraction);
}

TEST(Integration, MetricsAreInternallyConsistent)
{
    synth::DatasetSpec spec = smallPlanet(30.0);
    SimParams params;
    SimSummary s =
        LocationSimulation(spec, 0, SystemKind::EarthPlus, params).run();
    double bytes = 0.0;
    int processed = 0, dropped = 0;
    for (const auto &c : s.captures) {
        if (c.dropped) {
            ++dropped;
            EXPECT_EQ(c.downlinkBytes, 0u);
            continue;
        }
        ++processed;
        bytes += static_cast<double>(c.downlinkBytes);
        EXPECT_GE(c.psnr, 0.0);
        EXPECT_GE(c.downloadedTileFraction, 0.0);
        EXPECT_LE(c.downloadedTileFraction, 1.0);
    }
    EXPECT_EQ(processed, s.processedCount);
    EXPECT_EQ(dropped, s.droppedCount);
    EXPECT_DOUBLE_EQ(bytes, s.totalDownlinkBytes);
    EXPECT_GT(s.requiredDownlinkMbps(600.0), 0.0);
    EXPECT_NEAR(s.requiredDownlinkMbps(600.0, 2.0),
                2.0 * s.requiredDownlinkMbps(600.0), 1e-9);
}

namespace {

/** The IEEE-754 bit pattern of `v` (bit-equality, NaN- and -0-safe). */
uint64_t
bits(double v)
{
    uint64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

/** One simulation run of the determinism test and its golden digest. */
struct GoldenRun
{
    const char *label; ///< Row name printed on regeneration.
    SystemKind kind;   ///< System under simulation.
    bool ground;       ///< Route downloads through the ground segment.
    uint32_t crc;      ///< summaryDigest() recorded for this run.
};

/**
 * Every system on the Planet-like slice, plus Earth+ with the ground
 * segment on (lossy downlink with ARQ, in-memory archive), which
 * exercises the commit path where references reach the store only
 * when their download completes. The digests pin every non-timing
 * output bit for bit, so a refactor of the pipeline must leave them
 * unchanged. Regenerate only for a deliberate output change, by
 * running this binary with EARTHPLUS_PRINT_GOLDEN=1 and pasting the
 * printed rows.
 */
const GoldenRun kGoldenRuns[] = {
    {"Earth+", SystemKind::EarthPlus, false, 0x1D80305Cu},
    {"Kodan", SystemKind::Kodan, false, 0xA7A3B31Bu},
    {"SatRoI", SystemKind::SatRoI, false, 0x401426E1u},
    {"DownloadAll", SystemKind::DownloadAll, false, 0x86F015E5u},
    {"Earth+ ground", SystemKind::EarthPlus, true, 0x0AE680A6u},
};

/** The enumerator spelling of `kind`, for printed kGoldenRuns rows. */
const char *
kindName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::EarthPlus:
        return "EarthPlus";
      case SystemKind::Kodan:
        return "Kodan";
      case SystemKind::SatRoI:
        return "SatRoI";
      case SystemKind::DownloadAll:
        return "DownloadAll";
    }
    return "?";
}

/** One short run per kGoldenRuns row (Planet-like slice, location 0). */
std::vector<SimSummary>
runEverySystem()
{
    synth::DatasetSpec spec = smallPlanet(40.0);
    std::vector<SimSummary> out;
    for (const GoldenRun &run : kGoldenRuns) {
        SimParams params;
        if (run.ground) {
            params.groundSegment.enabled = true;
            params.groundSegment.channel.lossProbability = 0.12;
            params.groundSegment.channel.payloadBytesPerPacket = 1024;
            params.groundSegment.channel.bytesPerContact = 15e9;
            params.groundSegment.channel.retentionContacts = 4;
        }
        out.push_back(LocationSimulation(spec, 0, run.kind, params).run());
    }
    return out;
}

/**
 * CRC32 over the bit patterns of every non-timing CaptureMetrics field
 * and every SimSummary aggregate, ground-segment counters included.
 */
uint32_t
summaryDigest(const SimSummary &s)
{
    std::vector<uint8_t> bytes;
    auto put = [&bytes](uint64_t v) {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    for (const CaptureMetrics &c : s.captures) {
        put(bits(c.day));
        put(static_cast<uint64_t>(c.satelliteId));
        put(c.dropped);
        put(c.fullDownload);
        put(c.downlinkBytes);
        put(bits(c.downloadedTileFraction));
        put(bits(c.psnr));
        put(bits(c.referenceAgeDays));
        put(bits(c.uplinkBytes));
    }
    put(bits(s.totalDownlinkBytes));
    put(bits(s.totalUplinkBytes));
    for (double b : s.bandDownlinkBytes)
        put(bits(b));
    put(bits(s.meanPsnr));
    put(bits(s.meanDownloadedFraction));
    put(bits(s.meanReferenceAgeDays));
    put(static_cast<uint64_t>(s.processedCount));
    put(static_cast<uint64_t>(s.droppedCount));
    put(static_cast<uint64_t>(s.fullDownloadCount));
    put(static_cast<uint64_t>(s.referencedCount));
    put(s.groundEnabled);
    const ground::StationStats &g = s.groundStats;
    put(g.channel.packetsSent);
    put(g.channel.packetsLost);
    put(g.channel.packetsRetransmitted);
    put(g.channel.bytesSent);
    put(g.channel.streamsCompleted);
    put(g.channel.streamsFailed);
    put(g.capturesCompleted);
    put(g.capturesFailed);
    put(g.capturesByteIdentical);
    put(bits(g.lastCompletionDay));
    return ground::crc32(bytes.data(), bytes.size());
}

/**
 * Assert `got` equals `want` bit for bit in every aggregate and every
 * per-capture field except the wall-clock timings (*Sec).
 */
void
expectSameSummary(const SimSummary &want, const SimSummary &got,
                  const std::string &label)
{
    EXPECT_EQ(bits(got.totalDownlinkBytes), bits(want.totalDownlinkBytes))
        << label;
    EXPECT_EQ(bits(got.totalUplinkBytes), bits(want.totalUplinkBytes))
        << label;
    ASSERT_EQ(got.bandDownlinkBytes.size(), want.bandDownlinkBytes.size())
        << label;
    for (size_t b = 0; b < want.bandDownlinkBytes.size(); ++b)
        EXPECT_EQ(bits(got.bandDownlinkBytes[b]),
                  bits(want.bandDownlinkBytes[b]))
            << label << " band " << b;
    EXPECT_EQ(bits(got.meanPsnr), bits(want.meanPsnr)) << label;
    EXPECT_EQ(bits(got.meanDownloadedFraction),
              bits(want.meanDownloadedFraction))
        << label;
    EXPECT_EQ(bits(got.meanReferenceAgeDays),
              bits(want.meanReferenceAgeDays))
        << label;
    EXPECT_EQ(got.processedCount, want.processedCount) << label;
    EXPECT_EQ(got.droppedCount, want.droppedCount) << label;
    EXPECT_EQ(got.fullDownloadCount, want.fullDownloadCount) << label;
    EXPECT_EQ(got.referencedCount, want.referencedCount) << label;
    EXPECT_EQ(got.groundEnabled, want.groundEnabled) << label;
    const ground::StationStats &wg = want.groundStats;
    const ground::StationStats &gg = got.groundStats;
    EXPECT_EQ(gg.channel.packetsSent, wg.channel.packetsSent) << label;
    EXPECT_EQ(gg.channel.packetsLost, wg.channel.packetsLost) << label;
    EXPECT_EQ(gg.channel.packetsRetransmitted,
              wg.channel.packetsRetransmitted)
        << label;
    EXPECT_EQ(gg.channel.bytesSent, wg.channel.bytesSent) << label;
    EXPECT_EQ(gg.channel.streamsCompleted, wg.channel.streamsCompleted)
        << label;
    EXPECT_EQ(gg.channel.streamsFailed, wg.channel.streamsFailed) << label;
    EXPECT_EQ(gg.capturesCompleted, wg.capturesCompleted) << label;
    EXPECT_EQ(gg.capturesFailed, wg.capturesFailed) << label;
    EXPECT_EQ(gg.capturesByteIdentical, wg.capturesByteIdentical) << label;
    EXPECT_EQ(bits(gg.lastCompletionDay), bits(wg.lastCompletionDay))
        << label;

    ASSERT_EQ(got.captures.size(), want.captures.size()) << label;
    for (size_t i = 0; i < want.captures.size(); ++i) {
        const CaptureMetrics &w = want.captures[i];
        const CaptureMetrics &g = got.captures[i];
        std::string at = label + " capture " + std::to_string(i);
        EXPECT_EQ(bits(g.day), bits(w.day)) << at;
        EXPECT_EQ(g.satelliteId, w.satelliteId) << at;
        EXPECT_EQ(g.dropped, w.dropped) << at;
        EXPECT_EQ(g.fullDownload, w.fullDownload) << at;
        EXPECT_EQ(g.downlinkBytes, w.downlinkBytes) << at;
        EXPECT_EQ(bits(g.downloadedTileFraction),
                  bits(w.downloadedTileFraction))
            << at;
        EXPECT_EQ(bits(g.psnr), bits(w.psnr)) << at;
        EXPECT_EQ(bits(g.referenceAgeDays), bits(w.referenceAgeDays)) << at;
        EXPECT_EQ(bits(g.uplinkBytes), bits(w.uplinkBytes)) << at;
    }
}

} // namespace

TEST(Integration, SimulationIsDeterministicAcrossThreadsAndSimd)
{
    // The whole pipeline (uplink planner, cloud and change detection,
    // codec, reconstruction, and the lossy downlink of the ground
    // segment) must not depend on the pool size or the kernel dispatch
    // level: one serial run, one 4-lane run, and one 4-lane run on the
    // scalar kernels must agree bit for bit, and with the recorded
    // golden digests.
    util::simd::Level prevLevel = util::simd::activeLevel();

    util::ThreadPool::setGlobalThreads(1);
    std::vector<SimSummary> serial = runEverySystem();
    util::ThreadPool::setGlobalThreads(4);
    std::vector<SimSummary> parallel = runEverySystem();
    util::simd::setActiveLevel(util::simd::Level::Scalar);
    std::vector<SimSummary> scalar = runEverySystem();

    util::simd::setActiveLevel(prevLevel);
    util::ThreadPool::setGlobalThreads(
        util::ThreadPool::defaultThreadCount());

    bool print = std::getenv("EARTHPLUS_PRINT_GOLDEN") != nullptr;
    for (size_t k = 0; k < serial.size(); ++k) {
        const GoldenRun &run = kGoldenRuns[k];
        std::string name = run.label;
        if (print) {
            // Regeneration mode: print rows to paste into kGoldenRuns.
            std::printf("    {\"%s\", SystemKind::%s, %s, 0x%08Xu},\n",
                        run.label, kindName(run.kind),
                        run.ground ? "true" : "false",
                        summaryDigest(serial[k]));
        }
        EXPECT_GT(serial[k].processedCount, 0) << name;
        EXPECT_EQ(serial[k].groundEnabled, run.ground) << name;
        if (run.ground) {
            EXPECT_GT(serial[k].groundStats.channel.packetsRetransmitted,
                      0u)
                << name;
        }
        EXPECT_EQ(summaryDigest(serial[k]), run.crc) << name;
        expectSameSummary(serial[k], parallel[k], name + " threads=4");
        expectSameSummary(serial[k], scalar[k], name + " scalar");
    }
}
