/**
 * @file
 * Golden-stream fixtures for the tile bitplane coder.
 *
 * The encoded byte stream is a wire/storage format: the ground archive
 * persists it and the downlink replays it, so any change to the coder
 * must either be byte-identical or come with an explicit format
 * migration. Fixed synthetic tiles across {CDF97, lossy 5/3, lossless}
 * x odd/even tile sizes x layer counts pin every format the decoder
 * reads, at every SIMD dispatch level:
 *
 *   v1 (EPC2), v2 (EPC3)  retired formats the encoder no longer emits.
 *                         Their streams are checked-in files under
 *                         tests/data/tile_v{1,2}/ whose size and CRC32
 *                         equal the rows recorded from the encoders
 *                         that emitted them; each must decode to the
 *                         recorded pixel CRC.
 *   v3 (EPC4)             the format the encoder emits; fresh encodes
 *                         must reproduce the recorded size and CRC32,
 *                         and decode bit-exactly to the v2 fixture of
 *                         the same tile.
 *
 * Fixture content is generated from Rng only (integer-based
 * xoshiro256**) with no libm calls, so the tiles — and therefore the
 * streams — are identical on every platform.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "codec/codec.hh"
#include "codec/kernels.hh"
#include "codec/tile_coder.hh"
#include "fixtures.hh"
#include "ground/crc32.hh"
#include "raster/plane.hh"
#include "util/parallel.hh"
#include "util/simd.hh"

using namespace earthplus;
using namespace earthplus::codec;

namespace {

struct GoldenFixture
{
    const char *content; ///< "textured" or "sparse".
    int w, h;
    const char *mode; ///< "cdf97", "lossy53" or "lossless".
    int layers;
    size_t bytes;     ///< Total encoded size across layers.
    uint32_t crc;     ///< CRC32 of the concatenated layer chunks.
};

/** A retired-format row: the stream is a checked-in file. */
struct LegacyFixture
{
    GoldenFixture stream; ///< Tile, config, file size and CRC32.
    /** The file split into its layer chunks, in order. */
    std::array<uint32_t, 3> layerBytes;
    uint32_t pixelCrc; ///< CRC32 of the decoded float pixels.
};

/**
 * V1 (EPC2 unframed) fixtures. The stream columns were recorded from
 * the original per-pixel raster coder; the bytes now live in
 * tests/data/tile_v1/ and must match them (see tests/data/README.md
 * for how the files were written).
 */
const LegacyFixture kGolden[] = {
    {{"textured", 64, 64, "cdf97", 1, 1096u, 0x5D41161Du}, {1096}, 0x2353B43Eu},
    {{"textured", 64, 64, "cdf97", 3, 1106u, 0xEC9D49E4u}, {423, 349, 334}, 0x2353B43Eu},
    {{"textured", 64, 64, "lossy53", 1, 1082u, 0xA8D3A845u}, {1082}, 0x8216FDC9u},
    {{"textured", 64, 64, "lossy53", 3, 1092u, 0x02B83B2Au}, {503, 283, 306}, 0x8216FDC9u},
    {{"textured", 64, 64, "lossless", 1, 2896u, 0x560D2CD3u}, {2896}, 0x58A1F0D2u},
    {{"textured", 64, 64, "lossless", 3, 2904u, 0xD463DB72u}, {502, 1838, 564}, 0x58A1F0D2u},
    {{"textured", 61, 47, "cdf97", 1, 838u, 0x731D3A92u}, {838}, 0x7B5912B4u},
    {{"textured", 61, 47, "cdf97", 3, 846u, 0x2F541D2Cu}, {292, 191, 363}, 0x7B5912B4u},
    {{"textured", 61, 47, "lossy53", 1, 817u, 0x17CE6DCAu}, {817}, 0x2DC909E3u},
    {{"textured", 61, 47, "lossy53", 3, 827u, 0x18E41A34u}, {270, 352, 205}, 0x2DC909E3u},
    {{"textured", 61, 47, "lossless", 1, 2076u, 0x8317A863u}, {2076}, 0x50319440u},
    {{"textured", 61, 47, "lossless", 3, 2085u, 0xE8C53783u}, {400, 1291, 394}, 0x50319440u},
    // 130 wide = 3 packed words per row with a 2-bit ragged tail:
    // pins the cross-word paths (bit-63 recruitment into the next
    // word, left/right carries, multi-word dilation).
    {{"textured", 130, 70, "cdf97", 1, 2491u, 0xB306C5D3u}, {2491}, 0x227BE1C5u},
    {{"textured", 130, 70, "cdf97", 3, 2501u, 0x1B5414A0u}, {765, 1013, 723}, 0x227BE1C5u},
    {{"textured", 130, 70, "lossy53", 1, 2407u, 0xB9A97C26u}, {2407}, 0x03CA8FCEu},
    {{"textured", 130, 70, "lossy53", 3, 2417u, 0x2945E1AAu}, {1092, 659, 666}, 0x03CA8FCEu},
    {{"textured", 130, 70, "lossless", 1, 6417u, 0xAA6680E4u}, {6417}, 0xBBA68888u},
    {{"textured", 130, 70, "lossless", 3, 6427u, 0xFF96B57Eu}, {1095, 4092, 1240}, 0xBBA68888u},
    {{"sparse", 64, 64, "cdf97", 1, 510u, 0x29478451u}, {510}, 0x8227BB1Au},
    {{"sparse", 64, 64, "cdf97", 3, 520u, 0xE9C7B881u}, {370, 145, 5}, 0x8227BB1Au},
    {{"sparse", 64, 64, "lossy53", 1, 328u, 0xCCD65508u}, {328}, 0x18EF4AF9u},
    {{"sparse", 64, 64, "lossy53", 3, 338u, 0x0357A6DFu}, {328, 5, 5}, 0x18EF4AF9u},
    {{"sparse", 64, 64, "lossless", 1, 309u, 0x5FF21119u}, {309}, 0x217D5E30u},
    {{"sparse", 64, 64, "lossless", 3, 319u, 0x44F93C27u}, {86, 94, 139}, 0x217D5E30u},
    {{"sparse", 61, 47, "cdf97", 1, 446u, 0x6C319825u}, {446}, 0x08377752u},
    {{"sparse", 61, 47, "cdf97", 3, 456u, 0x5BD3F8BFu}, {260, 191, 5}, 0x08377752u},
    {{"sparse", 61, 47, "lossy53", 1, 308u, 0x3EA9A888u}, {308}, 0x65F99890u},
    {{"sparse", 61, 47, "lossy53", 3, 318u, 0xA8D01B4Cu}, {260, 53, 5}, 0x65F99890u},
    {{"sparse", 61, 47, "lossless", 1, 291u, 0xCC718CE5u}, {291}, 0xE388AF9Fu},
    {{"sparse", 61, 47, "lossless", 3, 301u, 0x29D50B32u}, {85, 151, 65}, 0xE388AF9Fu},
    {{"sparse", 130, 70, "cdf97", 1, 773u, 0xA54CDF5Fu}, {773}, 0xE10E9CA9u},
    {{"sparse", 130, 70, "cdf97", 3, 783u, 0x0B8A1030u}, {773, 5, 5}, 0xE10E9CA9u},
    {{"sparse", 130, 70, "lossy53", 1, 544u, 0xC3E32997u}, {544}, 0x6F53A3E2u},
    {{"sparse", 130, 70, "lossy53", 3, 554u, 0x1E05688Au}, {544, 5, 5}, 0x6F53A3E2u},
    {{"sparse", 130, 70, "lossless", 1, 508u, 0x4AFE4F7Fu}, {508}, 0x8F01FC25u},
    {{"sparse", 130, 70, "lossless", 3, 517u, 0x31103FB0u}, {122, 266, 129}, 0x8F01FC25u},
};

/**
 * V2 (EPC3 chunked) fixtures: the same tiles coded with chunkRows =
 * 32, so every fixture splits into at least two framed entropy chunks
 * (64x64 -> 2, 61x47 -> 2, 130x70 -> 3) and the per-chunk headers,
 * length prefixes and budget splits are all pinned. The stream columns
 * were recorded when the chunked format was introduced (the first
 * worked example in the docs/ARCHITECTURE.md playbook); the bytes now
 * live in tests/data/tile_v2/. Row i lists the same tile as
 * kGoldenV3[i].
 */
constexpr int kGoldenV2ChunkRows = 32;
const LegacyFixture kGoldenV2[] = {
    {{"textured", 64, 64, "cdf97", 1, 1158u, 0x12C8C7ADu}, {1158}, 0x401B2936u},
    {{"textured", 64, 64, "cdf97", 3, 1192u, 0xB27AB9A4u}, {382, 358, 452}, 0x401B2936u},
    {{"textured", 64, 64, "lossy53", 1, 1239u, 0x7EABC228u}, {1239}, 0xE9E6023Du},
    {{"textured", 64, 64, "lossy53", 3, 1273u, 0x294FB827u}, {410, 569, 294}, 0xE9E6023Du},
    {{"textured", 64, 64, "lossless", 1, 2916u, 0x7D5F8D71u}, {2916}, 0x58A1F0D2u},
    {{"textured", 64, 64, "lossless", 3, 2950u, 0x359CA36Au}, {518, 1555, 877}, 0x58A1F0D2u},
    {{"textured", 61, 47, "cdf97", 3, 833u, 0xAAFDFBD9u}, {295, 270, 268}, 0x2AAA151Fu},
    {{"textured", 61, 47, "lossless", 3, 2133u, 0x5CDCDE26u}, {420, 1306, 407}, 0x50319440u},
    {{"textured", 130, 70, "cdf97", 3, 2779u, 0x019F23F5u}, {903, 826, 1050}, 0x12709A22u},
    {{"textured", 130, 70, "lossy53", 3, 2880u, 0xB2813062u}, {960, 976, 944}, 0xCAF46159u},
    {{"textured", 130, 70, "lossless", 3, 6520u, 0x9B55CBE3u}, {1136, 4006, 1378}, 0xBBA68888u},
    {{"sparse", 64, 64, "cdf97", 1, 518u, 0x960A5931u}, {518}, 0x8227BB1Au},
    {{"sparse", 64, 64, "lossy53", 3, 387u, 0xD0029408u}, {308, 61, 18}, 0x18EF4AF9u},
    {{"sparse", 64, 64, "lossless", 3, 364u, 0x6A21B424u}, {122, 107, 135}, 0x217D5E30u},
    {{"sparse", 61, 47, "cdf97", 3, 498u, 0x379CE68Eu}, {267, 209, 22}, 0x08377752u},
    {{"sparse", 61, 47, "lossless", 1, 311u, 0xD1F06D4Cu}, {311}, 0xE388AF9Fu},
    {{"sparse", 130, 70, "lossy53", 3, 620u, 0xFC5E6480u}, {557, 36, 27}, 0x6F53A3E2u},
    {{"sparse", 130, 70, "lossless", 3, 577u, 0x3AD72528u}, {163, 266, 148}, 0x8F01FC25u},
};

/**
 * V3 (EPC4 progressive) fixtures: the same tiles coded with chunkRows
 * = 32 and progressive segment framing, pinning the segment words,
 * per-segment coder flushes and the shadow-coder budget accounting.
 * Recorded deliberately when the progressive format was introduced —
 * the EPC4 migration, see the second worked example in
 * docs/ARCHITECTURE.md. Regenerate by running this binary with
 * EARTHPLUS_PRINT_GOLDEN=1 and pasting the printed rows.
 */
const GoldenFixture kGoldenV3[] = {
    {"textured", 64, 64, "cdf97", 1, 1241u, 0xDB3052E5u},
    {"textured", 64, 64, "cdf97", 3, 1282u, 0x0B1E90A2u},
    {"textured", 64, 64, "lossy53", 1, 1295u, 0x5D52D9D6u},
    {"textured", 64, 64, "lossy53", 3, 1328u, 0xA63E8A93u},
    {"textured", 64, 64, "lossless", 1, 3012u, 0x8A0F402Du},
    {"textured", 64, 64, "lossless", 3, 3028u, 0xE1C3B152u},
    {"textured", 61, 47, "cdf97", 3, 931u, 0xBDA15D8Au},
    {"textured", 61, 47, "lossless", 3, 2220u, 0xB0CD3AB3u},
    {"textured", 130, 70, "cdf97", 3, 2914u, 0x9493E43Du},
    {"textured", 130, 70, "lossy53", 3, 2982u, 0x8536B78Du},
    {"textured", 130, 70, "lossless", 3, 6642u, 0x11DD4BCEu},
    {"sparse", 64, 64, "cdf97", 1, 632u, 0xE499A07Au},
    {"sparse", 64, 64, "lossy53", 3, 472u, 0x111D49B0u},
    {"sparse", 64, 64, "lossless", 3, 425u, 0xF4D7574Au},
    {"sparse", 61, 47, "cdf97", 3, 610u, 0x25A134DAu},
    {"sparse", 61, 47, "lossless", 1, 400u, 0x7A7DFCD0u},
    {"sparse", 130, 70, "lossy53", 3, 742u, 0xDB5C99F0u},
    {"sparse", 130, 70, "lossless", 3, 669u, 0xAE84D12Au},
};

/** The fixture's exact tile content and coder configuration. */
void
buildGolden(const GoldenFixture &f, raster::Plane &tile,
            TileCoderParams &params, size_t &budget)
{
    params = TileCoderParams();
    params.chunkRows = kGoldenV2ChunkRows;
    if (std::string(f.mode) == "lossy53") {
        params.wavelet = Wavelet::LeGall53;
    } else if (std::string(f.mode) == "lossless") {
        params.wavelet = Wavelet::LeGall53;
        params.lossless = true;
    }
    uint64_t seed = 7000 + static_cast<uint64_t>(f.w) * 13 +
                    static_cast<uint64_t>(f.h) * 7;
    tile = std::string(f.content) == "textured"
        ? fixtures::texturedTile(f.w, f.h, seed)
        : fixtures::sparseDeltaTile(f.w, f.h, seed);
    if (params.lossless)
        for (auto &v : tile.data())
            v = std::round(v * 255.0f) / 255.0f;
    // 2 bpp for the lossy modes; lossless gets a cap it never hits so
    // every bitplane is coded and the fixture truly round-trips.
    budget = params.lossless
        ? static_cast<size_t>(f.w) * static_cast<size_t>(f.h) * 4
        : static_cast<size_t>(f.w) * static_cast<size_t>(f.h) * 2 / 8;
}

/** CRC32 over the concatenation of `chunks`. */
uint32_t
crcOf(const std::vector<std::vector<uint8_t>> &chunks)
{
    uint32_t crc = 0;
    bool first = true;
    for (const auto &c : chunks) {
        crc = first ? ground::crc32(c.data(), c.size())
                    : ground::crc32Update(crc, c.data(), c.size());
        first = false;
    }
    return crc;
}

/** CRC32 of a decoded plane's float pixels. */
uint32_t
pixelCrc(const raster::Plane &p)
{
    return ground::crc32(reinterpret_cast<const uint8_t *>(p.data().data()),
                         p.data().size() * sizeof(float));
}

/** Encode one fixture as EPC4 (the encoder's one format). */
std::vector<std::vector<uint8_t>>
encodeGolden(const GoldenFixture &f)
{
    raster::Plane tile(1, 1);
    TileCoderParams params;
    size_t budget = 0;
    buildGolden(f, tile, params, budget);
    return encodeTileLayers(tile, params, f.layers, budget);
}

/** Decode per-layer chunks of a `progressive` or v1/v2 stream. */
raster::Plane
decodeGolden(const GoldenFixture &f,
             const std::vector<std::vector<uint8_t>> &chunks,
             int chunkRows, bool progressive)
{
    raster::Plane tile(1, 1);
    TileCoderParams params;
    size_t budget = 0;
    buildGolden(f, tile, params, budget);
    params.chunkRows = chunkRows;
    params.progressive = progressive;
    std::vector<ChunkSpan> spans;
    for (const auto &c : chunks)
        spans.push_back({c.data(), c.size()});
    return decodeTileLayers(f.w, f.h, params, spans);
}

std::string
fixtureName(const GoldenFixture &f)
{
    return std::string(f.content) + "/" + std::to_string(f.w) + "x" +
           std::to_string(f.h) + "/" + f.mode + "/layers" +
           std::to_string(f.layers);
}

/** A legacy fixture's checked-in file, split into its layer chunks. */
std::vector<std::vector<uint8_t>>
loadLegacy(const LegacyFixture &lf, const char *dir)
{
    const GoldenFixture &f = lf.stream;
    std::vector<uint8_t> bytes = fixtures::readTestData(
        std::string(dir) + "/" + f.content + "-" + std::to_string(f.w) +
        "x" + std::to_string(f.h) + "-" + f.mode + "-l" +
        std::to_string(f.layers) + ".bin");
    std::vector<std::vector<uint8_t>> chunks;
    size_t pos = 0;
    for (int l = 0; l < f.layers; ++l) {
        size_t n = lf.layerBytes[static_cast<size_t>(l)];
        if (n > bytes.size() - pos)
            break; // size mismatch; the provenance check reports it
        chunks.emplace_back(bytes.begin() + static_cast<ptrdiff_t>(pos),
                            bytes.begin() +
                                static_cast<ptrdiff_t>(pos + n));
        pos += n;
    }
    if (pos != bytes.size())
        chunks.emplace_back(bytes.begin() + static_cast<ptrdiff_t>(pos),
                            bytes.end());
    return chunks;
}

/** Each file's size and CRC32 equal the row recorded from its encoder. */
void
checkLegacyFiles(const LegacyFixture *table, size_t count, const char *dir)
{
    for (size_t i = 0; i < count; ++i) {
        const LegacyFixture &lf = table[i];
        auto chunks = loadLegacy(lf, dir);
        size_t total = 0;
        for (const auto &c : chunks)
            total += c.size();
        EXPECT_EQ(total, lf.stream.bytes) << fixtureName(lf.stream);
        EXPECT_EQ(chunks.size(), static_cast<size_t>(lf.stream.layers))
            << fixtureName(lf.stream);
        EXPECT_EQ(crcOf(chunks), lf.stream.crc) << fixtureName(lf.stream);
    }
}

/** Each file decodes to its recorded pixels at every dispatch level. */
void
checkLegacyPixels(const LegacyFixture *table, size_t count,
                  const char *dir, int chunkRows)
{
    util::simd::Level prev = util::simd::activeLevel();
    for (util::simd::Level l : kernels::availableLevels()) {
        util::simd::setActiveLevel(l);
        for (size_t i = 0; i < count; ++i) {
            const LegacyFixture &lf = table[i];
            raster::Plane dec = decodeGolden(
                lf.stream, loadLegacy(lf, dir), chunkRows, false);
            EXPECT_EQ(pixelCrc(dec), lf.pixelCrc)
                << fixtureName(lf.stream) << " at "
                << util::simd::levelName(l);
        }
    }
    util::simd::setActiveLevel(prev);
}

/** Decoded tile sanity: exact in lossless mode, in range otherwise. */
void
expectSaneDecode(const GoldenFixture &f, const raster::Plane &dec)
{
    raster::Plane tile(1, 1);
    TileCoderParams params;
    size_t budget = 0;
    buildGolden(f, tile, params, budget);
    ASSERT_EQ(dec.width(), f.w);
    ASSERT_EQ(dec.height(), f.h);
    if (params.lossless) {
        bool exact = true;
        for (size_t i = 0; i < tile.data().size(); ++i)
            exact = exact &&
                    std::fabs(tile.data()[i] - dec.data()[i]) < 1e-6f;
        EXPECT_TRUE(exact) << fixtureName(f);
    } else {
        // Coarse sanity: decoded values stay in range and the
        // mid-gray background of sparse tiles survives.
        for (float v : dec.data()) {
            ASSERT_GE(v, 0.0f);
            ASSERT_LE(v, 1.0f);
        }
    }
}

} // namespace

TEST(GoldenStream, V1FixturesMatchRecordedStreams)
{
    checkLegacyFiles(kGolden, std::size(kGolden), "tile_v1");
}

TEST(GoldenStream, V2FixturesMatchRecordedStreams)
{
    checkLegacyFiles(kGoldenV2, std::size(kGoldenV2), "tile_v2");
}

TEST(GoldenStream, V1FixturesDecodeToRecordedPixelsAtEveryLevel)
{
    checkLegacyPixels(kGolden, std::size(kGolden), "tile_v1", 0);
}

TEST(GoldenStream, V2FixturesDecodeToRecordedPixelsAtEveryLevel)
{
    checkLegacyPixels(kGoldenV2, std::size(kGoldenV2), "tile_v2",
                      kGoldenV2ChunkRows);
}

TEST(GoldenStream, V3ProgressiveStreamsMatchRecordedFormat)
{
    if (std::getenv("EARTHPLUS_PRINT_GOLDEN") != nullptr) {
        // Regeneration mode: print table rows to paste into kGoldenV3.
        for (const GoldenFixture &f : kGoldenV3) {
            auto chunks = encodeGolden(f);
            size_t bytes = 0;
            for (const auto &c : chunks)
                bytes += c.size();
            std::printf("    {\"%s\", %d, %d, \"%s\", %d, %zuu, "
                        "0x%08Xu},\n",
                        f.content, f.w, f.h, f.mode, f.layers, bytes,
                        crcOf(chunks));
        }
    }
    auto expectRow = [](const GoldenFixture &f, const std::string &at) {
        auto chunks = encodeGolden(f);
        size_t bytes = 0;
        for (const auto &c : chunks)
            bytes += c.size();
        EXPECT_EQ(bytes, f.bytes) << fixtureName(f) << at;
        EXPECT_EQ(crcOf(chunks), f.crc) << fixtureName(f) << at;
    };
    // Progressive streams are storage/wire format too (the archive
    // persists them, truncateStream() cuts them at recorded offsets),
    // so the bytes are pinned across every SIMD dispatch level AND
    // every thread-pool width: encoding must be deterministic no
    // matter how the pass loops are vectorized or scheduled.
    util::simd::Level prev = util::simd::activeLevel();
    for (util::simd::Level l : kernels::availableLevels()) {
        util::simd::setActiveLevel(l);
        for (const GoldenFixture &f : kGoldenV3)
            expectRow(f, std::string(" at ") + util::simd::levelName(l));
    }
    util::simd::setActiveLevel(prev);
    for (int threads : {1, 2, 7, util::ThreadPool::defaultThreadCount()}) {
        util::ThreadPool::setGlobalThreads(threads);
        for (const GoldenFixture &f : kGoldenV3)
            expectRow(f, " with " + std::to_string(threads) + " threads");
    }
    util::ThreadPool::setGlobalThreads(
        util::ThreadPool::defaultThreadCount());
}

TEST(GoldenStream, V3DecodesBitExactWithV2Fixtures)
{
    // The EPC4 contract: a full-length progressive stream decodes to
    // exactly the pixels the EPC3 stream of the same tile decodes to,
    // because the shadow coder reproduces EPC3's rate decisions.
    static_assert(std::size(kGoldenV2) == std::size(kGoldenV3),
                  "kGoldenV2 and kGoldenV3 list the same tiles");
    for (size_t i = 0; i < std::size(kGoldenV3); ++i) {
        const GoldenFixture &f = kGoldenV3[i];
        const LegacyFixture &v2 = kGoldenV2[i];
        ASSERT_EQ(fixtureName(f), fixtureName(v2.stream));
        raster::Plane v3dec =
            decodeGolden(f, encodeGolden(f), kGoldenV2ChunkRows, true);
        raster::Plane v2dec = decodeGolden(
            f, loadLegacy(v2, "tile_v2"), kGoldenV2ChunkRows, false);
        ASSERT_EQ(v3dec.data().size(), v2dec.data().size());
        EXPECT_EQ(std::memcmp(v3dec.data().data(), v2dec.data().data(),
                              v3dec.data().size() * sizeof(float)),
                  0)
            << fixtureName(f);
    }
}

TEST(GoldenStream, FixturesRoundTrip)
{
    // The CRCs pin the bytes; this pins that those bytes still decode
    // to a sane tile (and exactly, in lossless mode).
    for (const LegacyFixture &lf : kGolden)
        expectSaneDecode(lf.stream, decodeGolden(lf.stream,
                                                 loadLegacy(lf, "tile_v1"),
                                                 0, false));
}

TEST(GoldenStream, V2FixturesRoundTrip)
{
    for (const LegacyFixture &lf : kGoldenV2)
        expectSaneDecode(lf.stream,
                         decodeGolden(lf.stream, loadLegacy(lf, "tile_v2"),
                                      kGoldenV2ChunkRows, false));
}

TEST(GoldenStream, V3FixturesRoundTrip)
{
    for (const GoldenFixture &f : kGoldenV3)
        expectSaneDecode(f, decodeGolden(f, encodeGolden(f),
                                         kGoldenV2ChunkRows, true));
}

/**
 * The image-level fixtures (tests/fixtures.hh) are the files their
 * encoder wrote, and still decode to the pixels it decoded them to.
 */
TEST(GoldenStream, ImageFixturesMatchRecordedStreamsAndPixels)
{
    std::vector<const fixtures::ImageFixture *> all = {
        &fixtures::kEpc2Lossless, &fixtures::kEpc3Archived};
    for (const auto &f : fixtures::kEpc3Matrix)
        all.push_back(&f);
    util::simd::Level prev = util::simd::activeLevel();
    for (const fixtures::ImageFixture *f : all) {
        std::vector<uint8_t> bytes = fixtures::loadStream(*f);
        EXPECT_EQ(bytes.size(), f->bytes) << f->file;
        EXPECT_EQ(ground::crc32(bytes.data(), bytes.size()), f->crc)
            << f->file;
        EXPECT_EQ(std::memcmp(bytes.data(),
                              f->chunkRows > 0 ? "EPC3" : "EPC2", 4),
                  0)
            << f->file;
        EncodedImage e = EncodedImage::deserialize(bytes);
        for (util::simd::Level l : kernels::availableLevels()) {
            util::simd::setActiveLevel(l);
            EXPECT_EQ(pixelCrc(decode(e)), f->pixelCrc)
                << f->file << " at " << util::simd::levelName(l);
        }
    }
    util::simd::setActiveLevel(prev);
}
