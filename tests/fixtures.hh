/**
 * @file
 * Checked-in codec stream fixtures and the content they encode.
 *
 * The encoder emits only the progressive EPC4 format, but the decoder
 * reads every format that ever shipped: ground archives hold EPC2 and
 * EPC3 records. Streams in those retired formats can no longer be made
 * by encoding, so they live as files under tests/data/, written by the
 * last encoder that emitted them (tests/data/README.md records how).
 *
 * Every content generator here uses Rng only (integer-based
 * xoshiro256**) and no libm, so a regenerated source plane is
 * bit-identical on every platform and a fixture's decoded pixels can
 * be compared against it.
 */

#ifndef EARTHPLUS_TESTS_FIXTURES_HH
#define EARTHPLUS_TESTS_FIXTURES_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "codec/codec.hh"
#include "raster/plane.hh"
#include "util/rng.hh"

#ifndef EARTHPLUS_TEST_DATA_DIR
#error "EARTHPLUS_TEST_DATA_DIR must name the tests/data directory"
#endif

namespace earthplus::fixtures {

/** Blocky texture + gradient + noise; deterministic, libm-free. */
inline raster::Plane
texturedTile(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h);
    Rng rng(seed);
    const int block = 8;
    int bw = (w + block - 1) / block;
    std::vector<float> blocks(static_cast<size_t>(bw) *
                              static_cast<size_t>((h + block - 1) / block));
    for (auto &v : blocks)
        v = static_cast<float>(rng.uniform());
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
            float base = blocks[static_cast<size_t>(y / block) * bw +
                                static_cast<size_t>(x / block)];
            float grad = static_cast<float>(x + 2 * y) /
                         static_cast<float>(w + 2 * h);
            float noise = static_cast<float>(rng.uniform()) * 0.08f;
            p.at(x, y) = 0.2f + 0.45f * base + 0.25f * grad + noise;
        }
    return p;
}

/** Change-delta-like tile: mid-gray except a few flat clusters. */
inline raster::Plane
sparseDeltaTile(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h, 0.5f);
    Rng rng(seed);
    for (int c = 0; c < 4; ++c) {
        int cx = static_cast<int>(rng.uniformInt(0, w - 1));
        int cy = static_cast<int>(rng.uniformInt(0, h - 1));
        int r = static_cast<int>(rng.uniformInt(1, 4));
        float amp = static_cast<float>(rng.uniform(-0.25, 0.25));
        for (int y = cy - r < 0 ? 0 : cy - r;
             y < (cy + r + 1 > h ? h : cy + r + 1); ++y)
            for (int x = cx - r < 0 ? 0 : cx - r;
                 x < (cx + r + 1 > w ? w : cx + r + 1); ++x)
                p.at(x, y) = 0.5f + amp;
    }
    return p;
}

/** Hard content: step edges + noise, stresses many bitplanes. */
inline raster::Plane
edgyTile(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h);
    Rng rng(seed);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
            float v = ((x / 17 + y / 23) & 1) ? 0.8f : 0.15f;
            v += static_cast<float>(rng.uniform()) * 0.05f;
            p.at(x, y) = v;
        }
    return p;
}

/** Bytes of a file under tests/data/; exits on a missing file. */
inline std::vector<uint8_t>
readTestData(const std::string &relPath)
{
    std::string path = std::string(EARTHPLUS_TEST_DATA_DIR) + "/" + relPath;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        std::fprintf(stderr, "missing test fixture %s\n", path.c_str());
        std::exit(1);
    }
    std::vector<uint8_t> bytes;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

/**
 * An image-level stream in a retired format (EPC2 when chunkRows is
 * 0, EPC3 otherwise), checked in as tests/data/image/<file>. `bytes`,
 * `crc` (CRC32 of the file) and `pixelCrc` (CRC32 of the decoded
 * float plane) were recorded by the encoder that wrote it.
 */
struct ImageFixture
{
    const char *file;
    const char *content; ///< "textured" or "edgy".
    int w, h;
    uint64_t seed;
    bool lossless;
    double bitsPerPixel; ///< Lossy modes only.
    int tileSize;
    int layers;
    int chunkRows;
    size_t bytes;
    uint32_t crc;
    uint32_t pixelCrc;
};

/** Lossless EPC2: the legacy unframed layout. */
inline const ImageFixture kEpc2Lossless = {
    "lossless-150x110-t96.epc2", "textured", 150, 110, 9001, true, 0.0,
    96, 1, 0, 11705u, 0xA31DA64Bu, 0x03F94C20u};

/**
 * EPC3 streams over the progressive-test matrix (layers x chunkRows x
 * lossless x content): each pins that a full EPC4 encode of the same
 * source decodes bit-exactly to what the EPC3 stream decodes to.
 */
inline const ImageFixture kEpc3Matrix[] = {
    {"cdf97-150x110-l1-c32.epc3", "textured", 150, 110, 9002, false, 1.5,
     96, 1, 32, 3976u, 0x23F6BAFAu, 0xB0CC9DF9u},
    {"cdf97-150x110-l3-c32.epc3", "textured", 150, 110, 9002, false, 1.5,
     96, 3, 32, 3970u, 0xC171F81Au, 0xAD70BCC2u},
    {"cdf97-150x110-l3-c32-edgy.epc3", "edgy", 150, 110, 9003, false, 1.5,
     96, 3, 32, 3891u, 0x22D2004Du, 0xFBC63E62u},
    {"cdf97-150x110-l5-c16.epc3", "textured", 150, 110, 9002, false, 1.5,
     96, 5, 16, 4057u, 0xE9E23408u, 0x1DBDA2D7u},
    {"lossless-150x110-l1-c32.epc3", "textured", 150, 110, 9001, true,
     0.0, 96, 1, 32, 11815u, 0x2BB383B3u, 0x03F94C20u},
    {"lossless-150x110-l3-c48-edgy.epc3", "edgy", 150, 110, 9004, true,
     0.0, 96, 3, 48, 10475u, 0xCCEA2F23u, 0xE873CABAu},
};

/** Lossless EPC3 counterpart of kEpc2Lossless (same source plane). */
inline const ImageFixture &kEpc3Lossless = kEpc3Matrix[4];

/**
 * A default-parameter EPC3 record as the ground segment archived it
 * before the progressive format existed (64-px tiles, 4 bpp).
 */
inline const ImageFixture kEpc3Archived = {
    "cdf97-128x128-4bpp.epc3", "textured", 128, 128, 9005, false, 4.0,
    64, 1, codec::kDefaultChunkRows, 9415u, 0xF474889Du, 0xD64814E2u};

/** The source plane a fixture was encoded from. */
inline raster::Plane
sourceImage(const ImageFixture &f)
{
    raster::Plane p = std::string(f.content) == "edgy"
        ? edgyTile(f.w, f.h, f.seed)
        : texturedTile(f.w, f.h, f.seed);
    if (f.lossless)
        for (auto &v : p.data())
            v = std::round(v * 255.0f) / 255.0f;
    return p;
}

/**
 * The encode configuration a fixture was written with. Encoding with
 * it today yields the EPC4 counterpart over the same chunk grid.
 */
inline codec::EncodeParams
encodeParams(const ImageFixture &f)
{
    codec::EncodeParams p;
    p.tileSize = f.tileSize;
    p.layers = f.layers;
    p.chunkRows = f.chunkRows;
    p.lossless = f.lossless;
    if (f.lossless)
        p.wavelet = codec::Wavelet::LeGall53;
    else
        p.bitsPerPixel = f.bitsPerPixel;
    return p;
}

/** The fixture's checked-in stream bytes. */
inline std::vector<uint8_t>
loadStream(const ImageFixture &f)
{
    return readTestData(std::string("image/") + f.file);
}

} // namespace earthplus::fixtures

#endif // EARTHPLUS_TESTS_FIXTURES_HH
