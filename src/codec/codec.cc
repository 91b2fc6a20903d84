#include "codec/codec.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <memory>

#include "util/bytes.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/telemetry.hh"

namespace earthplus::codec {

namespace {

/**
 * Codec-pipeline metrics, resolved once per process. Registry entries
 * are leaked, so the references stay valid forever.
 */
struct CodecMetrics
{
    telemetry::Counter &tilesEncoded =
        telemetry::counter("codec.tiles_encoded");
    telemetry::Counter &tilesDecoded =
        telemetry::counter("codec.tiles_decoded");
    telemetry::Histogram &transformNs =
        telemetry::histogram("codec.transform_ns");
    telemetry::Histogram &entropyChunkNs =
        telemetry::histogram("codec.entropy_chunk_ns");
    telemetry::Counter &stalls =
        telemetry::counter("codec.pipeline.stalls");
    telemetry::Histogram &stallNs =
        telemetry::histogram("codec.pipeline.stall_ns");
};

CodecMetrics &
codecMetrics()
{
    static CodecMetrics m;
    return m;
}

// "EPC2": bumped from EPC1 when layer chunks gained per-tile length
// framing, so streams from the old format are rejected instead of
// decoding as garbage. Decode-only (chunkRows == 0).
constexpr uint32_t kMagicV1 = 0x32435045;

// "EPC3": adds the chunkRows header field and frames each tile's
// per-layer sub-chunk into length-prefixed row-slab entropy chunks
// (the sub-tile parallelism format). Decode-only.
constexpr uint32_t kMagicV2 = 0x33435045;

// "EPC4": same header layout as EPC3, but each chunk-layer payload is
// a sequence of independently flushed per-plane segments (plus a raw
// maxPlane byte in layer 0) whose inline framing records truncation
// points — the stream decodes best-effort from any prefix cut at a
// recorded point. The one format encode() emits.
constexpr uint32_t kMagicV3 = 0x34435045;

/** Fixed serialized header size in bytes (v2 adds 4 for chunkRows). */
constexpr size_t kFixedHeader =
    4 +          // magic
    6 * 4 +      // width, height, tileSize, dwtLevels, layers, flags
    8 +          // quantStep
    4;           // tile count

using util::appendPod;

/** Bounds-checked cursor read: false on truncation, advances pos. */
template <typename T>
bool
tryReadPod(const uint8_t *in, size_t len, size_t &pos, T &out)
{
    if (pos + sizeof(T) > len)
        return false;
    out = util::readPodAt<T>(in, pos);
    pos += sizeof(T);
    return true;
}

/** printf-style diagnostic for the non-fatal parse path. */
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string
formatError(const char *fmt, ...)
{
    char buf[192];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

/**
 * Segment-level check of a possibly partial EPC4 chunk payload: the
 * cut must land between segments (or right after the layer-0 header
 * byte), never inside a segment word or body.
 */
bool
validChunkPayloadPrefix(const uint8_t *data, size_t size, bool layer0)
{
    if (layer0) {
        if (size == 0)
            return true;
        ++data;
        --size;
    }
    return forEachSegment(data, size, [](const SegmentView &) {});
}

/** Chunk-frame walk of the partial tile sub-chunk that ends a cut. */
bool
validTilePrefix(const uint8_t *data, size_t size, bool layer0)
{
    size_t pos = 0;
    while (pos != size) {
        if (size - pos < 4)
            return false;
        uint32_t ecLen = util::readPodAt<uint32_t>(data, pos);
        pos += 4;
        if (ecLen > size - pos)
            return validChunkPayloadPrefix(data + pos, size - pos,
                                           layer0);
        pos += ecLen;
    }
    return true;
}

/**
 * True iff `size` bytes are a valid prefix of an EPC4 layer payload
 * over `nCodedTiles` sub-chunks — i.e. the cut that shortened the
 * enclosing stream landed on a recorded truncation point.
 */
bool
validLayerPrefix(const uint8_t *data, size_t size, size_t nCodedTiles,
                 bool layer0)
{
    size_t pos = 0;
    for (size_t t = 0; t < nCodedTiles; ++t) {
        if (pos == size)
            return true;
        if (size - pos < 4)
            return false;
        uint32_t subLen = util::readPodAt<uint32_t>(data, pos);
        pos += 4;
        if (subLen > size - pos)
            return validTilePrefix(data + pos, size - pos, layer0);
        pos += subLen;
    }
    return pos == size;
}

} // anonymous namespace

size_t
EncodedImage::payloadBytes() const
{
    size_t total = 0;
    for (const auto &chunk : layerChunks)
        total += chunk.size();
    return total;
}

size_t
EncodedImage::headerBytes() const
{
    // Fixed header (+ chunkRows in v2) + packed coded-tile bitmap +
    // per-layer length fields.
    return kFixedHeader + (chunkRows > 0 ? 4 : 0) +
           (tileCoded.size() + 7) / 8 + 4 * layerChunks.size();
}

size_t
EncodedImage::totalBytes() const
{
    return headerBytes() + payloadBytes();
}

size_t
EncodedImage::totalBytesForLayers(int layerCount) const
{
    if (layerCount < 0 ||
        layerCount > static_cast<int>(layerChunks.size()))
        layerCount = static_cast<int>(layerChunks.size());
    size_t total = kFixedHeader + (chunkRows > 0 ? 4 : 0) +
                   (tileCoded.size() + 7) / 8 +
                   4 * static_cast<size_t>(layerCount);
    for (int l = 0; l < layerCount; ++l)
        total += layerChunks[static_cast<size_t>(l)].size();
    return total;
}

double
EncodedImage::codedTileFraction() const
{
    if (tileCoded.empty())
        return 0.0;
    size_t set = 0;
    for (uint8_t f : tileCoded)
        set += f;
    return static_cast<double>(set) /
           static_cast<double>(tileCoded.size());
}

std::vector<uint8_t>
EncodedImage::serialize() const
{
    std::vector<uint8_t> out;
    EP_ASSERT(!truncated, "cannot re-serialize a truncated stream");
    out.reserve(totalBytes());
    appendPod(out, chunkRows > 0 ? (progressive ? kMagicV3 : kMagicV2)
                                 : kMagicV1);
    appendPod(out, static_cast<uint32_t>(width));
    appendPod(out, static_cast<uint32_t>(height));
    appendPod(out, static_cast<uint32_t>(tileSize));
    appendPod(out, static_cast<uint32_t>(dwtLevels));
    appendPod(out, static_cast<uint32_t>(layers));
    uint32_t flags = (wavelet == Wavelet::LeGall53 ? 1u : 0u) |
                     (lossless ? 2u : 0u) |
                     (static_cast<uint32_t>(losslessDepth) << 8);
    appendPod(out, flags);
    appendPod(out, quantStep);
    if (chunkRows > 0)
        appendPod(out, static_cast<uint32_t>(chunkRows));
    appendPod(out, static_cast<uint32_t>(tileCoded.size()));
    // Packed coded-tile bitmap.
    for (size_t i = 0; i < tileCoded.size(); i += 8) {
        uint8_t b = 0;
        for (size_t j = 0; j < 8 && i + j < tileCoded.size(); ++j)
            b |= static_cast<uint8_t>((tileCoded[i + j] ? 1 : 0) << j);
        out.push_back(b);
    }
    for (const auto &chunk : layerChunks) {
        appendPod(out, static_cast<uint32_t>(chunk.size()));
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
    return out;
}

EncodedImage
EncodedImage::deserialize(const std::vector<uint8_t> &bytes)
{
    return deserialize(bytes.data(), bytes.size());
}

namespace {

/**
 * The shared parse behind deserialize()/tryDeserialize(). Every field
 * is validated before use: a truncated or corrupt stream must produce
 * a typed error (with the diagnostic deserialize() dies with in
 * `msg`) instead of out-of-bounds reads or absurd allocations. A
 * progressive stream cut at a recorded truncation point parses
 * successfully with `e.truncated` set.
 */
StreamError
parseStream(const uint8_t *data, size_t len, EncodedImage &e,
            std::string &msg)
{
    constexpr uint32_t kMaxDim = 1u << 20;      // 1M pixels per edge
    constexpr uint64_t kMaxPixels = 1ull << 28; // ~1 GB decoded plane
    constexpr uint32_t kMaxLayers = 1u << 16;

    auto cut = [&msg] {
        msg = "encoded image stream truncated";
        return StreamError::Truncated;
    };

    size_t pos = 0;
    uint32_t magic = 0;
    if (!tryReadPod(data, len, pos, magic))
        return cut();
    if (magic != kMagicV1 && magic != kMagicV2 && magic != kMagicV3) {
        msg = "bad encoded-image magic";
        return StreamError::Corrupt;
    }
    // Version-gated decode: the magic alone selects the stream layout,
    // and v1 (EPC2) streams stay decodable forever — chunkRows == 0
    // routes them through the original unframed tile-chunk path.
    const bool framed = magic != kMagicV1;
    e.progressive = magic == kMagicV3;
    uint32_t width = 0;
    uint32_t height = 0;
    uint32_t tileSize = 0;
    uint32_t dwtLevels = 0;
    uint32_t layers = 0;
    if (!tryReadPod(data, len, pos, width) ||
        !tryReadPod(data, len, pos, height) ||
        !tryReadPod(data, len, pos, tileSize) ||
        !tryReadPod(data, len, pos, dwtLevels) ||
        !tryReadPod(data, len, pos, layers))
        return cut();
    if (width == 0 || width > kMaxDim || height == 0 ||
        height > kMaxDim) {
        msg = formatError("encoded image has invalid dimensions %ux%u",
                          width, height);
        return StreamError::Corrupt;
    }
    if (static_cast<uint64_t>(width) * height > kMaxPixels) {
        msg = formatError(
            "encoded image dimensions %ux%u exceed the %llu-pixel cap",
            width, height, static_cast<unsigned long long>(kMaxPixels));
        return StreamError::Corrupt;
    }
    if (tileSize == 0 || tileSize > kMaxDim) {
        msg = formatError("encoded image has invalid tile size %u",
                          tileSize);
        return StreamError::Corrupt;
    }
    if (dwtLevels > 30) {
        msg = formatError(
            "encoded image has invalid DWT level count %u", dwtLevels);
        return StreamError::Corrupt;
    }
    if (layers == 0 || layers > kMaxLayers) {
        msg = formatError("encoded image has invalid layer count %u",
                          layers);
        return StreamError::Corrupt;
    }
    e.width = static_cast<int>(width);
    e.height = static_cast<int>(height);
    e.tileSize = static_cast<int>(tileSize);
    e.dwtLevels = static_cast<int>(dwtLevels);
    e.layers = static_cast<int>(layers);
    uint32_t flags = 0;
    if (!tryReadPod(data, len, pos, flags))
        return cut();
    e.wavelet = (flags & 1u) ? Wavelet::LeGall53 : Wavelet::CDF97;
    e.lossless = (flags & 2u) != 0;
    e.losslessDepth = static_cast<int>((flags >> 8) & 0xFFu);
    if (e.lossless &&
        (e.losslessDepth < 1 || e.losslessDepth > 16 ||
         e.wavelet != Wavelet::LeGall53)) {
        msg = formatError(
            "encoded image has invalid lossless flags 0x%x", flags);
        return StreamError::Corrupt;
    }
    if (!tryReadPod(data, len, pos, e.quantStep))
        return cut();
    if (!std::isfinite(e.quantStep) || e.quantStep <= 0.0) {
        msg = "encoded image has invalid quantizer step";
        return StreamError::Corrupt;
    }
    if (framed) {
        uint32_t chunkRows = 0;
        if (!tryReadPod(data, len, pos, chunkRows))
            return cut();
        if (chunkRows == 0 || chunkRows > kMaxDim) {
            msg = formatError(
                "encoded image has invalid chunk height %u", chunkRows);
            return StreamError::Corrupt;
        }
        e.chunkRows = static_cast<int>(chunkRows);
    }
    uint32_t tiles = 0;
    if (!tryReadPod(data, len, pos, tiles))
        return cut();
    uint64_t tilesX = (width + tileSize - 1) / tileSize;
    uint64_t tilesY = (height + tileSize - 1) / tileSize;
    if (tiles != tilesX * tilesY) {
        msg = formatError(
            "encoded image tile count %u does not match its "
            "%ux%u/%u grid (%llu tiles)",
            tiles, width, height, tileSize,
            static_cast<unsigned long long>(tilesX * tilesY));
        return StreamError::Corrupt;
    }
    // Bounds-check the packed bitmap BEFORE sizing tileCoded, so a
    // corrupt tile count cannot drive a huge allocation.
    size_t packed = (static_cast<size_t>(tiles) + 7) / 8;
    if (packed > len - pos) {
        msg = "encoded image stream truncated in tile bitmap";
        return StreamError::Truncated;
    }
    e.tileCoded.resize(tiles);
    size_t nCoded = 0;
    for (size_t i = 0; i < tiles; ++i) {
        e.tileCoded[i] = (data[pos + i / 8] >> (i % 8)) & 1u;
        nCoded += e.tileCoded[i];
    }
    pos += packed;
    for (int l = 0; l < e.layers; ++l) {
        if (e.progressive && pos == len) {
            // Clean cut at a layer boundary: the remaining layers
            // never arrived; decode degrades to the layers present.
            e.truncated = true;
            return StreamError::None;
        }
        uint32_t size = 0;
        if (!tryReadPod(data, len, pos, size))
            return cut();
        if (size > len - pos) {
            if (e.progressive &&
                validLayerPrefix(data + pos, len - pos, nCoded,
                                 l == 0)) {
                // Recorded mid-layer truncation point: keep the
                // partial layer; its segments decode best-effort.
                e.layerChunks.emplace_back(data + pos, data + len);
                e.truncated = true;
                return StreamError::None;
            }
            msg = formatError(
                "encoded image stream truncated in layer %d: chunk "
                "of %u bytes but only %zu remain",
                l, size, len - pos);
            return StreamError::Truncated;
        }
        e.layerChunks.emplace_back(data + pos, data + pos + size);
        pos += size;
    }
    return StreamError::None;
}

} // anonymous namespace

EncodedImage
EncodedImage::deserialize(const uint8_t *data, size_t len)
{
    EncodedImage e;
    std::string msg;
    if (parseStream(data, len, e, msg) != StreamError::None)
        fatal("%s", msg.c_str());
    return e;
}

StreamError
EncodedImage::tryDeserialize(const uint8_t *data, size_t len,
                             EncodedImage &out, std::string *message)
{
    EncodedImage e;
    std::string msg;
    StreamError err = parseStream(data, len, e, msg);
    if (err == StreamError::None)
        out = std::move(e);
    else if (message)
        *message = std::move(msg);
    return err;
}

namespace {

/** The header facts the truncation walkers need, parsed cheaply. */
struct StreamShape
{
    uint32_t magic = 0;
    int layers = 0;
    size_t nCoded = 0; ///< Coded tiles (set bits in the bitmap).
    size_t floor = 0;  ///< Offset just past the coded-tile bitmap.
};

/** Minimal header read for the walkers; fatal() on a broken header. */
StreamShape
readShape(const uint8_t *data, size_t len)
{
    StreamShape sh;
    size_t pos = 0;
    auto rd32 = [&]() -> uint32_t {
        if (len - pos < 4)
            fatal("encoded image stream truncated");
        uint32_t v = util::readPodAt<uint32_t>(data, pos);
        pos += 4;
        return v;
    };
    sh.magic = rd32();
    if (sh.magic != kMagicV1 && sh.magic != kMagicV2 &&
        sh.magic != kMagicV3)
        fatal("bad encoded-image magic");
    rd32(); // width
    rd32(); // height
    rd32(); // tileSize
    rd32(); // dwtLevels
    sh.layers = static_cast<int>(rd32());
    rd32(); // flags
    if (len - pos < 8)
        fatal("encoded image stream truncated");
    pos += 8; // quantStep
    if (sh.magic != kMagicV1)
        rd32(); // chunkRows
    uint32_t tiles = rd32();
    size_t packed = (static_cast<size_t>(tiles) + 7) / 8;
    if (packed > len - pos)
        fatal("encoded image stream truncated in tile bitmap");
    for (size_t i = 0; i < tiles; ++i)
        sh.nCoded += (data[pos + i / 8] >> (i % 8)) & 1u;
    pos += packed;
    sh.floor = pos;
    return sh;
}

/**
 * Visit every recorded truncation point of a complete progressive
 * stream in ascending order; `fn(offset)` returning false stops the
 * walk. The set visited here is exactly the set of prefix lengths
 * parseStream() accepts — tests/progressive_test.cc pins the two
 * against each other. fatal() on non-progressive or overrunning
 * framing (the input must be a full, valid EPC4 stream).
 */
template <typename Fn>
void
walkTruncationPoints(const uint8_t *data, size_t len, Fn &&fn)
{
    StreamShape sh = readShape(data, len);
    if (sh.magic != kMagicV3)
        fatal("stream is not progressive (EPC4): no truncation points");
    auto need = [&](size_t pos, size_t n) {
        if (n > len - pos)
            fatal("corrupt progressive stream at offset %zu", pos);
    };
    if (!fn(sh.floor))
        return;
    size_t pos = sh.floor;
    for (int l = 0; l < sh.layers && pos < len; ++l) {
        need(pos, 4);
        uint32_t layerLen = util::readPodAt<uint32_t>(data, pos);
        pos += 4;
        need(pos, layerLen);
        if (!fn(pos))
            return;
        const size_t layerEnd = pos + layerLen;
        for (size_t t = 0; t < sh.nCoded && pos < layerEnd; ++t) {
            need(pos, 4);
            uint32_t subLen = util::readPodAt<uint32_t>(data, pos);
            pos += 4;
            need(pos, subLen);
            if (!fn(pos))
                return;
            const size_t subEnd = pos + subLen;
            while (pos < subEnd) {
                need(pos, 4);
                uint32_t ecLen = util::readPodAt<uint32_t>(data, pos);
                pos += 4;
                need(pos, ecLen);
                if (!fn(pos))
                    return;
                const size_t chunkEnd = pos + ecLen;
                if (l == 0 && pos < chunkEnd) {
                    ++pos; // raw maxPlane byte heads the chunk
                    if (!fn(pos))
                        return;
                }
                while (pos < chunkEnd) {
                    need(pos, 4);
                    uint32_t segWord =
                        util::readPodAt<uint32_t>(data, pos);
                    pos += 4;
                    size_t segLen = segWord >> 2;
                    need(pos, segLen);
                    pos += segLen;
                    if (!fn(pos))
                        return;
                }
                pos = chunkEnd;
            }
            pos = subEnd;
        }
        pos = layerEnd;
    }
}

} // anonymous namespace

size_t
streamHeaderFloor(const uint8_t *data, size_t len)
{
    return readShape(data, len).floor;
}

size_t
streamHeaderFloor(const std::vector<uint8_t> &bytes)
{
    return streamHeaderFloor(bytes.data(), bytes.size());
}

std::vector<size_t>
truncationPoints(const uint8_t *data, size_t len)
{
    std::vector<size_t> points;
    walkTruncationPoints(data, len, [&](size_t off) {
        points.push_back(off);
        return true;
    });
    return points;
}

std::vector<size_t>
truncationPoints(const std::vector<uint8_t> &bytes)
{
    return truncationPoints(bytes.data(), bytes.size());
}

std::vector<uint8_t>
truncateStream(const uint8_t *data, size_t len, size_t budget)
{
    if (budget >= len) {
        if (readShape(data, len).magic != kMagicV3)
            fatal("stream is not progressive (EPC4): cannot truncate");
        return std::vector<uint8_t>(data, data + len);
    }
    size_t best = 0;
    bool any = false;
    walkTruncationPoints(data, len, [&](size_t off) {
        if (off > budget)
            return false;
        best = off;
        any = true;
        return true;
    });
    EP_ASSERT(any, "budget %zu below the stream header floor", budget);
    return std::vector<uint8_t>(data, data + best);
}

std::vector<uint8_t>
truncateStream(const std::vector<uint8_t> &bytes, size_t budget)
{
    return truncateStream(bytes.data(), bytes.size(), budget);
}

namespace {

/**
 * A run-once pipeline task whose owner can steal it: run() executes
 * the function on the first caller and is a no-op for everyone else,
 * so the task can sit in the pool queue AND be claimed directly by
 * the thread that needs its result — whoever gets there first wins.
 * This is what keeps every lane busy in the staged encode pipeline:
 * the assembling thread never parks behind a task the pool has not
 * scheduled yet, it just runs it.
 *
 * run() never throws (exceptions land in the shared future, rethrown
 * by get()), which makes settle() safe to call during unwinding.
 */
template <typename R>
class OnceTask
{
  public:
    explicit OnceTask(std::function<R()> fn)
        : fn_(std::move(fn)), future_(promise_.get_future().share())
    {
    }

    void
    run()
    {
        if (claimed_.exchange(true))
            return;
        try {
            promise_.set_value(fn_());
        } catch (...) {
            promise_.set_exception(std::current_exception());
        }
    }

    /** Steal-or-wait: run it here if unclaimed, else await the owner. */
    const R &
    get()
    {
        run();
        return future_.get();
    }

    /** True once the result (or its exception) is available. */
    bool
    ready() const
    {
        return future_.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
    }

    /**
     * True once some lane owns the task. claimed() && !ready() means
     * a get() would genuinely wait on another lane — the pipeline's
     * stall metric keys on exactly that state.
     */
    bool
    claimed() const
    {
        return claimed_.load(std::memory_order_acquire);
    }

    /** Force completion without observing the result; never throws. */
    void
    settle()
    {
        run();
        future_.wait();
    }

  private:
    std::function<R()> fn_;
    std::atomic<bool> claimed_{false};
    std::promise<R> promise_;
    std::shared_future<R> future_;
};

using Coeffs = std::shared_ptr<const TileCoefficients>;
using ChunkStreams = std::vector<std::vector<uint8_t>>;

/**
 * One tile's slot in the staged encode pipeline: the DWT+quant task,
 * then (once it resolves) one entropy task per row-slab chunk.
 */
struct TileStage
{
    std::shared_ptr<OnceTask<Coeffs>> transform;
    std::vector<std::shared_ptr<OnceTask<ChunkStreams>>> chunks;
    size_t budget = 0;
};

} // anonymous namespace

EncodedImage
encode(const raster::Plane &img, const EncodeParams &params)
{
    telemetry::TraceSpan encodeSpan("codec.encode", "codec");
    EP_ASSERT(params.layers >= 1, "need at least one quality layer");
    EP_ASSERT(params.chunkRows > 0,
              "chunk height %d: the encoder emits only chunked EPC4 "
              "streams",
              params.chunkRows);
    EP_ASSERT(params.bitsPerPixel > 0.0 || params.lossless,
              "non-positive bit budget");
    EP_ASSERT(!params.lossless || params.wavelet == Wavelet::LeGall53,
              "lossless coding requires the LeGall 5/3 wavelet");

    raster::TileGrid grid(img.width(), img.height(), params.tileSize);
    if (params.roi) {
        EP_ASSERT(params.roi->tilesX() == grid.tilesX() &&
                  params.roi->tilesY() == grid.tilesY(),
                  "ROI mask (%dx%d tiles) does not match grid (%dx%d)",
                  params.roi->tilesX(), params.roi->tilesY(),
                  grid.tilesX(), grid.tilesY());
    }

    EncodedImage out;
    out.width = img.width();
    out.height = img.height();
    out.tileSize = params.tileSize;
    out.dwtLevels = params.dwtLevels;
    out.layers = params.layers;
    out.wavelet = params.wavelet;
    out.lossless = params.lossless;
    out.losslessDepth = params.losslessDepth;
    out.quantStep = params.quantStep;
    out.chunkRows = params.chunkRows;
    out.progressive = true;
    out.tileCoded.assign(static_cast<size_t>(grid.tileCount()), 0);

    TileCoderParams tp;
    tp.dwtLevels = params.dwtLevels;
    tp.wavelet = params.wavelet;
    tp.lossless = params.lossless;
    tp.losslessDepth = params.losslessDepth;
    tp.quantStep = params.quantStep;
    tp.chunkRows = params.chunkRows;

    std::vector<int> codedTiles;
    for (int t = 0; t < grid.tileCount(); ++t) {
        if (params.roi && !params.roi->get(t))
            continue;
        out.tileCoded[static_cast<size_t>(t)] = 1;
        codedTiles.push_back(t);
    }

    out.layerChunks.assign(static_cast<size_t>(params.layers), {});
    const int layers = params.layers;

    auto budgetFor = [&](const raster::TileRect &r) {
        size_t pixels = static_cast<size_t>(r.width) *
                        static_cast<size_t>(r.height);
        return params.lossless
            ? SIZE_MAX / 2
            : static_cast<size_t>(params.bitsPerPixel *
                                  static_cast<double>(pixels) / 8.0);
    };

    auto appendTile = [&](ChunkStreams tileLayers) {
        codecMetrics().tilesEncoded.add();
        for (int l = 0; l < layers; ++l) {
            const auto &sub = tileLayers[static_cast<size_t>(l)];
            auto &chunk = out.layerChunks[static_cast<size_t>(l)];
            appendPod(chunk, static_cast<uint32_t>(sub.size()));
            chunk.insert(chunk.end(), sub.begin(), sub.end());
        }
    };

    util::ThreadPool &pool = util::ThreadPool::global();
    if (!pool.canFanOut() || codedTiles.size() <= 1) {
        // Serial (or nested, or single-tile) path: plain in-order
        // per-tile encode. With one tile this deliberately skips the
        // pipeline so encodeTileLayers' own chunk fan-out still gets
        // the whole pool — that is the oversized-tile latency case.
        for (int t : codedTiles) {
            telemetry::TraceSpan tileSpan("codec.tile", "codec");
            raster::TileRect r = grid.rect(t);
            raster::Plane tile = img.crop(r.x0, r.y0, r.width, r.height);
            appendTile(encodeTileLayers(tile, tp, layers, budgetFor(r)));
        }
        return out;
    }

    // Staged pipeline: DWT+quant of tile N+k overlaps entropy coding
    // of tile N. A bounded lookahead window of transform tasks feeds
    // per-chunk entropy tasks as transforms resolve; the caller
    // assembles finished tiles in flat tile-index order, stealing any
    // unclaimed task it is about to wait on (OnceTask) so no lane
    // idles. Every task is a pure function of its inputs and the
    // assembly order is fixed, so the stream is byte-identical to the
    // serial path at every thread count.
    const size_t lookahead =
        2 * static_cast<size_t>(pool.threadCount());
    std::deque<TileStage> window;
    size_t nextTile = 0;

    auto topUp = [&] {
        while (window.size() < lookahead &&
               nextTile < codedTiles.size()) {
            raster::TileRect r = grid.rect(codedTiles[nextTile]);
            TileStage st;
            st.budget = budgetFor(r);
            st.transform = std::make_shared<OnceTask<Coeffs>>(
                [&img, r, &tp] {
                    telemetry::TraceSpan span("codec.transform",
                                              "codec");
                    telemetry::ScopedTimer timer(
                        codecMetrics().transformNs);
                    raster::Plane tile =
                        img.crop(r.x0, r.y0, r.width, r.height);
                    return std::make_shared<const TileCoefficients>(
                        transformTile(tile, tp));
                });
            pool.submit([t = st.transform] { t->run(); });
            window.push_back(std::move(st));
            ++nextTile;
        }
    };

    // Fan one resolved transform out into its entropy-chunk tasks.
    // Called at most once per stage (guarded by chunks.empty()).
    auto submitChunks = [&](TileStage &st) {
        if (!st.chunks.empty())
            return;
        Coeffs coeffs = st.transform->get();
        const int chunks = chunkCount(tp, coeffs->height);
        st.chunks.reserve(static_cast<size_t>(chunks));
        for (int c = 0; c < chunks; ++c) {
            auto task = std::make_shared<OnceTask<ChunkStreams>>(
                [coeffs, &tp, c, layers, budget = st.budget] {
                    telemetry::TraceSpan span("codec.entropy_chunk",
                                              "codec");
                    telemetry::ScopedTimer timer(
                        codecMetrics().entropyChunkNs);
                    return encodeTileChunk(*coeffs, tp, c, layers,
                                           budget);
                });
            pool.submit([task] { task->run(); });
            st.chunks.push_back(std::move(task));
        }
    };

    try {
        topUp();
        while (!window.empty()) {
            // Opportunistically fan out the entropy work of every
            // transformed tile in the window, not just the front one.
            for (TileStage &st : window)
                if (st.chunks.empty() && st.transform->ready())
                    submitChunks(st);
            TileStage &front = window.front();
            submitChunks(front); // steals the transform if unclaimed
            std::vector<ChunkStreams> perChunk;
            perChunk.reserve(front.chunks.size());
            for (auto &task : front.chunks) {
                if (task->claimed() && !task->ready()) {
                    // Another lane owns this chunk and has not
                    // finished: the assembly lane genuinely stalls.
                    codecMetrics().stalls.add();
                    telemetry::TraceSpan stallSpan(
                        "codec.pipeline.stall", "codec");
                    telemetry::ScopedTimer stall(
                        codecMetrics().stallNs);
                    perChunk.push_back(task->get());
                } else {
                    perChunk.push_back(task->get());
                }
            }
            appendTile(assembleChunkLayers(perChunk, layers));
            window.pop_front();
            topUp();
        }
    } catch (...) {
        // Tasks capture `img`, `tp` and window state by reference;
        // force every outstanding one to completion (settle never
        // throws) before unwinding the frame they point into.
        for (TileStage &st : window) {
            st.transform->settle();
            for (auto &task : st.chunks)
                task->settle();
        }
        throw;
    }
    return out;
}

namespace {

/** Per-tile sub-chunk spans of a stream, sliced and validated. */
struct SlicedStream
{
    TileCoderParams tp;
    int maxLayers = 0;
    /** Flat indices of coded tiles, ascending. */
    std::vector<int> codedTiles;
    /** tile index -> slot in codedTiles/spans, or -1 when not coded. */
    std::vector<int> slotOfTile;
    /** spans[slot][layer]. */
    std::vector<std::vector<ChunkSpan>> spans;
};

/**
 * Slice each layer chunk into validated per-tile sub-chunk spans. The
 * spans point into `e`'s chunk storage, so the stream must outlive the
 * returned view.
 */
SlicedStream
sliceStream(const EncodedImage &e, const raster::TileGrid &grid,
            int maxLayers)
{
    EP_ASSERT(static_cast<int>(e.tileCoded.size()) == grid.tileCount(),
              "coded-tile flags (%zu) do not match grid (%d)",
              e.tileCoded.size(), grid.tileCount());
    SlicedStream s;
    if (maxLayers < 0 || maxLayers > static_cast<int>(e.layerChunks.size()))
        maxLayers = static_cast<int>(e.layerChunks.size());
    s.maxLayers = maxLayers;
    s.tp.dwtLevels = e.dwtLevels;
    s.tp.wavelet = e.wavelet;
    s.tp.lossless = e.lossless;
    s.tp.losslessDepth = e.losslessDepth;
    s.tp.quantStep = e.quantStep;
    s.tp.chunkRows = e.chunkRows;
    s.tp.progressive = e.progressive;

    s.slotOfTile.assign(static_cast<size_t>(grid.tileCount()), -1);
    for (int t = 0; t < grid.tileCount(); ++t) {
        if (!e.tileCoded[static_cast<size_t>(t)])
            continue;
        s.slotOfTile[static_cast<size_t>(t)] =
            static_cast<int>(s.codedTiles.size());
        s.codedTiles.push_back(t);
    }

    s.spans.assign(s.codedTiles.size(),
                   std::vector<ChunkSpan>(static_cast<size_t>(maxLayers)));
    for (int layer = 0; layer < maxLayers; ++layer) {
        const auto &chunk = e.layerChunks[static_cast<size_t>(layer)];
        size_t pos = 0;
        for (size_t slot = 0; slot < s.codedTiles.size(); ++slot) {
            if (pos + 4 > chunk.size()) {
                // A truncated progressive stream legitimately ends
                // mid-layer: the remaining tiles keep empty spans and
                // reconstruct from earlier layers (or as zeros).
                if (e.truncated)
                    break;
                fatal("layer %d chunk truncated before tile %d",
                      layer, s.codedTiles[slot]);
            }
            uint32_t len;
            std::memcpy(&len, chunk.data() + pos, 4);
            pos += 4;
            if (len > chunk.size() - pos) {
                if (e.truncated) {
                    // The cut landed inside this tile's sub-chunk:
                    // hand the decoder the prefix that did arrive.
                    s.spans[slot][static_cast<size_t>(layer)] =
                        ChunkSpan{chunk.data() + pos,
                                  chunk.size() - pos};
                    break;
                }
                fatal("layer %d chunk truncated inside tile %d: "
                      "sub-chunk of %u bytes but only %zu remain",
                      layer, s.codedTiles[slot], len, chunk.size() - pos);
            }
            s.spans[slot][static_cast<size_t>(layer)] =
                ChunkSpan{chunk.data() + pos, len};
            pos += len;
        }
    }
    return s;
}

} // anonymous namespace

raster::Plane
decode(const EncodedImage &e, int maxLayers)
{
    telemetry::TraceSpan decodeSpan("codec.decode", "codec");
    raster::TileGrid grid(e.width, e.height, e.tileSize);
    SlicedStream s = sliceStream(e, grid, maxLayers);

    // Tiles decode in parallel: their pixel rectangles are disjoint,
    // so concurrent pastes never touch the same pixel.
    raster::Plane out(e.width, e.height, 0.0f);
    util::ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(s.codedTiles.size()), [&](int64_t slot) {
            telemetry::TraceSpan span("codec.decode_tile", "codec");
            codecMetrics().tilesDecoded.add();
            raster::TileRect r =
                grid.rect(s.codedTiles[static_cast<size_t>(slot)]);
            out.paste(decodeTileLayers(r.width, r.height, s.tp,
                                       s.spans[static_cast<size_t>(slot)]),
                      r.x0, r.y0);
        });
    return out;
}

std::vector<raster::Plane>
decodeTiles(const EncodedImage &e, const std::vector<int> &tiles,
            int maxLayers)
{
    raster::TileGrid grid(e.width, e.height, e.tileSize);
    for (int t : tiles)
        EP_ASSERT(t >= 0 && t < grid.tileCount(),
                  "tile index %d outside grid of %d tiles", t,
                  grid.tileCount());
    SlicedStream s = sliceStream(e, grid, maxLayers);

    return util::parallelMap(tiles.size(), [&](size_t i) {
        telemetry::TraceSpan span("codec.decode_tile", "codec");
        int t = tiles[i];
        raster::TileRect r = grid.rect(t);
        int slot = s.slotOfTile[static_cast<size_t>(t)];
        if (slot < 0)
            return raster::Plane(r.width, r.height, 0.0f);
        codecMetrics().tilesDecoded.add();
        return decodeTileLayers(r.width, r.height, s.tp,
                                s.spans[static_cast<size_t>(slot)]);
    });
}

} // namespace earthplus::codec
