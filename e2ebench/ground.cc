/**
 * @file
 * ground_ingest_serve: captures the program's own EarthPlusSystem
 * encoded during set-up land through a GroundStation into an on-disk
 * archive on one thread, while two closed-loop TileClients query a
 * net::Server over a TileServer on loopback.
 *
 * Each client works in blocks. Block b of client c first waits until
 * ingest capture 2b + c has landed, then asks kColdPerBlock queries of
 * that just-landed capture (cold decodes) and kHistoryPerBlock queries
 * of Zipf-popular history (cache-warm). The ingest stream replays the
 * encoded captures in cycles shifted by kCycleDays, so it never runs
 * dry, and every answer follows from the query stream alone.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "codec/codec.hh"
#include "ground/station.hh"
#include "ground/tile_server.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "onboard.hh"
#include "raster/tile.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace e2ebench {

using namespace earthplus;

namespace {

constexpr int kGroundLocations = 4;
constexpr uint64_t kGroundSceneSeed = 0;
constexpr int kGroundSetups = 3;
/**
 * One pool lane: serves run inline on the server's event-loop thread,
 * as in bench_ground_serving, so concurrency comes from the clients.
 */
constexpr int kServingThreads = 1;
constexpr int kClients = 2;
constexpr int kColdPerBlock = 3;
constexpr int kHistoryPerBlock = 9;
constexpr int kQuerySize = 128;
constexpr double kCycleDays = 100.0;
constexpr double kZipfExponent = 1.1;
/** Blocks per client whose queries make up psnr_db. */
constexpr int kPsnrBlocks = 40;
/** Floor the mean served PSNR must stay above (dB). */
constexpr double kServedPsnrFloorDb = 25.0;

/** Per (capture, band): which tiles the stream coded. */
using CodedTiles = std::vector<std::vector<uint8_t>>;

/** One landed record as the benchmark knows it. */
struct Landed
{
    int capture = 0; ///< Index into the collected captures.
    int band = 0;
    double day = 0.0;
    bool full = false;
};

/** One issued query and what came back. */
struct QueryRecord
{
    ground::TileQuery query;
    int block = 0;
    bool ok = false;
    ground::ServeError error = ground::ServeError::NotFound;
    double servedDay = 0.0;
    uint64_t pixelHash = 0;
    double latencyMs = 0.0;
    double serveMs = 0.0;
    int tilesDecoded = 0;
    int tilesCached = 0;
    int tilesCoalesced = 0;
};

ground::CaptureDownload
downloadOf(const CollectedCapture &c, double shift)
{
    ground::CaptureDownload d;
    d.locationId = c.locationId;
    d.satelliteId = c.satelliteId;
    d.captureDay = c.day + shift;
    d.referenceDay = c.referenceDay >= 0.0 ? c.referenceDay + shift : -1.0;
    d.fullDownload = c.fullDownload;
    d.bandPayloads = c.payloads;
    d.cloudFraction = 0.0;
    return d;
}

/** Everything one set-up builds; the last of kGroundSetups is used. */
struct GroundState
{
    std::vector<CollectedCapture> captures; ///< Sorted by (day, location).
    CodedTiles coded;                       ///< [capture * bands + band]
    int tileSize = 0;                       ///< Tile edge of the streams.
    /** Locations that kept at least one capture, and their first day. */
    std::vector<std::pair<int, double>> historyLocations;
    LayerTotals encodeTotals;
    double renderSec = 0.0;
    uint64_t rendered = 0;
    double archiveOpenSec = 0.0;
    std::string archivePath;
    std::unique_ptr<ground::GroundStation> station;
    std::vector<Landed> landed; ///< Records in landing order.
    double advanceDay = 0.0;
    /** History captures lost to their retention window. */
    uint64_t historyLost = 0;
    uint64_t historyAirBytes = 0;
    std::unique_ptr<ground::TileServer> tiles;
    std::unique_ptr<net::Server> server;
    std::vector<std::unique_ptr<net::TileClient>> clients;
    bool ok = true;

    ~GroundState()
    {
        for (auto &c : clients)
            c->close();
        if (server)
            server->stop();
        server.reset();
        tiles.reset();
        station.reset();
        if (!archivePath.empty())
            std::filesystem::remove_all(archivePath);
    }
};

int
bandsOf(const GroundState &g)
{
    return g.captures.empty()
               ? 0
               : static_cast<int>(g.captures.front().payloads.size());
}

/** Land one capture (all bands) and advance past its retention window. */
bool
landCapture(GroundState &g, int captureIdx, double shift)
{
    const CollectedCapture &c = g.captures[static_cast<size_t>(captureIdx)];
    ground::GroundStation &st = *g.station;
    uint32_t before = st.stats().capturesCompleted;
    st.submit(downloadOf(c, shift));
    g.advanceDay = std::max(g.advanceDay, c.day + shift) + 0.5;
    st.advanceTo(g.advanceDay);
    if (st.stats().capturesCompleted != before + 1)
        return false;
    for (size_t b = 0; b < c.payloads.size(); ++b)
        g.landed.push_back({captureIdx, static_cast<int>(b), c.day + shift,
                            c.fullDownload});
    return true;
}

std::unique_ptr<GroundState>
setUpGround(const Options &opts, int round, RunResult &result)
{
    auto g = std::make_unique<GroundState>();
    // The captures are the same in every run; the run's seed drives the
    // packet loss and the query stream.
    OnboardSetup setup = planetSetup(kGroundSceneSeed, kGroundLocations);
    setup.params.groundSegment.channel.seed = mix64(opts.seed ^ 0x10557ULL);

    // Encode: the on-board loop over every location, collecting what
    // went down (the timing of this loop is set-up, not measured).
    util::ThreadPool::setGlobalThreads(kOnboardThreads);
    PhaseClock encodeClock;
    TraceBuffer noTrace;
    uint64_t ops = 0;
    for (int l = 0; l < kGroundLocations; ++l) {
        LocationInputs in = setUpLocation(setup, l, kOnboardThreads);
        g->renderSec += in.renderSec;
        g->rendered += in.captures.size();
        LocationOutcome o = runLocation(setup, in, encodeClock, noTrace, ops,
                                        result, &g->captures);
        g->encodeTotals.add(o.totals);
    }
    std::stable_sort(g->captures.begin(), g->captures.end(),
                     [](const CollectedCapture &a, const CollectedCapture &b) {
                         return a.day < b.day;
                     });
    std::map<int, double> firstDay;
    for (const auto &c : g->captures) {
        firstDay.emplace(c.locationId, c.day);
        for (const auto &p : c.payloads) {
            codec::EncodedImage enc = codec::EncodedImage::deserialize(p);
            g->tileSize = enc.tileSize;
            g->coded.push_back(enc.tileCoded);
        }
    }
    g->historyLocations.assign(firstDay.begin(), firstDay.end());
    if (g->captures.empty()) {
        result.problem("no capture of the ground locations went down");
        g->ok = false;
        return g;
    }
    util::ThreadPool::setGlobalThreads(kServingThreads);

    // Open the on-disk archive behind a fresh ground station and land
    // the history (cycle 0).
    g->archivePath = opts.workDir + "/ground-" + std::to_string(getpid()) +
                     "-" + std::to_string(round);
    std::filesystem::remove_all(g->archivePath);
    std::filesystem::create_directories(opts.workDir);
    ground::GroundSegmentParams gp = setup.params.groundSegment;
    gp.archivePath = g->archivePath;
    uint64_t a0 = nowNs();
    g->station = std::make_unique<ground::GroundStation>(gp);
    g->archiveOpenSec = secBetween(a0, nowNs());
    for (size_t i = 0; i < g->captures.size(); ++i)
        if (!landCapture(*g, static_cast<int>(i), 0.0))
            ++g->historyLost;
    g->historyAirBytes = g->station->stats().channel.bytesSent;

    g->tiles = std::make_unique<ground::TileServer>(
        g->station->archive(), ground::TileServerOptions{});
    g->server = std::make_unique<net::Server>(*g->tiles, net::ServerOptions{});
    if (!g->server->start()) {
        result.problem("loopback server failed to start");
        g->ok = false;
        return g;
    }
    for (int c = 0; c < kClients; ++c) {
        g->clients.push_back(std::make_unique<net::TileClient>());
        if (!g->clients.back()->connect("127.0.0.1", g->server->port())) {
            result.problem("client failed to connect");
            g->ok = false;
            return g;
        }
    }

    // Warm the decoded-tile cache: every history record once.
    for (const auto &c : g->captures)
        for (int b = 0; b < bandsOf(*g); ++b) {
            ground::TileQuery q;
            q.locationId = c.locationId;
            q.day = c.day;
            q.band = b;
            q.width = setup.spec.width;
            q.height = setup.spec.height;
            ground::TileResult r;
            if (!g->clients[0]->query(q, r) || !r.ok()) {
                result.problem("warm-up query failed");
                g->ok = false;
            }
        }
    g->tiles->waitForPrefetchIdle();
    return g;
}

/** Zipf(kZipfExponent) location index in [0, n). */
int
zipf(Rng &rng, int n)
{
    double total = 0.0;
    for (int i = 0; i < n; ++i)
        total += 1.0 / std::pow(i + 1, kZipfExponent);
    double u = rng.uniform() * total;
    for (int i = 0; i < n; ++i) {
        u -= 1.0 / std::pow(i + 1, kZipfExponent);
        if (u <= 0.0)
            return i;
    }
    return n - 1;
}

/** Serializes landing requests from the clients onto the ingest thread. */
class Ingest
{
  public:
    Ingest(GroundState &g, TraceBuffer &trace) : g_(g), trace_(trace) {}

    /** Block until landing-sequence entry `j` has landed (or failed). */
    void
    waitLanded(uint64_t j)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        target_ = std::max(target_, j + 1);
        cv_.notify_all();
        cv_.wait(lock, [&] { return done_ > j || stop_; });
    }

    void
    stop()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        cv_.notify_all();
    }

    /** Ingest thread body. */
    void
    run()
    {
        for (;;) {
            uint64_t j;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] { return target_ > done_ || stop_; });
                if (stop_)
                    return;
                j = done_;
            }
            uint64_t t0 = nowNs();
            bool ok;
            {
                ScopedSpan root(trace_, "ingest", j, -1);
                ScopedSpan s(trace_, "ground.downlink", j, root.index());
                ok = landCapture(g_, captureOf(j), shiftOf(j));
            }
            busySec_ += secBetween(t0, nowNs());
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!ok)
                    ++lost_;
                ++done_;
                cv_.notify_all();
            }
        }
    }

    /** Captures land in cycles: entry j is capture j mod n ... */
    int
    captureOf(uint64_t j) const
    {
        return static_cast<int>(j % g_.captures.size());
    }

    /** ... shifted by kCycleDays per cycle (cycle 0 is the history). */
    double
    shiftOf(uint64_t j) const
    {
        return kCycleDays * static_cast<double>(j / g_.captures.size() + 1);
    }

    uint64_t landedCount() const { return done_; }
    uint64_t lost() const { return lost_; }
    double busySec() const { return busySec_; }

  private:
    GroundState &g_;
    TraceBuffer &trace_;
    std::mutex mutex_;
    std::condition_variable cv_;
    uint64_t target_ = 0;
    uint64_t done_ = 0;
    uint64_t lost_ = 0;
    bool stop_ = false;
    double busySec_ = 0.0;
};

/** One client's closed loop, block by block until `stop` is set. */
void
clientLoop(int c, const Options &opts, GroundState &g, Ingest &ingest,
           std::atomic<bool> &stop, std::vector<QueryRecord> &records,
           TraceBuffer &trace)
{
    net::TileClient &client = *g.clients[static_cast<size_t>(c)];
    Rng rng(mix64(opts.seed * 7 + static_cast<uint64_t>(c) + 1));
    int bands = bandsOf(g);
    const int width = g.captures.front().truth.width();
    const int height = g.captures.front().truth.height();
    const int tilesX = (width + g.tileSize - 1) / g.tileSize;
    const int quadTiles = kQuerySize / g.tileSize;
    uint64_t opBase = static_cast<uint64_t>(c + 1) << 40;

    for (int block = 0; !stop.load(std::memory_order_acquire); ++block) {
        uint64_t j = 2 * static_cast<uint64_t>(block) +
                     static_cast<uint64_t>(c);
        ingest.waitLanded(j);
        int capture = ingest.captureOf(j);
        const CollectedCapture &cap = g.captures[static_cast<size_t>(capture)];
        double day = cap.day + ingest.shiftOf(j);

        std::vector<ground::TileQuery> queries;
        // Cold: 128-px quadrants of the just-landed capture that hold
        // at least one coded tile, drawn without replacement.
        std::vector<std::pair<int, int>> quads; // (band, quadrant)
        for (int b = 0; b < bands; ++b) {
            const auto &coded =
                g.coded[static_cast<size_t>(capture * bands + b)];
            for (int qd = 0; qd < 4; ++qd) {
                int tx = (qd % 2) * quadTiles, ty = (qd / 2) * quadTiles;
                bool any = false;
                for (int dy = 0; dy < quadTiles; ++dy)
                    for (int dx = 0; dx < quadTiles; ++dx)
                        any |= coded[static_cast<size_t>(
                                   (ty + dy) * tilesX + tx + dx)] != 0;
                if (any)
                    quads.emplace_back(b, qd);
            }
        }
        for (int k = 0; k < kColdPerBlock && !quads.empty(); ++k) {
            size_t pick = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(quads.size()) - 1));
            ground::TileQuery q;
            q.locationId = cap.locationId;
            q.day = day;
            q.band = quads[pick].first;
            q.x0 = (quads[pick].second % 2) * kQuerySize;
            q.y0 = (quads[pick].second / 2) * kQuerySize;
            q.width = kQuerySize;
            q.height = kQuerySize;
            queries.push_back(q);
            quads.erase(quads.begin() + static_cast<ptrdiff_t>(pick));
        }
        for (int k = 0; k < kHistoryPerBlock; ++k) {
            ground::TileQuery q;
            const auto &[loc, lo] = g.historyLocations[static_cast<size_t>(
                zipf(rng, static_cast<int>(g.historyLocations.size())))];
            q.locationId = loc;
            q.day = rng.uniform(lo, kCycleDays - 10.0);
            q.band = static_cast<int>(rng.uniformInt(0, bands - 1));
            q.x0 = static_cast<int>(rng.uniformInt(0, width - kQuerySize));
            q.y0 = static_cast<int>(rng.uniformInt(0, height - kQuerySize));
            q.width = kQuerySize;
            q.height = kQuerySize;
            queries.push_back(q);
        }

        for (const ground::TileQuery &query : queries) {
            QueryRecord rec;
            rec.query = query;
            rec.block = block;
            uint64_t op = opBase | records.size();
            ground::TileResult r;
            uint64_t t0 = nowNs();
            int32_t root = trace.begin("query", op, -1);
            bool sent = client.query(query, r);
            trace.end(root);
            uint64_t t1 = nowNs();
            rec.latencyMs = msBetween(t0, t1);
            rec.ok = sent && r.ok();
            rec.error = sent ? r.error : ground::ServeError::NotFound;
            rec.servedDay = r.servedDay;
            rec.serveMs = static_cast<double>(r.serveNs) * 1e-6;
            rec.tilesDecoded = r.tilesDecoded;
            rec.tilesCached = r.tilesFromCache;
            rec.tilesCoalesced = r.tilesCoalesced;
            if (rec.ok)
                rec.pixelHash = fnv1a(r.pixels.data().data(),
                                      r.pixels.data().size() * sizeof(float));
            if (trace.enabled() && root >= 0) {
                // The server's own serve time, centred in the round
                // trip; the rest of the round trip is the net layer.
                const Span &s = trace.spans()[static_cast<size_t>(root)];
                uint64_t rt = s.endNs - s.startNs;
                uint64_t serve = std::min<uint64_t>(r.serveNs, rt);
                uint64_t start = s.startNs + (rt - serve) / 2;
                trace.add("ground.serve", op, root, start, start + serve);
            }
            records.push_back(rec);
        }
    }
}

/**
 * The benchmark's own chain reconstruction of one query: per tile, the
 * newest landed record on or before the day (from the latest full
 * download on), decoded from the submitted bytes.
 */
struct Expected
{
    raster::Plane pixels;
    double servedDay = 0.0;
    int servedCapture = -1;
    bool found = false;
};

class Reconstructor
{
  public:
    explicit Reconstructor(const GroundState &g) : g_(g)
    {
        for (size_t i = 0; i < g.landed.size(); ++i) {
            const Landed &l = g.landed[i];
            int loc = g.captures[static_cast<size_t>(l.capture)].locationId;
            chains_[{loc, l.band}].push_back(i);
        }
        for (auto &[key, chain] : chains_)
            std::stable_sort(chain.begin(), chain.end(),
                             [&](size_t a, size_t b) {
                                 return g.landed[a].day < g.landed[b].day;
                             });
    }

    Expected
    answer(const ground::TileQuery &q)
    {
        Expected e;
        auto it = chains_.find({q.locationId, q.band});
        if (it == chains_.end())
            return e;
        std::vector<size_t> chain;
        for (size_t i : it->second)
            if (g_.landed[i].day <= q.day)
                chain.push_back(i);
        size_t from = 0;
        for (size_t k = 0; k < chain.size(); ++k)
            if (g_.landed[chain[k]].full)
                from = k;
        if (chain.empty())
            return e;
        e.found = true;
        int bands = bandsOf(g_);
        e.pixels = raster::Plane(q.width, q.height, 0.0f);
        const CollectedCapture &any = g_.captures.front();
        raster::TileGrid grid(any.truth.width(), any.truth.height(),
                              g_.tileSize);
        for (int t = 0; t < grid.tileCount(); ++t) {
            raster::TileRect r = grid.rect(t);
            int ix0 = std::max(r.x0, q.x0), iy0 = std::max(r.y0, q.y0);
            int ix1 = std::min(r.x0 + r.width, q.x0 + q.width);
            int iy1 = std::min(r.y0 + r.height, q.y0 + q.height);
            if (ix0 >= ix1 || iy0 >= iy1)
                continue;
            for (size_t k = chain.size(); k-- > from;) {
                const Landed &l = g_.landed[chain[k]];
                const auto &coded =
                    g_.coded[static_cast<size_t>(l.capture * bands + l.band)];
                if (!coded[static_cast<size_t>(t)])
                    continue;
                const raster::Plane &plane = decoded(l.capture, l.band);
                e.pixels.paste(plane.crop(ix0, iy0, ix1 - ix0, iy1 - iy0),
                               ix0 - q.x0, iy0 - q.y0);
                if (l.day > e.servedDay) {
                    e.servedDay = l.day;
                    e.servedCapture = l.capture;
                }
                break;
            }
        }
        return e;
    }

  private:
    const raster::Plane &
    decoded(int capture, int band)
    {
        auto key = std::make_pair(capture, band);
        auto it = decoded_.find(key);
        if (it == decoded_.end()) {
            const auto &bytes = g_.captures[static_cast<size_t>(capture)]
                                    .payloads[static_cast<size_t>(band)];
            it = decoded_
                     .emplace(key, codec::decode(
                                       codec::EncodedImage::deserialize(bytes)))
                     .first;
        }
        return it->second;
    }

    const GroundState &g_;
    std::map<std::pair<int, int>, std::vector<size_t>> chains_;
    std::map<std::pair<int, int>, raster::Plane> decoded_;
};

/** PSNR of served pixels against the capture they were served from. */
bool
servedPsnr(const GroundState &g, const ground::TileQuery &q,
           const Expected &e, double &psnr)
{
    if (e.servedCapture < 0)
        return false;
    const CollectedCapture &c = g.captures[static_cast<size_t>(e.servedCapture)];
    const raster::Plane &truth = c.truth.band(q.band);
    double se = 0.0;
    size_t n = 0;
    for (int y = 0; y < q.height; ++y)
        for (int x = 0; x < q.width; ++x) {
            if (c.cloudTruth.get(q.x0 + x, q.y0 + y))
                continue;
            double d = static_cast<double>(e.pixels.at(x, y)) -
                       truth.at(q.x0 + x, q.y0 + y);
            se += d * d;
            ++n;
        }
    if (n == 0)
        return false;
    double mse = se / static_cast<double>(n);
    psnr = mse > 0.0 ? 10.0 * std::log10(1.0 / mse) : 99.0;
    return true;
}

} // anonymous namespace

int
runGroundIngestServe(const Options &opts, RunResult &out)
{
    // Set up several times (each from scratch); the last one serves.
    std::vector<double> setupSec;
    std::unique_ptr<GroundState> g;
    for (int round = 0; round < kGroundSetups; ++round) {
        g.reset();
        uint64_t t0 = nowNs();
        g = setUpGround(opts, round, out);
        setupSec.push_back(secBetween(t0, nowNs()));
        if (!g->ok)
            return 1;
    }

    TraceBuffer ingestTrace(opts.trace);
    std::vector<TraceBuffer> clientTrace;
    for (int c = 0; c < kClients; ++c)
        clientTrace.emplace_back(opts.trace);
    Ingest ingest(*g, ingestTrace);
    std::atomic<bool> stop{false};
    std::vector<std::vector<QueryRecord>> records(kClients);

    PhaseClock clock;
    clock.resume();
    uint64_t t0 = nowNs();
    std::thread ingestThread([&] { ingest.run(); });
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            clientLoop(c, opts, *g, ingest, stop, records[static_cast<size_t>(c)],
                       clientTrace[static_cast<size_t>(c)]);
        });
    while (secBetween(t0, nowNs()) < opts.seconds)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true, std::memory_order_release);
    for (auto &t : clients)
        t.join();
    double wall = secBetween(t0, nowNs());
    clock.pause();
    ingest.stop();
    ingestThread.join();

    // ---------------------------------------------------------- checks
    // Landed payloads, read back through the archive, against the
    // bytes the benchmark submitted.
    const ground::Archive &archive = g->station->archive();
    if (archive.recordCount() != g->landed.size())
        out.problem("archive record count differs from the landed records");
    for (size_t idx = 0; idx < std::min(archive.recordCount(), g->landed.size());
         ++idx) {
        ground::RecordEntry e = archive.record(idx);
        const Landed &l = g->landed[idx];
        const CollectedCapture &c = g->captures[static_cast<size_t>(l.capture)];
        const auto &want = c.payloads[static_cast<size_t>(l.band)];
        ground::PayloadView view = archive.payloadView(idx);
        if (e.meta.band != l.band || e.meta.captureDay != l.day ||
            e.meta.locationId != c.locationId || view.size() != want.size() ||
            !std::equal(want.begin(), want.end(), view.data()))
            out.problem("landed payload differs from the submitted bytes");
    }

    Reconstructor recon(*g);
    uint64_t queries = 0, failedQueries = 0;
    std::vector<double> latency, serve, overhead;
    double decoded = 0, cached = 0, coalesced = 0, psnrSum = 0;
    uint64_t psnrCount = 0;
    for (const auto &clientRecords : records)
        for (const QueryRecord &r : clientRecords) {
            ++queries;
            if (!r.ok || r.error != ground::ServeError::None) {
                ++failedQueries;
                continue;
            }
            latency.push_back(r.latencyMs);
            serve.push_back(r.serveMs);
            overhead.push_back(r.latencyMs - r.serveMs);
            decoded += r.tilesDecoded;
            cached += r.tilesCached;
            coalesced += r.tilesCoalesced;
            Expected e = recon.answer(r.query);
            uint64_t h = e.found ? fnv1a(e.pixels.data().data(),
                                         e.pixels.data().size() * sizeof(float))
                                 : 0;
            if (!e.found || h != r.pixelHash || e.servedDay != r.servedDay)
                out.problem("served pixels differ from the chain "
                            "reconstruction");
            double p;
            if (r.block < kPsnrBlocks && servedPsnr(*g, r.query, e, p)) {
                psnrSum += p;
                ++psnrCount;
            }
        }
    if (queries < 1000)
        out.problem("fewer than 1000 queries in the timed phase");
    for (const auto &clientRecords : records) {
        int blocks = clientRecords.empty() ? 0 : clientRecords.back().block + 1;
        if (blocks < kPsnrBlocks)
            out.problem("a client finished fewer blocks than psnr_db covers");
    }
    double psnr = psnrCount ? psnrSum / static_cast<double>(psnrCount) : 0.0;
    if (psnr < kServedPsnrFloorDb)
        out.problem("mean served PSNR " + std::to_string(psnr) + " below floor");

    uint64_t landings = ingest.landedCount();
    out.attempted = queries + landings + g->captures.size();
    out.failed = failedQueries + ingest.lost() + g->historyLost;

    // Per capture of one full cycle: identical in every run.
    double cycleBytes = 0.0;
    for (const auto &c : g->captures)
        for (const auto &p : c.payloads)
            cycleBytes += static_cast<double>(p.size());
    double perCapture = static_cast<double>(std::max<size_t>(g->captures.size(), 1));

    Metrics &m = out.metrics;
    double nq = static_cast<double>(std::max<uint64_t>(queries, 1));
    if (!opts.trace) {
        m.set("setup_s", median(setupSec), "s");
        m.set("ops_per_s", static_cast<double>(queries) / wall, "1/s");
        m.set("latency_ms_p50", percentile(latency, 0.5), "ms");
        m.set("latency_ms_p90", percentile(latency, 0.9), "ms");
        m.set("cpu_ms_per_op", clock.cpuSec() * 1e3 / nq, "ms");
        m.set("rss_mb", peakRssMb(), "MiB");
        m.set("downlink_bytes_per_capture", cycleBytes / perCapture, "B");
        m.set("downlink_air_bytes_per_capture",
              static_cast<double>(g->historyAirBytes) / perCapture, "B");
        m.set("psnr_db", psnr, "dB");
        m.set("ingest_captures_per_s",
              static_cast<double>(landings) / std::max(ingest.busySec(), 1e-9),
              "1/s");
        return 0;
    }

    std::vector<const TraceBuffer *> buffers{&ingestTrace};
    for (const auto &t : clientTrace)
        buffers.push_back(&t);
    TraceReport tr = finishTrace(opts, buffers);
    if (tr.mismatchedOps > 0)
        out.problem(std::to_string(tr.mismatchedOps) +
                    " traced operations whose layer self-times miss "
                    "their wall time");

    // On-board layers: measured over the set-up's encode loop.
    const LayerTotals &e = g->encodeTotals;
    double eops = static_cast<double>(std::max<uint64_t>(e.ops, 1));
    double edl = static_cast<double>(std::max<uint64_t>(e.downlinked, 1));
    m.set("synth.render_ms_per_capture",
          g->renderSec * 1e3 /
              static_cast<double>(std::max<uint64_t>(g->rendered, 1)),
          "ms");
    m.set("core.uplink_ms_per_capture", e.uplinkMs / eops, "ms");
    m.set("core.uplink_bytes_per_capture", e.uplinkBytes / eops, "B");
    m.set("core.reference_age_days",
          e.refAgeCount ? e.refAgeSum / static_cast<double>(e.refAgeCount) : 0.0,
          "d");
    m.set("core.onboard_cache_bytes",
          e.cacheSamples ? e.cacheBytes / static_cast<double>(e.cacheSamples)
                         : 0.0,
          "B");
    m.set("core.process_ms_per_capture", e.processMs / eops, "ms");
    m.set("core.reconstruct_ms_per_capture",
          (e.processMs - e.cloudMs - e.changeMs - e.encodeMs) / eops, "ms");
    m.set("cloud.detect_ms_per_capture", e.cloudMs / eops, "ms");
    m.set("change.detect_ms_per_capture", e.changeMs / eops, "ms");
    m.set("codec.encode_ms_per_capture", e.encodeMs / eops, "ms");
    m.set("codec.serialize_ms_per_capture", e.serializeMs / eops, "ms");
    m.set("codec.coded_tile_fraction", e.codedTileFraction / edl, "ratio");
    m.set("codec.header_bytes_per_capture", e.headerBytes / edl, "B");
    m.set("codec.bytes_over_budget_per_capture", e.bytesOverBudget / edl, "B");
    // Ground and net layers: measured in the timed phase.
    m.set("ground.downlink_ms_per_capture",
          ingest.busySec() * 1e3 /
              static_cast<double>(std::max<uint64_t>(landings, 1)),
          "ms");
    m.set("ground.packets_per_capture", static_cast<double>(e.packets) / edl,
          "count");
    m.set("ground.retransmits_per_capture",
          static_cast<double>(e.retransmits) / edl, "count");
    m.set("ground.archive_open_s", g->archiveOpenSec, "s");
    m.set("ground.serve_ms_p50", percentile(serve, 0.5), "ms");
    m.set("ground.serve_ms_p99", percentile(serve, 0.99), "ms");
    m.set("ground.tiles_decoded_per_query", decoded / nq, "count");
    m.set("ground.tiles_cached_per_query", cached / nq, "count");
    m.set("ground.tiles_coalesced_per_query", coalesced / nq, "count");
    m.set("net.overhead_ms_p50", percentile(overhead, 0.5), "ms");
    m.set("net.overhead_ms_p99", percentile(overhead, 0.99), "ms");
    m.set("net.roundtrip_ms_p99", percentile(latency, 0.99), "ms");
    m.set("trace.ops_per_s", static_cast<double>(queries) / wall, "1/s");
    m.set("trace.latency_ms_p50", percentile(latency, 0.5), "ms");
    m.set("trace.spans_per_op", static_cast<double>(tr.spans) / nq, "count");
    return 0;
}

} // namespace e2ebench
