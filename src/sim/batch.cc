#include "sim/batch.hh"

#include <algorithm>
#include <limits>

#include "obs/tracer.hh"
#include "sim/ooo_core.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "workload/trace.hh"

namespace xps
{

BatchSimulator::BatchSimulator(
    std::shared_ptr<const TraceBuffer> trace,
    const BatchOptions &opts)
    : trace_(std::move(trace)), opts_(opts)
{
    if (!trace_)
        fatal("BatchSimulator: null trace buffer");
}

BatchSimulator::~BatchSimulator() = default;

std::vector<SimStats>
BatchSimulator::evaluate(const std::vector<CoreConfig> &configs)
{
    return runBatch(configs, {}).stats;
}

ScreenOutcome
BatchSimulator::screen(const std::vector<CoreConfig> &configs,
                       const std::vector<ScreenCut> &cuts)
{
    return runBatch(configs, cuts);
}

std::vector<ScreenCut>
BatchSimulator::defaultCuts(uint32_t width)
{
    if (width <= 1)
        return {};
    if (width < 4)
        return {{0.125, 1}};
    // Early, aggressive cuts: the partial-IPC ranking is already
    // stable a few hundred instructions past warmup (the lanes replay
    // the same trace, so the comparison is paired, not noisy), and
    // each surviving lane still costs a nearly full evaluation — the
    // sooner losers stop, the closer the frontier gets to its floor
    // of one full evaluation per cut survivor.
    return {{1.0 / 32.0, std::max<uint32_t>(1, width / 4)},
            {1.0 / 8.0, 1}};
}

namespace
{

/** Cache geometry — the exact precondition of
 *  MemoryHierarchy::adoptState (latencies excluded by design). */
std::array<uint64_t, 6>
geometryKey(const CoreConfig &c)
{
    return {c.l1Sets,          c.l1Assoc, c.l1LineBytes,
            c.l2Sets,          c.l2Assoc, c.l2LineBytes};
}

} // namespace

ScreenOutcome
BatchSimulator::runBatch(const std::vector<CoreConfig> &configs,
                         const std::vector<ScreenCut> &cuts)
{
    const size_t n = configs.size();
    ScreenOutcome out;
    out.full.assign(n, 0);
    out.stats.assign(n, SimStats{});
    if (n == 0)
        return out;

    obs::ScopedSpan span("sim.batch", "sim", [&] {
        return obs::Args()
            .add("workload", trace_->profileName())
            .add("width", static_cast<uint64_t>(n))
            .add("cuts", static_cast<uint64_t>(cuts.size()));
    });
    Metrics::global().counter("batch.width").add(n);
    Metrics::global().counter("batch.passes").add();

    // Resolve the result memo and collapse within-batch duplicates:
    // `canon[i]` is the first config identical to i (itself when i is
    // the representative); only representatives that missed the memo
    // get a lane.
    std::vector<uint64_t> fp(n);
    std::vector<size_t> canon(n);
    std::vector<size_t> laneCfg; // lane -> representative config
    std::unordered_map<uint64_t, size_t> firstByFp;
    uint64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
        fp[i] = configFingerprint(configs[i]);
        canon[i] = i;
        const auto mit = memo_.find(fp[i]);
        if (mit != memo_.end()) {
            out.stats[i] = mit->second;
            out.full[i] = 1;
            ++hits;
            continue;
        }
        const auto [it, inserted] = firstByFp.emplace(fp[i], i);
        if (!inserted) {
            canon[i] = it->second;
            continue;
        }
        laneCfg.push_back(i);
    }
    memoHits_ += hits;
    if (hits)
        Metrics::global().counter("batch.memo_hits").add(hits);

    const size_t lanes = laneCfg.size();
    if (lanes != 0) {
        const uint64_t measure = opts_.measureInstrs;
        const uint64_t warmup = opts_.effectiveWarmup();

        std::vector<std::unique_ptr<OooCore>> core(lanes);
        std::vector<uint8_t> live(lanes, 1);
        for (size_t l = 0; l < lanes; ++l) {
            const CoreConfig &cfg = configs[laneCfg[l]];
            core[l] = std::make_unique<OooCore>(cfg);
            const GeometryKey key = geometryKey(cfg);
            const auto wit = warmMemo_.find(key);
            if (wit != warmMemo_.end()) {
                core[l]->beginTraceRun(trace_, measure, warmup,
                                       &wit->second);
            } else {
                core[l]->beginTraceRun(trace_, measure, warmup);
                warmMemo_.emplace(key, core[l]->hierarchy());
            }
        }

        // Commit targets: one per cut (clamped into the window and
        // kept increasing), then the full window.
        std::vector<std::pair<uint64_t, uint32_t>> phases;
        uint64_t prev = 0;
        for (const ScreenCut &cut : cuts) {
            uint64_t t = static_cast<uint64_t>(
                cut.fraction * static_cast<double>(measure));
            t = std::min(std::max<uint64_t>(t, 1), measure - 1);
            if (t <= prev)
                continue;
            phases.emplace_back(t, std::max<uint32_t>(cut.keep, 1));
            prev = t;
        }
        phases.emplace_back(measure,
                            std::numeric_limits<uint32_t>::max());

        uint64_t pruned = 0;
        for (const auto &[target, keep] : phases) {
            for (size_t l = 0; l < lanes; ++l) {
                if (live[l] && core[l]->committedSoFar() < target)
                    core[l]->advance(target - core[l]->committedSoFar());
            }
            // Cut: rank live lanes by partial cycles (equal committed
            // count, so fewer cycles = strictly higher IPC); older
            // lane index breaks ties deterministically.
            size_t liveCount = 0;
            for (size_t l = 0; l < lanes; ++l)
                liveCount += live[l];
            if (keep >= liveCount)
                continue;
            std::vector<size_t> order;
            order.reserve(liveCount);
            for (size_t l = 0; l < lanes; ++l)
                if (live[l])
                    order.push_back(l);
            std::sort(order.begin(), order.end(),
                      [&](size_t a, size_t b) {
                          const uint64_t ca = core[a]->cyclesSoFar();
                          const uint64_t cb = core[b]->cyclesSoFar();
                          return ca != cb ? ca < cb : a < b;
                      });
            for (size_t r = keep; r < order.size(); ++r) {
                const size_t l = order[r];
                live[l] = 0;
                out.stats[laneCfg[l]] = core[l]->finish();
                ++pruned;
            }
        }
        if (pruned)
            Metrics::global().counter("batch.pruned").add(pruned);

        for (size_t l = 0; l < lanes; ++l) {
            if (!live[l])
                continue;
            const size_t i = laneCfg[l];
            out.stats[i] = core[l]->finish();
            out.full[i] = 1;
            memo_.emplace(fp[i], out.stats[i]);
        }
    }

    // Duplicates inherit their representative's outcome.
    for (size_t i = 0; i < n; ++i) {
        if (canon[i] != i) {
            out.stats[i] = out.stats[canon[i]];
            out.full[i] = out.full[canon[i]];
        }
    }
    return out;
}

} // namespace xps
