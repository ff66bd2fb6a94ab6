/**
 * @file
 * Lightweight process-wide metrics registry: named monotonic counters
 * and wall-time accumulators, cheap enough for the annealing inner
 * loop (one relaxed atomic add per event once the counter handle is
 * looked up). The Explorer prints periodic progress from it, and when
 * XPS_METRICS_JSON names a file, the full registry is dumped there as
 * JSON at process exit (and on demand) for bench tooling.
 *
 * Naming convention: dotted lower-case paths, e.g.
 *   sim.evaluations          anneal.accepts / anneal.rejects /
 *   anneal.rollbacks         trace_cache.hits / trace_cache.misses
 *   checkpoint.writes        explore.anneal_seconds
 *
 * Latency distributions (DESIGN.md §10): log-scaled Histograms record
 * nanosecond durations of sim runs, anneal steps and worker jobs.
 * They are off by default — recording needs a clock read per event,
 * which the annealing microbenchmark would notice — and armed by
 * Metrics::enableHistograms() (implied by XPS_METRICS_JSON, an armed
 * tracer, or the bench harness). Call sites guard the clock reads
 * with the one-predicted-branch Metrics::histogramsEnabled().
 */

#ifndef XPS_UTIL_METRICS_HH
#define XPS_UTIL_METRICS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace xps
{

namespace detail
{
/** True iff histogram recording is armed (see enableHistograms). */
extern bool gHistogramsEnabled;
} // namespace detail

/** One monotonic counter; handles stay valid for process lifetime. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    get() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the counter (Metrics::reset(); tests only). */
    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/**
 * Log-scaled latency histogram over nanosecond durations. Buckets are
 * power-of-two octaves split into 4 sub-buckets (2 mantissa bits), so
 * relative bucket error is <= 25% across the full uint64 range with a
 * fixed 256-slot table — no allocation, one relaxed atomic add per
 * record. Quantiles are read from the cumulative bucket walk and
 * reported as the bucket midpoint.
 */
class Histogram
{
  public:
    static constexpr size_t kBuckets = 256;

    void
    record(uint64_t ns)
    {
        buckets_[bucketIndex(ns)].fetch_add(
            1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(ns, std::memory_order_relaxed);
        uint64_t seen = max_.load(std::memory_order_relaxed);
        while (ns > seen &&
               !max_.compare_exchange_weak(
                   seen, ns, std::memory_order_relaxed))
            ;
    }

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    uint64_t
    maxNs() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    /** Total of every recorded duration in nanoseconds. */
    uint64_t
    sumNs() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Samples in bucket `index` (rollup serialization). */
    uint64_t
    bucketCount(size_t index) const
    {
        return buckets_[index].load(std::memory_order_relaxed);
    }

    /** Fold `n` pre-bucketed samples into bucket `index` — the
     *  worker-rollup merge path (DESIGN.md §14). Updates the sample
     *  count; pair with absorbSum()/noteMax() for the totals. */
    void
    absorbBucket(size_t index, uint64_t n)
    {
        buckets_[index % kBuckets].fetch_add(
            n, std::memory_order_relaxed);
        count_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Add another histogram's duration total (rollup merge). */
    void
    absorbSum(uint64_t ns)
    {
        sum_.fetch_add(ns, std::memory_order_relaxed);
    }

    /** Raise the max watermark to at least `ns` (rollup merge). */
    void
    noteMax(uint64_t ns)
    {
        uint64_t seen = max_.load(std::memory_order_relaxed);
        while (ns > seen &&
               !max_.compare_exchange_weak(
                   seen, ns, std::memory_order_relaxed))
            ;
    }

    /** Mean in nanoseconds (0 when empty). */
    double meanNs() const;

    /** Approximate quantile (q in [0,1]) in nanoseconds. */
    uint64_t quantileNs(double q) const;

    /** Zero every bucket (Metrics::reset(); tests only). */
    void reset();

    /** ns -> bucket index (exposed for tests). */
    static size_t
    bucketIndex(uint64_t ns)
    {
        if (ns < 8)
            return static_cast<size_t>(ns);
        const int e = 63 - __builtin_clzll(ns);
        const uint64_t sub = (ns >> (e - 2)) & 3;
        return static_cast<size_t>((e - 3) * 4 + 8 + sub);
    }

    /** Inclusive lower bound of a bucket (exposed for tests). */
    static uint64_t bucketLowNs(size_t index);

  private:
    std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> max_{0};
};

/** The registry. Use Metrics::global() for the process instance. */
class Metrics
{
  public:
    /** Process-wide registry; first use arms the XPS_METRICS_JSON
     *  at-exit dump when that variable names a file. */
    static Metrics &global();

    /** Look up (or create) a counter. The reference stays valid for
     *  the lifetime of the registry; hot paths should cache it. */
    Counter &counter(const std::string &name);

    /** Accumulate wall time into a named timer. */
    void addSeconds(const std::string &name, double seconds);

    /** Look up (or create) a histogram; the reference stays valid
     *  for the registry lifetime — hot paths must cache it. */
    Histogram &histogram(const std::string &name);

    /** One predicted branch: should call sites pay the clock reads
     *  that feed Histogram::record()? */
    static bool
    histogramsEnabled()
    {
        return __builtin_expect(detail::gHistogramsEnabled, 0);
    }

    /** Arm histogram recording process-wide (sticky). Implied by
     *  XPS_METRICS_JSON, obs::configureTracing() and the benches. */
    static void enableHistograms();

    /** Disarm histogram recording (tests only). */
    static void disableHistogramsForTest();

    /** Point-in-time summary of one histogram. */
    struct HistogramSummary
    {
        uint64_t count = 0;
        uint64_t p50Ns = 0;
        uint64_t p95Ns = 0;
        uint64_t p99Ns = 0;
        uint64_t maxNs = 0;
        double meanNs = 0.0;
    };

    /** Point-in-time copy of every counter, timer and histogram. */
    struct Snapshot
    {
        std::vector<std::pair<std::string, uint64_t>> counters;
        std::vector<std::pair<std::string, double>> timers;
        std::vector<std::pair<std::string, HistogramSummary>>
            histograms;
    };
    Snapshot snapshot() const;

    /** Render the registry as a JSON object {"counters": {...},
     *  "timers_seconds": {...}, "histograms_ns": {...}} (the last
     *  section only when any histogram has samples). */
    std::string toJson() const;

    /** Zero every counter and timer (tests). */
    void reset();

    /** Atomically write toJson() to `path`. */
    void writeJson(const std::string &path) const;

    /**
     * Serialize the registry — counters, timers and full histogram
     * bucket tables — as one line of JSON, for shipping a forked
     * worker's delta to its parent over the result pipe (DESIGN.md
     * §14). Complement of mergeRollup().
     */
    std::string serializeRollup() const;

    /**
     * Fold a serializeRollup() payload into this registry: counters
     * and timers add, histogram buckets merge bucket-wise, maxima
     * combine. False, with nothing merged, unless the payload is
     * what serializeRollup() writes: the three sections, every count,
     * sum and maximum a whole number in range, every bucket key a
     * decimal index below Histogram::kBuckets, every timer finite.
     */
    bool mergeRollup(const std::string &payload);

    /**
     * Render the registry in Prometheus text exposition format 0.0.4:
     * counters as `xps_<name>_total`, timers as
     * `xps_<name>_seconds_total`, histograms as summaries with
     * quantile="0.5|0.95|0.99" series plus `_sum` / `_count`. Names
     * are sanitized (non-alphanumerics become '_').
     */
    std::string toPrometheus() const;

    /** Atomically write toPrometheus() to `path` (tmp + rename). */
    void writePrometheus(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    // node-based maps: Counter / Histogram references remain stable
    // across inserts.
    std::map<std::string, Counter> counters_;
    std::map<std::string, double> timers_;
    std::map<std::string, Histogram> histograms_;
};

/** RAII wall-clock timer accumulating into Metrics on destruction. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const std::string &name,
                         Metrics &metrics = Metrics::global())
        : metrics_(metrics), name_(name),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~ScopedTimer()
    {
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - start_;
        metrics_.addSeconds(name_, dt.count());
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Metrics &metrics_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace xps

#endif // XPS_UTIL_METRICS_HH
