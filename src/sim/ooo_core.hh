/**
 * @file
 * The cycle-level out-of-order superscalar core model — the
 * reproduction's stand-in for SimpleScalar's sim-mase (DESIGN.md §2).
 *
 * Modelled per cycle, oldest-first:
 *   commit   : up to `width` completed instructions leave the ROB; a
 *              committing store writes the cache hierarchy.
 *   issue    : up to `width` ready instructions issue from the ready
 *              set, subject to ALU / multiplier / cache-port limits;
 *              a dependent instruction may issue no earlier than its
 *              producer's wake cycle (producer issue + max(execution
 *              latency, 1 + awaken latency)), so a deeper scheduler
 *              (awaken latency = schedDepth-1) breaks back-to-back
 *              dependent execution — the central clock/IPC coupling of
 *              the paper's Figure 2.
 *   dispatch : up to `width` fetched instructions enter ROB + IQ (+
 *              LSQ for memory ops) once their front-end delay
 *              (frontEndStages cycles, derived from the fixed 2ns
 *              front-end latency and the clock) has elapsed; stalls
 *              when any structure is full.
 *   fetch    : up to `width` instructions per cycle from the trace; a
 *              taken control instruction ends the fetch group; a
 *              mispredicted conditional branch blocks fetch until it
 *              resolves (trace-driven misprediction model: the wrong
 *              path is not simulated, the fetch redirect is).
 *
 * Scheduling is an explicit-wakeup design (DESIGN.md §6): each
 * dependence edge is examined O(1) times. At dispatch an instruction
 * counts its unresolved sources and links itself onto each producer's
 * intrusive consumer chain; when a producer issues it schedules a
 * wakeup event at its wake cycle (and fires early if it commits
 * first), decrementing the consumers' wait counts; instructions whose
 * count hits zero enter the *ready bitmap* — one bit per ROB slot —
 * from which select walks the in-flight window oldest-first with
 * count-trailing-zeros, under the same width/port limits as before.
 * The bitmap is the age order: slot index is sequence number modulo
 * the ROB ring, so a linear walk from the ROB head *is* the sorted
 * ready list the previous sort + inplace_merge maintained, at zero
 * maintenance cost (DESIGN.md §11).
 *
 * Per-op state lives in structure-of-arrays form: flat parallel
 * arrays (meta byte, wait count, issued flag, complete cycle,
 * address, consumer chain heads) indexed by `seq & robMask_`. The
 * per-op classification switches collapse to a one-byte decoded meta
 * (see decodeMicroOp); in trace replay the meta — including the
 * branch-prediction outcome — is precomputed once per trace
 * (TraceBuffer::meta()) and shared by every evaluation.
 *
 * Memory-dependence stalls (a load behind an unexecuted same-word
 * store) are handled with per-store waiter lists and retry events at
 * the store's complete cycle, plus a re-check when a newer same-word
 * store dispatches — preserving the per-cycle-scan semantics
 * bit-exactly (the sim_test golden snapshot enforces this).
 *
 * Loads probe the hierarchy at issue (address generation = 1 cycle);
 * store-to-load forwarding is modelled through an in-flight store
 * table; a load whose producing store has not yet executed stalls in
 * the IQ (memory dependence). Misses overlap freely up to the cache
 * ports (2 per cycle, the Table-1 port count).
 *
 * Simplifications versus sim-mase, none of which change the relative
 * configuration sensitivities the exploration depends on: perfect
 * I-cache, no wrong-path execution, unlimited MSHRs beyond the port
 * limit, stores complete at commit with their latency hidden.
 */

#ifndef XPS_SIM_OOO_CORE_HH
#define XPS_SIM_OOO_CORE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/sim_stats.hh"
#include "workload/branch_predictor.hh"
#include "workload/generator.hh"

namespace xps
{

class TraceBuffer;
class InvariantChecker;

namespace testhooks
{
/**
 * Fault injection for the checking subsystem's own tests: when set
 * before an OooCore is constructed, the core wakes dependents at the
 * producer's completion cycle even when the scheduler is pipelined
 * (awaken latency silently dropped) — the class of timing bug the
 * invariant checker exists to catch. Never set outside tests.
 */
extern bool injectWakeupBug;
} // namespace testhooks

/** One core executing one workload stream. */
class OooCore
{
  public:
    OooCore(const CoreConfig &cfg,
            const Technology &tech = Technology::defaultTech());

    /**
     * Attach a structural invariant checker (src/check). The core
     * reports dispatch/issue/commit/fetch events and end-of-cycle
     * occupancies to it; a null checker (the default) costs one
     * predicted branch per hook site. The checker must outlive runs.
     */
    void setChecker(InvariantChecker *checker) { checker_ = checker; }

    /**
     * Run the workload for `warmup` + `measure` committed
     * instructions and return statistics for the measurement window.
     */
    SimStats run(SyntheticWorkload &workload, uint64_t measure,
                 uint64_t warmup);

    /** Same, replaying a pre-generated trace (bit-identical to the
     *  streaming overload for the same profile/stream). */
    SimStats run(std::shared_ptr<const TraceBuffer> trace,
                 uint64_t measure, uint64_t warmup);

    // --- resumable trace-replay API (the batched path) ---

    /**
     * Reset and warm the machine for a trace-replay run; fatal if the
     * trace holds fewer than warmup + measure + inFlightCapacity()
     * ops. When `warm_state` is non-null it must be a hierarchy of
     * identical geometry holding the post-warmup cache state for this
     * exact (trace, warmup) window; it is adopted by copy and the
     * warmup pass is skipped — bit-identical, since functional warmup
     * touches nothing but the hierarchy in trace mode (predictions
     * are precomputed). Follow with advance() until it returns true,
     * then finish().
     */
    void beginTraceRun(std::shared_ptr<const TraceBuffer> trace,
                       uint64_t measure, uint64_t warmup,
                       const MemoryHierarchy *warm_state = nullptr);

    /** Simulate until `commit_budget` more instructions commit (or
     *  the run completes). @return run complete? */
    bool advance(uint64_t commit_budget);

    /** Measurement-window statistics of the finished run. */
    SimStats finish() const { return collectStats(); }

    /** Committed instructions of the measurement window so far (the
     *  cut coordinate of a batched run: every live lane of a batch is
     *  advanced to the same commit target before being compared). */
    uint64_t committedSoFar() const { return committed_; }

    /** Cycles elapsed in the measurement window so far. At equal
     *  committedSoFar() fewer cycles means higher partial IPC — the
     *  ranking key of the batch screen (sim/batch.hh). */
    uint64_t cyclesSoFar() const { return cycle_; }

    /** Ops fetched but not yet committed, at most: the ROB plus the
     *  fetch buffer. A trace run needs this many ops past its
     *  warmup + measurement window. */
    uint64_t
    inFlightCapacity() const
    {
        return cfg_.robSize + fetchBufCap_;
    }

    /** Post-warmup hierarchy state (valid between beginTraceRun and
     *  the first advance): the shareable warm state. */
    const MemoryHierarchy &hierarchy() const { return hierarchy_; }

    const CoreConfig &config() const { return cfg_; }

  private:
    /** A scheduled wakeup (its cycle is the wheel bucket index). */
    struct Event
    {
        uint64_t seq;
        enum class Kind : uint8_t { ProducerWake, LoadRetry } kind;
    };

    /** A load stalled on an in-flight same-word store. */
    struct BlockedLoad
    {
        uint64_t word;
        uint64_t seq;
    };

    /** Replay source: raw op + decoded-meta arrays and a position. */
    struct DecodedSource
    {
        const MicroOp *ops = nullptr;
        const uint8_t *meta = nullptr;
        uint64_t size = 0;
        uint64_t pos = 0;
    };

    /**
     * Flat open-addressed map from 8-byte address word to the seq of
     * the youngest in-flight store to it. The store-forwarding path
     * hits this once per load issue and twice per store lifetime; a
     * node-based map's allocation per insert dominates that cost.
     * Linear probing with backward-shift deletion; sized at 4x the
     * LSQ (the live-entry bound), so probes are short.
     */
    class StoreMap
    {
      public:
        static constexpr size_t npos = SIZE_MAX;

        void
        init(size_t max_entries)
        {
            size_t cap = std::bit_ceil(max_entries * 4);
            if (cap < 16)
                cap = 16;
            table_.assign(cap, Entry{});
            mask_ = cap - 1;
        }

        void
        clear()
        {
            std::fill(table_.begin(), table_.end(), Entry{});
        }

        /** Index of `key`, or npos. */
        size_t
        find(uint64_t key) const
        {
            for (size_t i = bucket(key);; i = (i + 1) & mask_) {
                if (!table_[i].used)
                    return npos;
                if (table_[i].key == key)
                    return i;
            }
        }

        uint64_t value(size_t i) const { return table_[i].val; }

        void
        insertOrAssign(uint64_t key, uint64_t val)
        {
            for (size_t i = bucket(key);; i = (i + 1) & mask_) {
                if (!table_[i].used) {
                    table_[i] = Entry{key, val, true};
                    return;
                }
                if (table_[i].key == key) {
                    table_[i].val = val;
                    return;
                }
            }
        }

        /** Remove the entry at `i`, keeping probe chains intact. */
        void
        eraseAt(size_t i)
        {
            size_t j = i;
            while (true) {
                table_[i].used = false;
                uint64_t home;
                do {
                    j = (j + 1) & mask_;
                    if (!table_[j].used)
                        return;
                    home = bucket(table_[j].key);
                } while (i <= j ? (i < home && home <= j)
                                : (i < home || home <= j));
                table_[i] = table_[j];
                i = j;
            }
        }

      private:
        struct Entry
        {
            uint64_t key = 0;
            uint64_t val = 0;
            bool used = false;
        };

        size_t
        bucket(uint64_t key) const
        {
            return static_cast<size_t>(key *
                                       0x9E3779B97F4A7C15ULL) &
                   mask_;
        }

        std::vector<Entry> table_;
        size_t mask_ = 0;
    };

    /**
     * ROB slot index for an in-flight sequence number. The backing
     * arrays are the ROB capacity rounded up to a power of two, so
     * the modulo is a mask: in-flight seqs span less than robSize,
     * hence never collide. Capacity checks use robSize itself.
     */
    uint64_t slotIdx(uint64_t seq) const { return seq & robMask_; }

    /** Sequence number of an *in-flight* slot index. */
    uint64_t
    seqOfIdx(uint64_t idx) const
    {
        return robHead_ + ((idx - robHead_) & robMask_);
    }

    // Each phase returns how many instructions it moved; a cycle in
    // which all four return zero is provably idle (see skipIdle()).
    uint32_t doCommit();
    uint32_t doIssue();
    /** kCopyOps: streaming sources return a reference into the
     *  generator that the next op overwrites, so dispatch must copy
     *  the op into slot-owned storage; trace replay must not. */
    template <bool kCopyOps> uint32_t doDispatch();
    template <typename Source> uint32_t doFetch(Source &source);
    void skipIdle();

    void resetMachine(uint64_t measure, bool reset_predictor);
    template <typename Source>
    void advanceLoop(Source &source, uint64_t stop_at);
    SimStats collectStats() const;

    int loadLatencyFor(uint64_t seq, uint64_t addr,
                       uint64_t *blocking_store);

    // --- ready-bitmap scheduler helpers ---
    void
    pushReadyIdx(uint64_t idx)
    {
        uint64_t &word = readyBits_[idx >> 6];
        const uint64_t bit = 1ULL << (idx & 63);
        if ((word & bit) || sIssued_[idx])
            return;
        word |= bit;
        ++readyCount_;
    }

    void
    clearReadyIdx(uint64_t idx)
    {
        readyBits_[idx >> 6] &= ~(1ULL << (idx & 63));
        --readyCount_;
    }

    void pushEvent(uint64_t cycle, uint64_t seq, Event::Kind kind);
    void processWakeups();
    void releaseConsumers(uint64_t idx);
    void blockLoad(uint64_t seq, uint64_t idx,
                   uint64_t blocking_store);
    void wakeMemBlocked(uint64_t addr_word);

    CoreConfig cfg_;
    const Technology &tech_;
    InvariantChecker *checker_ = nullptr;

    // Derived once per run.
    int feStages_;
    int awaken_;
    uint32_t mulUnits_;
    static constexpr uint32_t kMemPorts = 2;
    static constexpr int kAgenCycles = 1;
    static constexpr int kMulLatency = 4;
    static constexpr int kForwardLatency = 2;
    /** Terminator / null link of the intrusive consumer chains. */
    static constexpr uint32_t kNilEdge = UINT32_MAX;

    MemoryHierarchy hierarchy_;
    BranchPredictor predictor_;

    // --- per-slot state, structure-of-arrays, indexed seq & robMask_
    /** Micro-op: into the trace buffer (replay) or slotOps_
     *  (streaming). */
    std::vector<const MicroOp *> sOp_;
    /** Streaming-mode op storage (unused when replaying a trace). */
    std::vector<MicroOp> slotOps_;
    std::vector<uint8_t> sMeta_;    ///< decoded meta byte
    std::vector<uint8_t> sIssued_;  ///< left the IQ
    std::vector<uint8_t> sWoke_;    ///< dependents already released
    std::vector<uint8_t> sWaitCount_; ///< unresolved register sources
    std::vector<uint64_t> sFetchCycle_;
    std::vector<uint64_t> sCompleteCycle_; ///< valid once issued
    std::vector<uint64_t> sAddr_;          ///< mem-op address
    /**
     * Intrusive consumer chains: consHead_[p] heads the list of
     * register dependents of producer slot p. A link encodes
     * (consumer slot << 1) | source-operand index; the chain
     * continues through that operand's cell in consNext0_/consNext1_
     * (each consumer has at most two sources, so it owns at most two
     * chain cells — no allocation, ever). In-order commit keeps every
     * linked consumer's slot live until the producer retires.
     */
    std::vector<uint32_t> consHead_;
    std::vector<uint32_t> consNext0_;
    std::vector<uint32_t> consNext1_;
    /** Loads memory-blocked on this (store) slot. Indices, not seqs:
     *  a blocked load is younger than its store, so in-order commit
     *  keeps its slot valid until the store drains the list. */
    std::vector<std::vector<uint32_t>> memWaiters_;

    uint64_t robMask_ = 0;
    /**
     * Ready set: one bit per ROB slot, set when a dispatched
     * instruction's register sources are all available. Select walks
     * the in-flight window oldest-first (countr_zero per 64-slot
     * word), which is exactly the age order — the slot ring is
     * ordered by sequence number.
     */
    std::vector<uint64_t> readyBits_;
    uint32_t readyCount_ = 0;
    /**
     * Calendar wheel of pending wakeup events, indexed by cycle
     * modulo the wheel size. Every event lies within the worst-case
     * latency horizon of the current cycle (the wheel is sized past
     * it in the constructor), so a bucket never mixes cycles: O(1)
     * push, and per cycle only the current bucket is drained.
     * `nextEventCycle_` is the exact earliest pending cycle — it
     * gives skipIdle() and the common empty-cycle check an O(1)
     * answer without a heap.
     */
    std::vector<std::vector<Event>> wheel_;
    /** Occupancy bitmap over wheel buckets (bit = bucket nonempty):
     *  advancing nextEventCycle_ after a drain is a count-trailing-
     *  zeros scan over a few words instead of a linear walk that
     *  touches every empty bucket's header. */
    std::vector<uint64_t> wheelBits_;
    uint64_t wheelMask_ = 0;
    uint64_t eventCount_ = 0;
    uint64_t nextEventCycle_ = UINT64_MAX;
    /** Memory-blocked loads (flat: entries are few and short-lived;
     *  scans filter by address word and prune retired seqs). */
    std::vector<BlockedLoad> memBlocked_;

    // --- fetched-but-not-dispatched ring, SoA, capacity
    // fetchBufCap_, storage a power of two for cheap index masking
    std::vector<const MicroOp *> fOp_;
    /** Streaming-mode op storage parallel to fOp_ (unused when
     *  replaying a trace). */
    std::vector<MicroOp> fetchOps_;
    std::vector<uint64_t> fCycle_;
    std::vector<uint8_t> fMeta_;
    uint64_t fbMask_ = 0;
    uint64_t fbHead_ = 0; ///< index of oldest fetched op
    uint64_t fbTail_ = 0; ///< index of next fetch slot
    size_t fetchBufCap_ = 0;

    uint64_t cycle_ = 0;
    uint64_t robHead_ = 0; ///< seq of oldest in flight
    uint64_t robTail_ = 0; ///< seq of next allocation
    uint32_t iqCount_ = 0; ///< dispatched, not yet issued
    uint32_t lsqCount_ = 0;
    bool fetchBlocked_ = false;
    uint64_t nextFetchCycle_ = 0;
    uint64_t committed_ = 0;
    uint64_t commitTarget_ = 0; ///< stop committing exactly here
    uint64_t cycleGuard_ = 0;

    /** Replay source state for the resumable API (the keepalive pins
     *  the buffer across advance() calls). */
    DecodedSource src_;
    std::shared_ptr<const TraceBuffer> srcBuf_;

    /** Latest in-flight store per 8-byte-aligned address. */
    StoreMap storeBySeq_;

    // Raw counters (SimStats deltas are taken around warmup).
    uint64_t statLoads_ = 0, statStores_ = 0;
    uint64_t statL1Hits_ = 0, statL1Misses_ = 0;
    uint64_t statL2Hits_ = 0, statL2Misses_ = 0;
    uint64_t statBranches_ = 0, statMispredicts_ = 0;
    uint64_t statRobOccSum_ = 0;
};

} // namespace xps

#endif // XPS_SIM_OOO_CORE_HH
