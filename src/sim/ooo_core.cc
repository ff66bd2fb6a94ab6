#include "sim/ooo_core.hh"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "check/invariant_checker.hh"
#include "util/logging.hh"
#include "workload/trace.hh"

namespace xps
{

namespace testhooks
{
bool injectWakeupBug = false;
}

namespace
{

/** Issue lane per OpClass: 0 = ALU, 1 = multiplier, 2 = cache port.
 *  Indexed by the meta byte's class bits. */
constexpr uint8_t kLaneByCls[kNumOpClasses] = {0, 1, 2, 2, 0, 0};

/** Execution latency per OpClass for everything but loads (loads
 *  probe the hierarchy). Indexed by the meta byte's class bits. */
constexpr int kLatByCls[kNumOpClasses] = {1, 4, 0, 1, 1, 1};

static_assert(kLatByCls[static_cast<int>(OpClass::IntAlu)] == 1);

} // namespace

OooCore::OooCore(const CoreConfig &cfg, const Technology &tech)
    : cfg_(cfg), tech_(tech),
      feStages_(cfg.frontEndStages(tech)),
      awaken_(testhooks::injectWakeupBug ? 0 : cfg.awakenLatency()),
      mulUnits_(std::max(1u, cfg.width / 3)),
      hierarchy_(cfg.l1Sets, cfg.l1Assoc, cfg.l1LineBytes, cfg.l1Cycles,
                 cfg.l2Sets, cfg.l2Assoc, cfg.l2LineBytes, cfg.l2Cycles,
                 cfg.memCycles(tech)),
      predictor_()
{
    static_assert(kLatByCls[static_cast<int>(OpClass::IntMul)] ==
                  kMulLatency);
    static_assert(kLatByCls[static_cast<int>(OpClass::Store)] ==
                  kAgenCycles);

    const size_t rob_cap =
        std::bit_ceil(static_cast<uint64_t>(cfg.robSize));
    robMask_ = rob_cap - 1;
    sOp_.resize(rob_cap);
    slotOps_.resize(rob_cap);
    sMeta_.resize(rob_cap);
    sIssued_.resize(rob_cap);
    sWoke_.resize(rob_cap);
    sWaitCount_.resize(rob_cap);
    sFetchCycle_.resize(rob_cap);
    sCompleteCycle_.resize(rob_cap);
    sAddr_.resize(rob_cap);
    consHead_.resize(rob_cap, kNilEdge);
    consNext0_.resize(rob_cap, kNilEdge);
    consNext1_.resize(rob_cap, kNilEdge);
    memWaiters_.resize(rob_cap);
    readyBits_.resize(rob_cap / 64 ? rob_cap / 64 : 1, 0);

    storeBySeq_.init(cfg_.lsqSize);
    UnitTiming timing(tech);
    cfg_.validate(timing);
    // Enough fetch-buffer slots to keep the front-end pipe full.
    fetchBufCap_ = static_cast<size_t>(feStages_ + 2) * cfg_.width;
    fOp_.resize(std::bit_ceil(fetchBufCap_));
    fetchOps_.resize(fOp_.size());
    fCycle_.resize(fOp_.size());
    fMeta_.resize(fOp_.size());
    fbMask_ = fOp_.size() - 1;
    // Event horizon: no wakeup is ever scheduled further ahead than
    // the worst-case load latency or the awaken latency.
    const uint64_t horizon = 2 + std::max<uint64_t>(
        {static_cast<uint64_t>(kAgenCycles +
                               hierarchy_.maxLoadLatency()),
         1ULL + static_cast<uint64_t>(awaken_),
         static_cast<uint64_t>(kMulLatency),
         static_cast<uint64_t>(kForwardLatency)});
    wheel_.resize(std::bit_ceil(horizon));
    wheelMask_ = wheel_.size() - 1;
    wheelBits_.assign((wheel_.size() + 63) / 64, 0);
    // Pre-reserve event/waiter storage from the config's structural
    // limits so the steady-state cycle loop never allocates (the
    // counting-allocator test in tests/alloc_test.cc enforces this):
    // at most `width` wakeups are scheduled per cycle, and at most
    // lsqSize loads can be memory-blocked at once.
    for (auto &bucket : wheel_)
        bucket.reserve(static_cast<size_t>(cfg_.width) * 2);
    memBlocked_.reserve(cfg_.lsqSize);
    for (auto &waiters : memWaiters_)
        waiters.reserve(4);
}

int
OooCore::loadLatencyFor(uint64_t seq, uint64_t addr,
                        uint64_t *blocking_store)
{
    // Store-to-load forwarding: the youngest older in-flight store to
    // the same 8-byte word supplies the data.
    const size_t idx = storeBySeq_.find(addr >> 3);
    if (idx != StoreMap::npos) {
        const uint64_t store_seq = storeBySeq_.value(idx);
        if (store_seq < seq && store_seq >= robHead_) {
            const uint64_t sidx = slotIdx(store_seq);
            if (!sIssued_[sidx] || sCompleteCycle_[sidx] > cycle_) {
                if (blocking_store)
                    *blocking_store = store_seq;
                return -1; // memory dependence: stall in the IQ
            }
            return kForwardLatency;
        }
    }
    MemoryHierarchy::Level level;
    const int lat = kAgenCycles + hierarchy_.loadLatency(addr, &level);
    switch (level) {
      case MemoryHierarchy::Level::L1:
        ++statL1Hits_;
        break;
      case MemoryHierarchy::Level::L2:
        ++statL1Misses_;
        ++statL2Hits_;
        break;
      case MemoryHierarchy::Level::Memory:
        ++statL1Misses_;
        ++statL2Misses_;
        break;
    }
    return lat;
}

void
OooCore::releaseConsumers(uint64_t idx)
{
    if (sWoke_[idx])
        return;
    sWoke_[idx] = 1;
    uint32_t link = consHead_[idx];
    consHead_[idx] = kNilEdge;
    while (link != kNilEdge) {
        const uint32_t cidx = link >> 1;
        const uint32_t next = (link & 1) ? consNext1_[cidx]
                                         : consNext0_[cidx];
        if (sWaitCount_[cidx] > 0 && --sWaitCount_[cidx] == 0)
            pushReadyIdx(cidx);
        link = next;
    }
}

void
OooCore::pushEvent(uint64_t cycle, uint64_t seq, Event::Kind kind)
{
    const uint64_t b = cycle & wheelMask_;
    wheel_[b].push_back(Event{seq, kind});
    wheelBits_[b >> 6] |= 1ULL << (b & 63);
    ++eventCount_;
    if (cycle < nextEventCycle_)
        nextEventCycle_ = cycle;
}

void
OooCore::blockLoad(uint64_t seq, uint64_t idx,
                   uint64_t blocking_store)
{
    clearReadyIdx(idx);
    memBlocked_.push_back(BlockedLoad{sAddr_[idx] >> 3, seq});
    const uint64_t sidx = slotIdx(blocking_store);
    if (sIssued_[sidx]) {
        // Forwarding becomes legal once the store has executed.
        pushEvent(sCompleteCycle_[sidx], seq, Event::Kind::LoadRetry);
    } else {
        memWaiters_[sidx].push_back(static_cast<uint32_t>(idx));
    }
}

void
OooCore::wakeMemBlocked(uint64_t addr_word)
{
    if (memBlocked_.empty())
        return; // common case: no loads are memory-blocked
    size_t keep = 0;
    for (size_t i = 0; i < memBlocked_.size(); ++i) {
        const BlockedLoad b = memBlocked_[i];
        if (b.seq < robHead_)
            continue; // already issued and retired: prune
        if (b.word != addr_word) {
            memBlocked_[keep++] = b;
            continue;
        }
        const uint64_t idx = slotIdx(b.seq);
        if (!sIssued_[idx] && sWaitCount_[idx] == 0)
            pushReadyIdx(idx);
    }
    memBlocked_.resize(keep);
}

void
OooCore::processWakeups()
{
    if (nextEventCycle_ > cycle_)
        return;
    // Events are only ever scheduled in the future, so the earliest
    // pending cycle is exactly cycle_ here and every event in this
    // bucket is due (the wheel outspans the latency horizon; no
    // bucket mixes cycles).
    std::vector<Event> &bucket = wheel_[cycle_ & wheelMask_];
    for (const Event &e : bucket) {
        if (e.seq < robHead_)
            continue; // retired: consumers were woken at commit
        const uint64_t idx = slotIdx(e.seq);
        if (e.kind == Event::Kind::ProducerWake) {
            releaseConsumers(idx);
        } else {
            if (!sIssued_[idx] && sWaitCount_[idx] == 0)
                pushReadyIdx(idx);
        }
    }
    eventCount_ -= bucket.size();
    bucket.clear();
    {
        const uint64_t b = cycle_ & wheelMask_;
        wheelBits_[b >> 6] &= ~(1ULL << (b & 63));
    }
    if (eventCount_ == 0) {
        nextEventCycle_ = UINT64_MAX;
        return;
    }
    // Every pending event lies in (cycle_, cycle_ + wheel size], so a
    // circular count-trailing-zeros scan over the occupancy words finds
    // the next due cycle without touching empty buckets.
    const uint64_t c = cycle_ + 1;
    const uint64_t start = c & wheelMask_;
    const size_t words = wheelBits_.size();
    size_t w = start >> 6;
    uint64_t bits = wheelBits_[w] & (~0ULL << (start & 63));
    for (;;) {
        if (bits) {
            const uint64_t found =
                (static_cast<uint64_t>(w) << 6) +
                static_cast<uint64_t>(std::countr_zero(bits));
            nextEventCycle_ = c + ((found - start) & wheelMask_);
            return;
        }
        w = (w + 1 == words) ? 0 : w + 1;
        bits = wheelBits_[w];
    }
}

uint32_t
OooCore::doCommit()
{
    uint32_t commits = 0;
    while (commits < cfg_.width && robHead_ < robTail_ &&
           committed_ < commitTarget_) {
        const uint64_t idx = slotIdx(robHead_);
        if (!sIssued_[idx] || sCompleteCycle_[idx] > cycle_)
            break;
        if (checker_) [[unlikely]]
            checker_->onCommit(robHead_, cycle_);
        // Retirement can beat the scheduled wake when the awaken
        // latency exceeds the execution latency: a retired producer's
        // operands are available immediately.
        releaseConsumers(idx);
        const uint8_t meta = sMeta_[idx];
        if (meta & kMetaIsMem) {
            if (meta & kMetaIsStore) {
                hierarchy_.storeTouch(sAddr_[idx]);
                const size_t si = storeBySeq_.find(sAddr_[idx] >> 3);
                if (si != StoreMap::npos &&
                    storeBySeq_.value(si) == robHead_)
                    storeBySeq_.eraseAt(si);
                ++statStores_;
            } else {
                ++statLoads_;
            }
            --lsqCount_;
        } else if (meta & kMetaCondBranch) {
            ++statBranches_;
            statMispredicts_ += meta >> 7; // kMetaMispredict
        }
        ++robHead_;
        ++committed_;
        ++commits;
    }
    return commits;
}

uint32_t
OooCore::doIssue()
{
    processWakeups();
    if (readyCount_ == 0)
        return 0;

    uint32_t issued = 0;
    uint32_t used[3] = {0, 0, 0}; // ALU, multiplier, cache ports
    const uint32_t cap[3] = {cfg_.width, mulUnits_, kMemPorts};
    // All set bits are visited at most once; stop as soon as every
    // bit that was set at scan start has been seen.
    uint32_t visited = 0;
    const uint32_t target = readyCount_;

    // Walk the in-flight slot window oldest-first: [head, head+n) in
    // the ring, split at the wrap. Ready bits only exist inside it.
    const uint64_t head = robHead_ & robMask_;
    const uint64_t inflight = robTail_ - robHead_;
    const uint64_t ring = robMask_ + 1;
    uint64_t spans[2][2];
    int nspans = 1;
    spans[0][0] = head;
    if (head + inflight <= ring) {
        spans[0][1] = head + inflight;
    } else {
        spans[0][1] = ring;
        spans[1][0] = 0;
        spans[1][1] = head + inflight - ring;
        nspans = 2;
    }

    for (int sp = 0;
         sp < nspans && issued < cfg_.width && visited < target;
         ++sp) {
        const uint64_t lo = spans[sp][0], hi = spans[sp][1];
        for (uint64_t w = lo >> 6; w < ((hi + 63) >> 6); ++w) {
            uint64_t bits = readyBits_[w];
            if (w == lo >> 6)
                bits &= ~0ULL << (lo & 63);
            if (((w + 1) << 6) > hi && (hi & 63))
                bits &= ~0ULL >> (64 - (hi & 63));
            while (bits) {
                const uint64_t idx =
                    (w << 6) +
                    static_cast<uint64_t>(std::countr_zero(bits));
                bits &= bits - 1;
                ++visited;

                // Functional-unit availability, then latency.
                const uint8_t meta = sMeta_[idx];
                const uint8_t lane = kLaneByCls[meta & kMetaClsMask];
                if (used[lane] >= cap[lane])
                    continue; // stays in the ready set
                const uint64_t seq = seqOfIdx(idx);
                int lat;
                if (metaIsLoad(meta)) {
                    uint64_t blocking_store = 0;
                    lat = loadLatencyFor(seq, sAddr_[idx],
                                         &blocking_store);
                    if (lat < 0) {
                        // Blocked on an unexecuted older store:
                        // leaves the ready set until a retry
                        // trigger fires.
                        blockLoad(seq, idx, blocking_store);
                        continue;
                    }
                } else {
                    lat = kLatByCls[meta & kMetaClsMask];
                }
                ++used[lane];

                clearReadyIdx(idx);
                sIssued_[idx] = 1;
                --iqCount_;
                const uint64_t complete =
                    cycle_ + static_cast<uint64_t>(lat);
                sCompleteCycle_[idx] = complete;
                const uint64_t wake = cycle_ + std::max<uint64_t>(
                    static_cast<uint64_t>(lat),
                    1ULL + static_cast<uint64_t>(awaken_));
                if (checker_) [[unlikely]]
                    checker_->onIssue(seq, *sOp_[idx], cycle_,
                                      complete);
                pushEvent(wake, seq, Event::Kind::ProducerWake);
                if ((meta & kMetaIsStore) &&
                    !memWaiters_[idx].empty()) {
                    for (uint32_t widx : memWaiters_[idx]) {
                        pushEvent(complete, seqOfIdx(widx),
                                  Event::Kind::LoadRetry);
                    }
                    memWaiters_[idx].clear();
                }
                ++issued;

                if ((meta & (kMetaCondBranch | kMetaMispredict)) ==
                    (kMetaCondBranch | kMetaMispredict)) {
                    // Resolution redirects the front end; the refill
                    // cost is the per-instruction front-end delay at
                    // dispatch.
                    nextFetchCycle_ = complete;
                    fetchBlocked_ = false;
                }
                if (issued >= cfg_.width)
                    return issued;
            }
            if (visited >= target)
                break;
        }
    }
    return issued;
}

template <bool kCopyOps>
uint32_t
OooCore::doDispatch()
{
    uint32_t dispatched = 0;
    while (dispatched < cfg_.width && fbHead_ != fbTail_) {
        const uint64_t fidx = fbHead_ & fbMask_;
        if (fCycle_[fidx] + static_cast<uint64_t>(feStages_) > cycle_)
            break; // still in the front-end pipe
        if (robTail_ - robHead_ >= cfg_.robSize)
            break; // ROB full
        if (iqCount_ >= cfg_.iqSize)
            break; // IQ full
        const uint8_t meta = fMeta_[fidx];
        if ((meta & kMetaIsMem) && lsqCount_ >= cfg_.lsqSize)
            break; // LSQ full

        const uint64_t seq = robTail_;
        const uint64_t idx = slotIdx(seq);
        const MicroOp *op;
        if constexpr (kCopyOps) {
            // Streaming: the fetched op lives in the fetch ring,
            // whose entry is recycled before this slot retires.
            slotOps_[idx] = *fOp_[fidx];
            op = &slotOps_[idx];
        } else {
            // Replay: the op lives in the immutable trace buffer,
            // which outlives the run.
            op = fOp_[fidx];
        }
        sOp_[idx] = op;
        sMeta_[idx] = meta;
        sFetchCycle_[idx] = fCycle_[fidx];
        sCompleteCycle_[idx] = 0;
        sIssued_[idx] = 0;
        sWoke_[idx] = 0;
        sWaitCount_[idx] = 0;
        sAddr_[idx] = op->addr;
        consHead_[idx] = kNilEdge;
        memWaiters_[idx].clear();
        if (checker_) [[unlikely]]
            checker_->onDispatch(seq, *op, cycle_,
                                 sFetchCycle_[idx]);

        // Resolve register sources once: count the pending producers
        // and link onto their consumer chains.
        for (int i = 0; i < op->numSrcs; ++i) {
            const uint32_t dist = op->srcDist[i];
            if (dist == 0 || dist > seq)
                continue;
            const uint64_t prod_seq = seq - dist;
            if (prod_seq < robHead_)
                continue; // producer already retired
            const uint64_t pidx = slotIdx(prod_seq);
            if (sWoke_[pidx])
                continue; // result already available
            (i == 0 ? consNext0_ : consNext1_)[idx] =
                consHead_[pidx];
            consHead_[pidx] =
                (static_cast<uint32_t>(idx) << 1) |
                static_cast<uint32_t>(i);
            ++sWaitCount_[idx];
        }
        if (sWaitCount_[idx] == 0)
            pushReadyIdx(idx);

        ++iqCount_;
        if (meta & kMetaIsMem)
            ++lsqCount_;
        if (meta & kMetaIsStore) {
            storeBySeq_.insertOrAssign(op->addr >> 3, seq);
            // A younger same-word store changes the forwarding
            // outcome of any blocked load: make them re-check.
            wakeMemBlocked(op->addr >> 3);
        }
        ++robTail_;
        ++dispatched;
        ++fbHead_;
    }
    return dispatched;
}

template <typename Source>
uint32_t
OooCore::doFetch(Source &source)
{
    if (fetchBlocked_ || cycle_ < nextFetchCycle_)
        return 0;
    uint32_t fetched = 0;
    while (fetched < cfg_.width && fbTail_ - fbHead_ < fetchBufCap_) {
        const uint64_t idx = fbTail_ & fbMask_;
        uint8_t meta;
        if constexpr (std::is_same_v<Source, DecodedSource>) {
            // Replay: pointer into the immutable buffer; the meta —
            // including the prediction outcome — was decoded once
            // per trace.
            if (source.pos >= source.size) [[unlikely]] {
                panic("OooCore: trace exhausted after %llu ops; size "
                      "the buffer with kTraceSlackOps (use "
                      "sharedTrace())",
                      static_cast<unsigned long long>(source.size));
            }
            fOp_[idx] = &source.ops[source.pos];
            meta = source.meta[source.pos];
            ++source.pos;
        } else {
            // Streaming: the generator recycles its op storage, so
            // park a copy in the ring until dispatch, and consult
            // the live predictor.
            fetchOps_[idx] = source.next();
            const MicroOp &op = fetchOps_[idx];
            fOp_[idx] = &op;
            meta = decodeMicroOp(op);
            if ((meta & kMetaCondBranch) &&
                !predictor_.predict(op.pc, op.taken))
                meta |= kMetaMispredict;
        }
        fMeta_[idx] = meta;
        fCycle_[idx] = cycle_;
        ++fbTail_;
        ++fetched;
        if (checker_) [[unlikely]]
            checker_->onFetch(cycle_);
        if (meta & kMetaMispredict) {
            // Fetch stops until the branch resolves (trace-driven
            // misprediction model; no wrong path is simulated).
            fetchBlocked_ = true;
            break;
        }
        if (meta & kMetaEndsGroup)
            break; // a taken control op ends the fetch group
    }
    return fetched;
}

void
OooCore::skipIdle()
{
    // The cycle just simulated moved nothing: no commit, no issue
    // (which also means the ready set is empty — the age-ordered
    // walk issues its first entry unless every entry is a load that
    // memory-blocked, and blocked loads leave the set), no dispatch
    // and no fetch. Machine state is therefore frozen until one of
    // the pending triggers fires:
    //   - the earliest scheduled wakeup / load-retry event,
    //   - the ROB head finishing execution (commit resumes),
    //   - the oldest fetched op clearing the front-end pipe
    //     (dispatch resumes),
    //   - the fetch redirect point (fetch resumes).
    // Jumping the clock to the earliest trigger is bit-identical to
    // stepping through the intervening cycles one by one; only the
    // per-cycle ROB-occupancy accumulation has to be replayed, and
    // occupancy is constant while the machine is frozen.
    uint64_t next = nextEventCycle_;
    if (robHead_ < robTail_) {
        const uint64_t idx = slotIdx(robHead_);
        if (sIssued_[idx])
            next = std::min(next, sCompleteCycle_[idx]);
    }
    if (fbHead_ != fbTail_) {
        next = std::min(next, fCycle_[fbHead_ & fbMask_] +
                                  static_cast<uint64_t>(feStages_));
    }
    if (!fetchBlocked_ && fbTail_ - fbHead_ < fetchBufCap_)
        next = std::min(next, nextFetchCycle_);
    // Triggers at or before cycle_ + 1 (e.g. a dispatch stalled on a
    // full ROB whose front-end delay already elapsed) mean the very
    // next cycle must be simulated normally; a missing trigger means
    // deadlock, which the caller's cycle guard is left to diagnose.
    if (next == UINT64_MAX || next <= cycle_ + 1)
        return;
    statRobOccSum_ += (robTail_ - robHead_) * (next - 1 - cycle_);
    cycle_ = next - 1;
}

void
OooCore::resetMachine(uint64_t measure, bool reset_predictor)
{
    hierarchy_.reset();
    if (reset_predictor)
        predictor_.reset();
    fbHead_ = fbTail_ = 0;
    storeBySeq_.clear();
    std::fill(readyBits_.begin(), readyBits_.end(), 0);
    readyCount_ = 0;
    for (auto &bucket : wheel_)
        bucket.clear();
    std::fill(wheelBits_.begin(), wheelBits_.end(), 0);
    eventCount_ = 0;
    nextEventCycle_ = UINT64_MAX;
    memBlocked_.clear();
    cycle_ = 0;
    robHead_ = robTail_ = 0;
    iqCount_ = 0;
    lsqCount_ = 0;
    fetchBlocked_ = false;
    nextFetchCycle_ = 0;
    committed_ = 0;
    commitTarget_ = measure;
    cycleGuard_ = 2000 * measure + 10000000ULL;
    statLoads_ = statStores_ = 0;
    statL1Hits_ = statL1Misses_ = 0;
    statL2Hits_ = statL2Misses_ = 0;
    statBranches_ = statMispredicts_ = 0;
    statRobOccSum_ = 0;
    if (checker_) [[unlikely]]
        checker_->onRunStart();
}

template <typename Source>
void
OooCore::advanceLoop(Source &source, uint64_t stop_at)
{
    while (committed_ < stop_at) {
        uint32_t moved = doCommit();
        moved += doIssue();
        moved += doDispatch<!std::is_same_v<Source, DecodedSource>>();
        moved += doFetch(source);
        if (moved == 0)
            skipIdle(); // jump a stall to its next trigger cycle
        statRobOccSum_ += robTail_ - robHead_;
        if (checker_) [[unlikely]]
            checker_->onCycleEnd(cycle_, robTail_ - robHead_,
                                 iqCount_, lsqCount_);
        ++cycle_;
        if (cycle_ > cycleGuard_)
            panic("OooCore: no forward progress after %llu cycles "
                  "(config %s)",
                  static_cast<unsigned long long>(cycle_),
                  cfg_.name.c_str());
    }
}

SimStats
OooCore::collectStats() const
{
    SimStats out;
    out.clockNs = cfg_.clockNs;
    out.instructions = committed_;
    out.cycles = cycle_;
    out.loads = statLoads_;
    out.stores = statStores_;
    out.l1Hits = statL1Hits_;
    out.l1Misses = statL1Misses_;
    out.l2Hits = statL2Hits_;
    out.l2Misses = statL2Misses_;
    out.condBranches = statBranches_;
    out.mispredicts = statMispredicts_;
    out.robOccupancySum = statRobOccSum_;
    return out;
}

SimStats
OooCore::run(SyntheticWorkload &workload, uint64_t measure,
             uint64_t warmup)
{
    resetMachine(measure, /*reset_predictor=*/true);

    // Functional warmup: stream addresses through the hierarchy and
    // outcomes through the predictor with no timing, so that large
    // caches are warm even in short timed windows (a timed warmup of
    // the same length would leave multi-megabyte L2s cold and bias
    // the exploration against capacity).
    for (uint64_t i = 0; i < warmup; ++i) {
        const MicroOp &op = workload.next();
        switch (op.cls) {
          case OpClass::Load:
            hierarchy_.loadLatency(op.addr);
            break;
          case OpClass::Store:
            hierarchy_.storeTouch(op.addr);
            break;
          case OpClass::CondBranch:
            predictor_.predict(op.pc, op.taken);
            break;
          default:
            break;
        }
    }

    advanceLoop(workload, measure);
    return collectStats();
}

void
OooCore::beginTraceRun(std::shared_ptr<const TraceBuffer> trace,
                       uint64_t measure, uint64_t warmup,
                       const MemoryHierarchy *warm_state)
{
    srcBuf_ = std::move(trace);
    src_ = DecodedSource{srcBuf_->ops().data(), srcBuf_->meta(),
                         srcBuf_->size(), 0};
    // Fetch runs ahead of commit, so a run consumes up to a full ROB
    // and fetch buffer past its commit target: reject a trace that
    // would run dry mid-run before the first cycle.
    const uint64_t need = warmup + measure + inFlightCapacity();
    if (src_.size < need) {
        fatal("OooCore: trace '%s' holds %llu ops; %llu warmup + %llu "
              "measured instructions on this core need >= %llu "
              "(request a longer sharedTrace())",
              srcBuf_->profileName().c_str(),
              static_cast<unsigned long long>(src_.size),
              static_cast<unsigned long long>(warmup),
              static_cast<unsigned long long>(measure),
              static_cast<unsigned long long>(need));
    }

    // Replay never consults the live predictor (predictions are baked
    // into the decoded meta), so skip its reset.
    resetMachine(measure, /*reset_predictor=*/false);

    if (warm_state) {
        // Adopt the shared post-warmup cache state: bit-identical to
        // streaming the warmup window below, which touches nothing
        // but the hierarchy.
        hierarchy_.adoptState(*warm_state);
        src_.pos = warmup;
    } else {
        // Functional warmup (see the streaming overload): in replay
        // only the hierarchy trains — predictions are precomputed.
        for (uint64_t i = 0; i < warmup; ++i) {
            const uint8_t m = src_.meta[src_.pos];
            if (m & kMetaIsMem) {
                const uint64_t addr = src_.ops[src_.pos].addr;
                if (m & kMetaIsStore)
                    hierarchy_.storeTouch(addr);
                else
                    hierarchy_.loadLatency(addr);
            }
            ++src_.pos;
        }
    }
}

bool
OooCore::advance(uint64_t commit_budget)
{
    const uint64_t stop =
        commit_budget >= commitTarget_ - committed_
            ? commitTarget_
            : committed_ + commit_budget;
    advanceLoop(src_, stop);
    return committed_ >= commitTarget_;
}

SimStats
OooCore::run(std::shared_ptr<const TraceBuffer> trace,
             uint64_t measure, uint64_t warmup)
{
    beginTraceRun(std::move(trace), measure, warmup);
    advance(measure);
    return finish();
}

} // namespace xps
