/**
 * @file
 * CoreConfig: the architectural configuration of one superscalar core
 * — exactly the parameter set of the paper's Tables 3 and 4. The
 * clock period is a first-class member; the front-end depth and the
 * memory access latency in cycles are *derived* from the fixed Table-2
 * latencies and the clock, and every sized unit must fit its assigned
 * pipeline depth under the cacti-lite model (validate()).
 *
 * configFields() is the one list of the 15 architectural fields:
 * every codec (CSV row, checkpoint line, memo key, xps-serve config,
 * PropGen case), sameArch() and the fingerprint read it. `name` is the
 * CSV column, the checkpoint and memo-key cell and PropGen's
 * `cfg.<name>` key; `protocolName` is the xps-serve key. A decoder
 * parses each cell into its member's type, checks the range before
 * assigning, then runs checkFits(); any failure is a reject.
 */

#ifndef XPS_SIM_CONFIG_HH
#define XPS_SIM_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "timing/unit_timing.hh"

namespace xps
{

/** One core's architectural configuration. */
struct CoreConfig
{
    /** Optional label (e.g. the workload it was customized for). */
    std::string name;

    /** Clock period in nanoseconds. */
    double clockNs = 0.33;
    /** Dispatch, issue and commit width. */
    uint32_t width = 3;
    /** Reorder-buffer / register-file size. */
    uint32_t robSize = 128;
    /** Issue-queue size. */
    uint32_t iqSize = 64;
    /** Load-store-queue size. */
    uint32_t lsqSize = 64;
    /** Pipeline depth of the scheduler / register-file loop. */
    int schedDepth = 1;
    /** Pipeline depth of the LSQ search. */
    int lsqDepth = 2;

    /** L1 data cache geometry and pipelined access latency. */
    uint64_t l1Sets = 128;
    uint32_t l1Assoc = 2;
    uint32_t l1LineBytes = 32;
    int l1Cycles = 4;

    /** L2 data cache geometry and pipelined access latency. */
    uint64_t l2Sets = 1024;
    uint32_t l2Assoc = 4;
    uint32_t l2LineBytes = 128;
    int l2Cycles = 12;

    // --- derived quantities ------------------------------------------------
    /** Front-end pipeline stages: the fixed 2ns fetch/decode/rename
     *  latency of Table 2 divided into clock-sized stages. */
    int frontEndStages(const Technology &tech) const;
    /** Main-memory latency in cycles (Table 2's 50ns). */
    int memCycles(const Technology &tech) const;
    /** Extra scheduling-loop latency for waking dependents: a deeper
     *  scheduler cannot issue dependents back to back. */
    int awakenLatency() const { return schedDepth - 1; }
    /** Clock frequency in GHz. */
    double clockGhz() const { return 1.0 / clockNs; }
    /** L1/L2 capacities in bytes. */
    uint64_t l1CapacityBytes() const
    {
        return l1Sets * l1Assoc * l1LineBytes;
    }
    uint64_t l2CapacityBytes() const
    {
        return l2Sets * l2Assoc * l2LineBytes;
    }

    /**
     * Check that every field is in its configFields() range (a power
     * of two where required), that the window structures suit the
     * width, and that every unit fits its assigned depth at this
     * clock under the timing model. Returns an empty string when
     * valid, else a description of the first violated constraint.
     */
    std::string checkFits(const UnitTiming &timing) const;

    /** fatal() unless checkFits passes. */
    void validate(const UnitTiming &timing) const;

    /** The paper's Table-3 initial configuration. */
    static CoreConfig initial();

    /** Stable serialization for result caching (CSV cells). */
    static std::vector<std::string> csvHeader();
    std::vector<std::string> toCsvRow() const;
    /** Decode a toCsvRow() row under `header`. False, with `out`
     *  untouched, on a missing column, a cell that is not one whole
     *  number in its field's range, or a config failing checkFits. */
    static bool fromCsvRow(const std::vector<std::string> &header,
                           const std::vector<std::string> &row,
                           CoreConfig &out);

    /** The explorer's memo key: the toCsvRow() field cells joined by
     *  '|'. fromMemoKey() decodes one as fromCsvRow() does, and also
     *  rejects a key that is not the canonical key of its config. */
    std::string memoKey() const;
    static bool fromMemoKey(const std::string &key, CoreConfig &out);

    /** Human-readable one-line summary. */
    std::string summary() const;

    /** Identity on all architectural fields (name excluded). */
    bool sameArch(const CoreConfig &other) const;
};

/** One architectural field: its names, member and legal values. */
struct ConfigField
{
    const char *name;
    const char *protocolName;
    std::variant<double CoreConfig::*, uint32_t CoreConfig::*,
                 uint64_t CoreConfig::*, int CoreConfig::*>
        member;
    /** [lo, hi] for an integer field, (lo, hi) for the clock. */
    double lo;
    double hi;
    /** Cache sets and line sizes must be powers of two. */
    bool pow2;

    bool isFloat() const
    {
        return std::holds_alternative<double CoreConfig::*>(member);
    }
    /** `value` is a value of the member's type in range. */
    bool admits(double value) const;
    double get(const CoreConfig &cfg) const;
    /** Assign `value` if admitted; false, `cfg` untouched, if not. */
    bool set(double value, CoreConfig &cfg) const;
    /** The toCsvRow() cell: decimal, the clock in the fewest of 15-17
     *  significant digits that round-trips exactly. */
    std::string format(const CoreConfig &cfg) const;
};

/** The 15 architectural fields, in CSV column order. */
const std::array<ConfigField, 15> &configFields();

/** Stable hash over the architectural fields (name excluded; the
 *  clock is hashed by bit pattern). Used as cache/checkpoint
 *  identity: equal fingerprints <=> sameArch() for practical
 *  purposes. */
uint64_t configFingerprint(const CoreConfig &cfg);

} // namespace xps

#endif // XPS_SIM_CONFIG_HH
