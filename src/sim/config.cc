#include "sim/config.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/csv.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace xps
{

int
CoreConfig::frontEndStages(const Technology &tech) const
{
    const double per_stage = clockNs - tech.latchLatencyNs;
    if (per_stage <= 0.0)
        fatal("clock %.3fns <= latch latency", clockNs);
    const int stages = static_cast<int>(
        std::ceil(tech.frontEndLatencyNs / per_stage - 1e-12));
    // At least fetch and rename stages exist at any clock.
    return stages < 2 ? 2 : stages;
}

int
CoreConfig::memCycles(const Technology &tech) const
{
    return static_cast<int>(std::ceil(tech.memLatencyNs / clockNs));
}

std::string
CoreConfig::checkFits(const UnitTiming &timing) const
{
    std::ostringstream why;
    if (clockNs <= timing.tech().latchLatencyNs + 1e-9)
        return "clock period not above latch latency";
    if (width < 1 || width > 8)
        return "width out of [1,8]";
    if (robSize < width || iqSize < width || lsqSize < 2)
        return "window structures too small for the width";
    if (schedDepth < 1 || schedDepth > 6 || lsqDepth < 1 || lsqDepth > 8)
        return "scheduler/LSQ depth out of range";
    if (l1Cycles < 1 || l2Cycles < 1)
        return "cache latencies must be at least one cycle";

    if (!timing.fits(timing.iqTotal(iqSize, width), schedDepth, clockNs)) {
        why << "issue queue " << iqSize << " @w" << width
            << " does not fit " << schedDepth << " stages";
        return why.str();
    }
    if (!timing.fits(timing.regfileAccess(robSize, width), schedDepth,
                     clockNs)) {
        why << "regfile/ROB " << robSize << " @w" << width
            << " does not fit " << schedDepth << " stages";
        return why.str();
    }
    if (!timing.fits(timing.lsqSearch(lsqSize), lsqDepth, clockNs)) {
        why << "LSQ " << lsqSize << " does not fit " << lsqDepth
            << " stages";
        return why.str();
    }
    if (!timing.fits(timing.cacheAccess(l1Sets, l1Assoc, l1LineBytes),
                     l1Cycles, clockNs)) {
        why << "L1 " << formatBytes(l1CapacityBytes())
            << " does not fit " << l1Cycles << " cycles";
        return why.str();
    }
    if (!timing.fits(timing.cacheAccess(l2Sets, l2Assoc, l2LineBytes),
                     l2Cycles, clockNs)) {
        why << "L2 " << formatBytes(l2CapacityBytes())
            << " does not fit " << l2Cycles << " cycles";
        return why.str();
    }
    if (l2CapacityBytes() < l1CapacityBytes())
        return "L2 smaller than L1";
    return "";
}

void
CoreConfig::validate(const UnitTiming &timing) const
{
    const std::string why = checkFits(timing);
    if (!why.empty())
        fatal("invalid configuration '%s': %s",
              name.c_str(), why.c_str());
}

CoreConfig
CoreConfig::initial()
{
    // The paper's Table 3: width 3, ROB 128, IQ 64, LSQ 64, 0.33ns
    // clock, L1 4 cycles, L2 12 cycles, scheduler depth 1, LSQ depth 2.
    CoreConfig cfg;
    cfg.name = "initial";
    cfg.clockNs = 0.33;
    cfg.width = 3;
    cfg.robSize = 128;
    cfg.iqSize = 64;
    cfg.lsqSize = 64;
    cfg.schedDepth = 1;
    cfg.lsqDepth = 2;
    cfg.l1Sets = 256;
    cfg.l1Assoc = 2;
    cfg.l1LineBytes = 32;
    cfg.l1Cycles = 4;
    cfg.l2Sets = 1024;
    cfg.l2Assoc = 4;
    cfg.l2LineBytes = 128;
    cfg.l2Cycles = 12;
    return cfg;
}

std::vector<std::string>
CoreConfig::csvHeader()
{
    return {"name", "clock_ns", "width", "rob", "iq", "lsq",
            "sched_depth", "lsq_depth", "l1_sets", "l1_assoc",
            "l1_line", "l1_cycles", "l2_sets", "l2_assoc", "l2_line",
            "l2_cycles"};
}

std::vector<std::string>
CoreConfig::toCsvRow() const
{
    // Shortest decimal that round-trips exactly through strtod, so a
    // cached configuration reloads with the very same clock it was
    // explored at (sameArch compares clocks bit-exactly).
    char clock[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(clock, sizeof(clock), "%.*g", prec, clockNs);
        if (std::strtod(clock, nullptr) == clockNs)
            break;
    }
    return {name, clock, std::to_string(width),
            std::to_string(robSize), std::to_string(iqSize),
            std::to_string(lsqSize), std::to_string(schedDepth),
            std::to_string(lsqDepth), std::to_string(l1Sets),
            std::to_string(l1Assoc), std::to_string(l1LineBytes),
            std::to_string(l1Cycles), std::to_string(l2Sets),
            std::to_string(l2Assoc), std::to_string(l2LineBytes),
            std::to_string(l2Cycles)};
}

bool
CoreConfig::fromCsvRow(const std::vector<std::string> &header,
                       const std::vector<std::string> &row,
                       CoreConfig &out)
{
    if (header.size() != row.size())
        return false;
    auto get = [&](const char *key) -> const std::string * {
        for (size_t i = 0; i < header.size(); ++i) {
            if (header[i] == key)
                return &row[i];
        }
        return nullptr;
    };
    const std::string *name = get("name");
    if (!name)
        return false;
    CoreConfig cfg;
    cfg.name = *name;
    bool ok = true;
    auto field = [&](const char *key, auto &member) {
        const std::string *cell = get(key);
        ok = ok && cell && parseCsvNumber(*cell, member);
    };
    field("clock_ns", cfg.clockNs);
    field("width", cfg.width);
    field("rob", cfg.robSize);
    field("iq", cfg.iqSize);
    field("lsq", cfg.lsqSize);
    field("sched_depth", cfg.schedDepth);
    field("lsq_depth", cfg.lsqDepth);
    field("l1_sets", cfg.l1Sets);
    field("l1_assoc", cfg.l1Assoc);
    field("l1_line", cfg.l1LineBytes);
    field("l1_cycles", cfg.l1Cycles);
    field("l2_sets", cfg.l2Sets);
    field("l2_assoc", cfg.l2Assoc);
    field("l2_line", cfg.l2LineBytes);
    field("l2_cycles", cfg.l2Cycles);
    static const UnitTiming timing;
    if (!ok || !cfg.checkFits(timing).empty())
        return false;
    out = std::move(cfg);
    return true;
}

std::string
CoreConfig::summary() const
{
    std::ostringstream out;
    out << (name.empty() ? "(unnamed)" : name)
        << ": clk=" << formatDouble(clockNs, 2) << "ns"
        << " w=" << width
        << " rob=" << robSize
        << " iq=" << iqSize
        << " lsq=" << lsqSize
        << " sched=" << schedDepth
        << " L1=" << formatBytes(l1CapacityBytes())
        << "/" << l1Assoc << "w/" << l1LineBytes << "B@" << l1Cycles
        << " L2=" << formatBytes(l2CapacityBytes())
        << "/" << l2Assoc << "w/" << l2LineBytes << "B@" << l2Cycles;
    return out.str();
}

bool
CoreConfig::sameArch(const CoreConfig &other) const
{
    return clockNs == other.clockNs && width == other.width &&
           robSize == other.robSize && iqSize == other.iqSize &&
           lsqSize == other.lsqSize && schedDepth == other.schedDepth &&
           lsqDepth == other.lsqDepth && l1Sets == other.l1Sets &&
           l1Assoc == other.l1Assoc &&
           l1LineBytes == other.l1LineBytes &&
           l1Cycles == other.l1Cycles && l2Sets == other.l2Sets &&
           l2Assoc == other.l2Assoc &&
           l2LineBytes == other.l2LineBytes &&
           l2Cycles == other.l2Cycles;
}

uint64_t
configFingerprint(const CoreConfig &cfg)
{
    // FNV-1a over 64-bit lanes; the clock by bit pattern so distinct
    // doubles never collide through decimal rounding.
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
    uint64_t clock_bits;
    static_assert(sizeof(clock_bits) == sizeof(cfg.clockNs));
    __builtin_memcpy(&clock_bits, &cfg.clockNs, sizeof(clock_bits));
    mix(clock_bits);
    mix(cfg.width);
    mix(cfg.robSize);
    mix(cfg.iqSize);
    mix(cfg.lsqSize);
    mix(static_cast<uint64_t>(cfg.schedDepth));
    mix(static_cast<uint64_t>(cfg.lsqDepth));
    mix(cfg.l1Sets);
    mix(cfg.l1Assoc);
    mix(cfg.l1LineBytes);
    mix(static_cast<uint64_t>(cfg.l1Cycles));
    mix(cfg.l2Sets);
    mix(cfg.l2Assoc);
    mix(cfg.l2LineBytes);
    mix(static_cast<uint64_t>(cfg.l2Cycles));
    return h;
}

} // namespace xps
