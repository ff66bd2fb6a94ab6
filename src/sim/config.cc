#include "sim/config.hh"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

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
    for (const ConfigField &f : configFields()) {
        const double v = f.get(*this);
        if (!f.admits(v))
            return std::string(f.name) + " out of range";
        if (f.pow2 && !std::has_single_bit(static_cast<uint64_t>(v)))
            return std::string(f.name) + " not a power of two";
    }
    if (clockNs <= timing.tech().latchLatencyNs + 1e-9)
        return "clock period not above latch latency";
    if (robSize < width || iqSize < width || lsqSize < 2)
        return "window structures too small for the width";

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
    std::vector<std::string> header{"name"};
    for (const ConfigField &f : configFields())
        header.push_back(f.name);
    return header;
}

std::vector<std::string>
CoreConfig::toCsvRow() const
{
    std::vector<std::string> row{name};
    for (const ConfigField &f : configFields())
        row.push_back(f.format(*this));
    return row;
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
    for (const ConfigField &f : configFields()) {
        // The cell parses into the member's own type; set() then
        // range-checks it before assigning.
        const std::string *cell = get(f.name);
        const bool ok = cell && std::visit(
            [&](auto m) {
                std::decay_t<decltype(cfg.*m)> value{};
                return parseCsvNumber(*cell, value) &&
                       f.set(static_cast<double>(value), cfg);
            },
            f.member);
        if (!ok)
            return false;
    }
    static const UnitTiming timing;
    if (!cfg.checkFits(timing).empty())
        return false;
    out = std::move(cfg);
    return true;
}

std::string
CoreConfig::memoKey() const
{
    std::string key;
    for (const ConfigField &f : configFields()) {
        if (!key.empty())
            key += '|';
        key += f.format(*this);
    }
    return key;
}

bool
CoreConfig::fromMemoKey(const std::string &key, CoreConfig &out)
{
    std::vector<std::string> row{""};
    std::istringstream cells(key);
    for (std::string cell; std::getline(cells, cell, '|');)
        row.push_back(cell);
    CoreConfig cfg;
    if (!fromCsvRow(csvHeader(), row, cfg) || cfg.memoKey() != key)
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
    for (const ConfigField &f : configFields()) {
        const bool same = std::visit(
            [&](auto m) { return this->*m == other.*m; }, f.member);
        if (!same)
            return false;
    }
    return true;
}

uint64_t
configFingerprint(const CoreConfig &cfg)
{
    // FNV-1a over 64-bit lanes; the clock by bit pattern so distinct
    // doubles never collide through decimal rounding.
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const ConfigField &f : configFields()) {
        const uint64_t lane = std::visit(
            [&](auto m) {
                if constexpr (std::is_same_v<decltype(m),
                                             double CoreConfig::*>)
                    return std::bit_cast<uint64_t>(cfg.*m);
                else
                    return static_cast<uint64_t>(cfg.*m);
            },
            f.member);
        h = (h ^ lane) * 0x100000001b3ULL;
    }
    return h;
}

bool
ConfigField::admits(double value) const
{
    if (isFloat())
        return value > lo && value < hi;
    return value >= lo && value <= hi && value == std::floor(value);
}

double
ConfigField::get(const CoreConfig &cfg) const
{
    return std::visit(
        [&](auto m) { return static_cast<double>(cfg.*m); }, member);
}

bool
ConfigField::set(double value, CoreConfig &cfg) const
{
    if (!admits(value))
        return false;
    std::visit(
        [&](auto m) {
            cfg.*m = static_cast<std::decay_t<decltype(cfg.*m)>>(value);
        },
        member);
    return true;
}

std::string
ConfigField::format(const CoreConfig &cfg) const
{
    if (!isFloat()) {
        return std::visit(
            [&](auto m) { return std::to_string(cfg.*m); }, member);
    }
    // Shortest decimal that round-trips exactly through strtod, so a
    // cached configuration reloads with the very same clock it was
    // explored at (sameArch compares clocks bit-exactly).
    const double clock = get(cfg);
    char cell[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(cell, sizeof(cell), "%.*g", prec, clock);
        if (std::strtod(cell, nullptr) == clock)
            break;
    }
    return cell;
}

const std::array<ConfigField, 15> &
configFields()
{
    // Upper bounds: width and depths as the timing model always
    // allowed, cycles and clock as the protocol did, sizes at the
    // largest entry of the search space's candidates (fitting.cc).
    using C = CoreConfig;
    static const std::array<ConfigField, 15> fields{{
        {"clock_ns", "clock_ns", &C::clockNs, 0, 100, false},
        {"width", "width", &C::width, 1, 8, false},
        {"rob", "rob_size", &C::robSize, 1, 1024, false},
        {"iq", "iq_size", &C::iqSize, 1, 256, false},
        {"lsq", "lsq_size", &C::lsqSize, 1, 256, false},
        {"sched_depth", "sched_depth", &C::schedDepth, 1, 6, false},
        {"lsq_depth", "lsq_depth", &C::lsqDepth, 1, 8, false},
        {"l1_sets", "l1_sets", &C::l1Sets, 1, 32768, true},
        {"l1_assoc", "l1_assoc", &C::l1Assoc, 1, 16, false},
        {"l1_line", "l1_line_bytes", &C::l1LineBytes, 1, 512, true},
        {"l1_cycles", "l1_cycles", &C::l1Cycles, 1, 64, false},
        {"l2_sets", "l2_sets", &C::l2Sets, 1, 32768, true},
        {"l2_assoc", "l2_assoc", &C::l2Assoc, 1, 16, false},
        {"l2_line", "l2_line_bytes", &C::l2LineBytes, 1, 512, true},
        {"l2_cycles", "l2_cycles", &C::l2Cycles, 1, 64, false},
    }};
    return fields;
}

} // namespace xps
