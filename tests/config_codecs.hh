/**
 * @file
 * Helpers for the CoreConfig codec tests (sim_test's round trip and
 * pinned bytes, robustness_test's mutation sweep): each builds the
 * text that one codec of the field table reads.
 */

#ifndef XPS_TESTS_CONFIG_CODECS_HH
#define XPS_TESTS_CONFIG_CODECS_HH

#include <cstdio>
#include <string>
#include <vector>

#include "explore/checkpoint.hh"
#include "sim/config.hh"

namespace xps::codec_test
{

inline std::string
join(const std::vector<std::string> &cells, char sep, size_t from = 0)
{
    std::string out;
    for (size_t i = from; i < cells.size(); ++i)
        out += (i > from ? std::string(1, sep) : "") + cells[i];
    return out;
}

/** A JSON number that reads back as `x`. */
inline std::string
jsonNumber(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

/** The checkpoint codec of one config: a one-workload suite
 *  checkpoint whose `config` line and memo key both encode `cfg`. */
inline std::string
suiteCheckpointOf(const CoreConfig &cfg)
{
    SuiteCheckpoint sc;
    sc.workloads.emplace_back();
    sc.workloads[0].current = cfg;
    sc.workloads[0].memo = {{cfg.memoKey(), 1.5}};
    return serializeSuiteCheckpoint(sc, CsvManifest{});
}

/** A whatif request whose config object sets each field of the
 *  table, by its protocol key, to `cells[i]`. */
inline std::string
whatifOf(const std::vector<std::string> &cells)
{
    std::string req =
        "{\"op\":\"whatif\",\"workloads\":[\"gzip\"],\"config\":{";
    for (size_t i = 0; i < configFields().size(); ++i) {
        req += std::string(i ? "," : "") + "\"" +
               configFields()[i].protocolName + "\":" + cells[i];
    }
    return req + "}}";
}

/** The protocol values of `cfg`, one per field of the table. */
inline std::vector<std::string>
protocolCells(const CoreConfig &cfg)
{
    std::vector<std::string> cells;
    for (const ConfigField &f : configFields())
        cells.push_back(jsonNumber(f.get(cfg)));
    return cells;
}

} // namespace xps::codec_test

#endif // XPS_TESTS_CONFIG_CODECS_HH
