#include "comm/perf_matrix.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <utility>

#include "explore/checkpoint.hh"
#include "explore/supervisor.hh"
#include "sim/simulator.hh"
#include "util/atomic_file.hh"
#include "util/csv.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/procpool.hh"
#include "util/table.hh"
#include "workload/trace.hh"

namespace xps
{

namespace
{

constexpr const char *kPartialMagic = "xps-matrix-partial v1";
constexpr const char *kCellsMagic = "xps-matrix-row v1";

using Cell = std::pair<size_t, size_t>; // (workload row, config column)

/** Write `magic` and the identity manifest as `m key=value` lines up
 *  to `endm` — the header of both the partial file and a payload. */
void
writeHeader(std::ostream &out, const char *magic,
            const CsvManifest &identity)
{
    out << magic << '\n';
    for (const auto &[key, value] : identity.entries)
        out << "m " << key << '=' << value << '\n';
    out << "endm\n";
}

/** Read a header written by writeHeader; true when it carries `magic`
 *  and exactly `identity`. */
bool
readHeader(std::istream &in, const char *magic,
           const CsvManifest &identity)
{
    std::string line;
    if (!std::getline(in, line) || line != magic)
        return false;
    CsvManifest found;
    while (std::getline(in, line)) {
        if (line == "endm")
            return found == identity;
        if (line.rfind("m ", 0) != 0)
            return false;
        const size_t eq = line.find('=', 2);
        if (eq == std::string::npos)
            return false;
        found.entries.emplace_back(line.substr(2, eq - 2),
                                   line.substr(eq + 1));
    }
    return false; // no endm: torn inside the header
}

std::string
cellLine(const Cell &cell, double ipt)
{
    return "cell " + std::to_string(cell.first) + ' ' +
           std::to_string(cell.second) + ' ' + formatHexDouble(ipt) +
           '\n';
}

/** Parse one `cell w c <hexfloat>` line with w, c < n. */
bool
parseCellLine(const std::string &line, size_t n, Cell &cell, double &ipt)
{
    std::istringstream fields(line);
    std::string tag, value, extra;
    return (fields >> tag >> cell.first >> cell.second >> value) &&
           !(fields >> extra) && tag == "cell" && cell.first < n &&
           cell.second < n && parseHexDouble(value, ipt);
}

/** Parse a task's payload (the header, then one line per cell in
 *  task order). It must hold exactly `cells`, in order, under a
 *  matching manifest, else false — the supervisor then treats the
 *  attempt as failed and retries. */
bool
parseCells(const std::string &content, const std::vector<Cell> &cells,
           size_t n, const CsvManifest &identity,
           std::vector<double> &ipt)
{
    std::istringstream in(content);
    if (!readHeader(in, kCellsMagic, identity))
        return false;
    std::vector<double> vals(cells.size());
    std::string line;
    for (size_t i = 0; i < cells.size(); ++i) {
        Cell cell;
        if (!std::getline(in, line) ||
            !parseCellLine(line, n, cell, vals[i]) || cell != cells[i])
            return false;
    }
    if (std::getline(in, line))
        return false;
    ipt = std::move(vals);
    return true;
}

/**
 * Load the finished cells of a partial matrix file. Returns the
 * number of cells recovered; 0 (with `fresh` = true) when the file is
 * absent, carries a foreign manifest, or is corrupted beyond its
 * header — the caller then rewrites it from scratch. A torn tail line
 * (the crash interrupted an append) only drops that line.
 */
size_t
loadPartialMatrix(const std::string &path, const CsvManifest &identity,
                  std::vector<std::vector<double>> &ipt,
                  std::vector<std::vector<bool>> &have, bool &fresh)
{
    fresh = true;
    std::string content;
    if (!readFile(path, content))
        return 0;
    std::istringstream in(content);
    if (!readHeader(in, kPartialMagic, identity))
        return 0;
    fresh = false;
    size_t cells = 0;
    std::string line;
    while (std::getline(in, line)) {
        Cell cell;
        double v = 0.0;
        if (!parseCellLine(line, ipt.size(), cell, v))
            break; // torn tail: ignore this line and everything after
        const auto [w, c] = cell;
        if (!have[w][c]) {
            ipt[w][c] = v;
            have[w][c] = true;
            ++cells;
        }
    }
    return cells;
}

} // namespace

CsvManifest
PerfMatrix::partialIdentity(const std::vector<WorkloadProfile> &suite,
                            const std::vector<CoreConfig> &configs,
                            uint64_t instrs)
{
    CsvManifest m;
    m.set("kind", std::string("perf-matrix-partial"));
    m.set("schema", std::string("1"));
    m.set("instrs", instrs);
    m.set("n", static_cast<uint64_t>(suite.size()));
    std::ostringstream ids;
    for (size_t i = 0; i < suite.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%016llx:%016llx",
                      static_cast<unsigned long long>(
                          profileFingerprint(suite[i])),
                      static_cast<unsigned long long>(
                          configFingerprint(configs[i])));
        ids << (i ? ";" : "") << suite[i].name << ':' << buf;
    }
    m.set("identity", ids.str());
    return m;
}

PerfMatrix::PerfMatrix(std::vector<std::string> names,
                       std::vector<std::vector<double>> ipt)
    : names_(std::move(names)), ipt_(std::move(ipt))
{
    if (ipt_.size() != names_.size())
        fatal("PerfMatrix: %zu rows for %zu names",
              ipt_.size(), names_.size());
    for (const auto &row : ipt_) {
        if (row.size() != names_.size())
            fatal("PerfMatrix: non-square matrix");
    }
}

PerfMatrix
PerfMatrix::build(const std::vector<WorkloadProfile> &suite,
                  const std::vector<CoreConfig> &configs,
                  uint64_t instrs, int threads,
                  const std::string &partialPath)
{
    Supervisor threaded(SupervisorOptions::onThreads(threads));
    return build(suite, configs, instrs, threaded, partialPath);
}

PerfMatrix
PerfMatrix::build(const std::vector<WorkloadProfile> &suite,
                  const std::vector<CoreConfig> &configs,
                  uint64_t instrs, Supervisor &supervisor,
                  const std::string &partialPath,
                  std::vector<std::string> *missingRows)
{
    if (suite.size() != configs.size())
        fatal("PerfMatrix::build: %zu workloads vs %zu configs",
              suite.size(), configs.size());
    const size_t n = suite.size();
    std::vector<std::string> names;
    names.reserve(n);
    for (const auto &p : suite)
        names.push_back(p.name);

    const CsvManifest identity = partialIdentity(suite, configs, instrs);
    // Cells of a quarantined task stay NaN: the completed matrix
    // records them as missing instead of aborting.
    std::vector<std::vector<double>> ipt(
        n, std::vector<double>(
               n, std::numeric_limits<double>::quiet_NaN()));
    std::vector<std::vector<bool>> have(n, std::vector<bool>(n, false));

    // Per-cell crash safety: recover cells from the partial file (if
    // its identity matches this build), then append every merged
    // task's cells. Cells are independent evaluations, so the merged
    // matrix is bit-identical to an uninterrupted build.
    Metrics &metrics = Metrics::global();
    FILE *partial = nullptr;
    if (!partialPath.empty()) {
        bool fresh = true;
        const size_t recovered =
            loadPartialMatrix(partialPath, identity, ipt, have, fresh);
        if (recovered > 0) {
            inform("resuming matrix build from %s (%zu/%zu cells)",
                   partialPath.c_str(), recovered, n * n);
            metrics.counter("perf_matrix.cells_resumed")
                .add(recovered);
        }
        if (fresh) {
            // Absent, stale or corrupt: (re)write the header
            // atomically, then append below.
            std::ostringstream header;
            writeHeader(header, kPartialMagic, identity);
            atomicWriteFile(partialPath, header.str());
        }
        partial = std::fopen(partialPath.c_str(), "a");
        if (!partial)
            fatal("PerfMatrix::build: cannot append to %s",
                  partialPath.c_str());
    }

    // One immutable trace per workload, generated up front and shared
    // read-only by every task (and inherited by forked workers): row
    // w's evaluations replay the same buffer instead of regenerating
    // the stream per cell or per attempt.
    SimOptions proto;
    proto.measureInstrs = instrs;
    std::vector<std::shared_ptr<const TraceBuffer>> traces;
    traces.reserve(n);
    for (const auto &p : suite)
        traces.push_back(sharedTrace(p, proto.streamId,
                                     proto.traceOps()));

    // Tasks cover the cells the partial file did not recover: one row
    // per task on forked workers, where a fork per cell would cost
    // more than it balances, and one cell per task on threads, which
    // keeps the threads evenly loaded.
    const bool per_row = supervisor.options().backend ==
                         SupervisorOptions::Backend::Processes;
    std::vector<std::vector<Cell>> task_cells;
    std::vector<SupervisedTask> tasks;
    for (size_t w = 0; w < n; ++w) {
        for (size_t c = 0; c < n; ++c) {
            if (have[w][c])
                continue;
            std::string name = "matrix." + suite[w].name;
            if (per_row && !tasks.empty() && tasks.back().name == name) {
                task_cells.back().push_back({w, c});
                continue;
            }
            if (!per_row)
                name += "." + std::to_string(c);
            tasks.emplace_back().name = std::move(name);
            task_cells.push_back({{w, c}});
        }
    }
    for (size_t t = 0; t < tasks.size(); ++t) {
        tasks[t].faultSite = "cell.publish";
        tasks[t].run = [&, t] {
            std::ostringstream payload;
            writeHeader(payload, kCellsMagic, identity);
            for (const Cell &cell : task_cells[t]) {
                ProcPool::beat(); // per-cell liveness
                const auto [w, c] = cell;
                SimOptions opts = proto;
                opts.trace = traces[w];
                const double v = simulate(suite[w], configs[c], opts).ipt();
                payload << cellLine(cell, v);
            }
            return payload.str();
        };
        tasks[t].merge = [&, t](const std::string &payload) {
            const std::vector<Cell> &cells = task_cells[t];
            std::vector<double> vals;
            if (!parseCells(payload, cells, n, identity, vals))
                return false;
            for (size_t i = 0; i < cells.size(); ++i) {
                ipt[cells[i].first][cells[i].second] = vals[i];
                if (partial) // a crash loses at most a torn tail line
                    std::fputs(cellLine(cells[i], vals[i]).c_str(),
                               partial);
            }
            if (partial)
                std::fflush(partial);
            metrics.counter("perf_matrix.cells_computed")
                .add(cells.size());
            return true;
        };
    }

    const std::vector<ProcJobOutcome> outcomes = supervisor.run(tasks);
    bool complete = true;
    for (size_t t = 0; t < tasks.size(); ++t) {
        if (outcomes[t].status != ProcJobOutcome::Status::Quarantined)
            continue;
        complete = false;
        const std::string &row = suite[task_cells[t][0].first].name;
        warn("perf matrix: task %s quarantined after %d attempts; its "
             "cells are recorded as missing", tasks[t].name.c_str(),
             outcomes[t].attempts);
        if (missingRows &&
            (missingRows->empty() || missingRows->back() != row))
            missingRows->push_back(row);
    }

    if (partial) {
        std::fclose(partial);
        // A degraded build keeps its cells for the rerun that fills
        // the missing ones.
        std::error_code ec;
        if (complete)
            std::filesystem::remove(partialPath, ec);
    }
    return PerfMatrix(std::move(names), std::move(ipt));
}

double
PerfMatrix::ipt(size_t w, size_t c) const
{
    if (w >= size() || c >= size())
        fatal("PerfMatrix::ipt(%zu, %zu) out of range", w, c);
    return ipt_[w][c];
}

double
PerfMatrix::slowdown(size_t w, size_t c) const
{
    const double own = ownIpt(w);
    if (own <= 0.0)
        fatal("PerfMatrix: non-positive own IPT for %s",
              names_[w].c_str());
    return 1.0 - ipt(w, c) / own;
}

size_t
PerfMatrix::index(const std::string &name) const
{
    for (size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return i;
    }
    fatal("PerfMatrix: unknown workload '%s'", name.c_str());
}

size_t
PerfMatrix::bestConfigFor(size_t w,
                          const std::vector<size_t> &columns) const
{
    if (columns.empty())
        fatal("PerfMatrix::bestConfigFor: empty column subset");
    size_t best = columns.front();
    for (size_t c : columns) {
        if (ipt(w, c) > ipt(w, best))
            best = c;
    }
    return best;
}

std::vector<std::vector<std::string>>
PerfMatrix::toCsvRows() const
{
    std::vector<std::vector<std::string>> rows;
    rows.reserve(size());
    for (size_t w = 0; w < size(); ++w) {
        std::vector<std::string> row;
        row.push_back(names_[w]);
        for (size_t c = 0; c < size(); ++c)
            row.push_back(formatDouble(ipt_[w][c], 6));
        rows.push_back(std::move(row));
    }
    return rows;
}

PerfMatrix
PerfMatrix::fromCsv(const std::vector<std::string> &header,
                    const std::vector<std::vector<std::string>> &rows)
{
    if (header.size() != rows.size() + 1)
        fatal("PerfMatrix::fromCsv: %zu header cols for %zu rows",
              header.size(), rows.size());
    std::vector<std::string> names(header.begin() + 1, header.end());
    std::vector<std::vector<double>> ipt;
    ipt.reserve(rows.size());
    for (size_t w = 0; w < rows.size(); ++w) {
        if (rows[w].size() != header.size())
            fatal("PerfMatrix::fromCsv: ragged row");
        if (rows[w][0] != names[w])
            fatal("PerfMatrix::fromCsv: row order mismatch (%s vs %s)",
                  rows[w][0].c_str(), names[w].c_str());
        std::vector<double> vals;
        vals.reserve(names.size());
        for (size_t c = 1; c < rows[w].size(); ++c)
            vals.push_back(std::atof(rows[w][c].c_str()));
        ipt.push_back(std::move(vals));
    }
    return PerfMatrix(std::move(names), std::move(ipt));
}

} // namespace xps
