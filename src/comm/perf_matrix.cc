#include "comm/perf_matrix.hh"

#include <cstdio>
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
    if (!readManifestHeader(in, kCellsMagic, identity))
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
 * Load the finished cells of a partial matrix file into the columns
 * `arch` maps them to. Returns the number of cells recovered; 0 (with
 * `fresh` = true) when the file is absent, carries a foreign manifest,
 * or is corrupted beyond its header — the caller then rewrites it from
 * scratch. A torn tail line (the crash interrupted an append) only
 * drops that line.
 */
size_t
loadPartialMatrix(const std::string &path, const CsvManifest &identity,
                  const std::vector<size_t> &arch,
                  std::vector<std::vector<double>> &ipt,
                  std::vector<std::vector<bool>> &have, bool &fresh)
{
    fresh = true;
    std::string content;
    if (!readFile(path, content))
        return 0;
    std::istringstream in(content);
    if (!readManifestHeader(in, kPartialMagic, identity))
        return 0;
    fresh = false;
    size_t cells = 0;
    std::string line;
    while (std::getline(in, line)) {
        Cell cell;
        double v = 0.0;
        if (!parseCellLine(line, ipt.size(), cell, v))
            break; // torn tail: ignore this line and everything after
        const size_t w = cell.first, a = arch[cell.second];
        if (!have[w][a]) {
            ipt[w][a] = v;
            have[w][a] = true;
            ++cells;
        }
    }
    return cells;
}

} // namespace

CsvManifest
PerfMatrix::identity(const std::vector<WorkloadProfile> &suite,
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
                  std::vector<std::string> *missingRows,
                  const std::vector<std::vector<bool>> *skip)
{
    if (suite.size() != configs.size())
        fatal("PerfMatrix::build: %zu workloads vs %zu configs",
              suite.size(), configs.size());
    const size_t n = suite.size();
    std::vector<std::string> names;
    names.reserve(n);
    for (const auto &p : suite)
        names.push_back(p.name);

    const CsvManifest identity = PerfMatrix::identity(suite, configs, instrs);
    // Columns of one architecture share their cells: simulate() reads
    // no CoreConfig field outside sameArch(), so each row simulates
    // every distinct architecture once, in the column arch[c] of its
    // first occurrence, and copies it into the duplicate columns.
    std::vector<size_t> arch(n, 0);
    size_t distinct = 0;
    for (size_t c = 0; c < n; ++c) {
        while (arch[c] < c && !configs[arch[c]].sameArch(configs[c]))
            ++arch[c];
        if (arch[c] == c)
            ++distinct;
    }
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
        const size_t recovered = loadPartialMatrix(
            partialPath, identity, arch, ipt, have, fresh);
        if (recovered > 0) {
            inform("resuming matrix build from %s (%zu/%zu cells)",
                   partialPath.c_str(), recovered, n * distinct);
            metrics.counter("perf_matrix.cells_resumed")
                .add(recovered);
        }
        if (fresh) {
            // Absent, stale or corrupt: (re)write the header
            // atomically, then append below.
            std::ostringstream header;
            writeManifestHeader(header, kPartialMagic, identity);
            atomicWriteFile(partialPath, header.str());
        }
        partial = std::fopen(partialPath.c_str(), "a");
        if (!partial)
            fatal("PerfMatrix::build: cannot append to %s",
                  partialPath.c_str());
    }

    // Tasks cover the cells neither the partial file recovered nor
    // the caller skips: one row per task on forked workers, where a
    // fork per cell would cost more than it balances, and one cell per
    // task on threads, which keeps the threads evenly loaded. Each row
    // with a task gets one immutable trace, generated here and shared
    // read-only by its tasks (and inherited by forked workers): its
    // evaluations replay the same buffer instead of regenerating the
    // stream per cell or per attempt.
    SimOptions proto;
    proto.measureInstrs = instrs;
    std::vector<std::shared_ptr<const TraceBuffer>> traces(n);
    const bool per_row = supervisor.options().backend ==
                         SupervisorOptions::Backend::Processes;
    std::vector<std::vector<Cell>> task_cells;
    std::vector<SupervisedTask> tasks;
    for (size_t w = 0; w < n; ++w) {
        for (size_t c = 0; c < n; ++c) {
            if (arch[c] != c || have[w][c] || (skip && (*skip)[w][c]))
                continue;
            if (!traces[w])
                traces[w] = sharedTrace(suite[w], proto.streamId,
                                        proto.traceOps());
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
            writeManifestHeader(payload, kCellsMagic, identity);
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

    for (size_t w = 0; w < n; ++w) {
        for (size_t c = 0; c < n; ++c)
            ipt[w][c] = ipt[w][arch[c]];
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

bool
PerfMatrix::fromCsv(const std::vector<std::string> &header,
                    const std::vector<std::vector<std::string>> &rows,
                    PerfMatrix &out)
{
    if (header.size() != rows.size() + 1)
        return false;
    std::vector<std::string> names(header.begin() + 1, header.end());
    std::vector<std::vector<double>> ipt(
        rows.size(), std::vector<double>(names.size()));
    for (size_t w = 0; w < rows.size(); ++w) {
        if (rows[w].size() != header.size() || rows[w][0] != names[w])
            return false;
        for (size_t c = 0; c < names.size(); ++c) {
            if (!parseCsvNumber(rows[w][c + 1], ipt[w][c]))
                return false;
        }
    }
    out = PerfMatrix(std::move(names), std::move(ipt));
    return true;
}

} // namespace xps
