#include "comm/experiments.hh"

#include "explore/explorer.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "workload/trace.hh"

namespace xps
{

const CoreConfig &
ExperimentContext::configOf(const std::string &name) const
{
    for (const auto &cfg : configs) {
        if (cfg.name == name)
            return cfg;
    }
    fatal("ExperimentContext: no configuration named '%s'",
          name.c_str());
}

std::string
table4CachePath()
{
    return Budget::get().resultsDir + "/table4_configs.csv";
}

std::string
table5CachePath()
{
    return Budget::get().resultsDir + "/table5_matrix.csv";
}

namespace
{

/** The exploration behind Table 4; its identity keys the cache. */
ExplorerOptions
pipelineOptions()
{
    const Budget &budget = Budget::get();
    ExplorerOptions opts;
    opts.evalInstrs = budget.evalInstrs;
    opts.saIters = budget.saIters;
    opts.threads = budget.threads;
    opts.finalEvalInstrs = budget.finalInstrs;
    opts.checkpointEvery = budget.checkpointEvery;
    opts.supervised = budget.supervise;
    opts.supervisorOpts = SupervisorOptions::fromEnv();
    return opts;
}

} // namespace

bool
loadTable4Cache(const std::vector<WorkloadProfile> &suite,
                std::vector<CoreConfig> &configs)
{
    CsvDoc doc;
    if (!readCsvValidated(table4CachePath(), doc,
                          Explorer::identityOf(suite, pipelineOptions())))
        return false;
    if (doc.rows.size() != suite.size())
        return false;
    std::vector<CoreConfig> loaded;
    loaded.reserve(suite.size());
    for (size_t w = 0; w < suite.size(); ++w) {
        CoreConfig cfg;
        if (!CoreConfig::fromCsvRow(doc.header, doc.rows[w], cfg) ||
            cfg.name != suite[w].name)
            return false;
        loaded.push_back(cfg);
    }
    configs = std::move(loaded);
    return true;
}

void
storeTable4Cache(const std::vector<WorkloadProfile> &suite,
                 const std::vector<CoreConfig> &configs)
{
    CsvDoc doc;
    doc.header = CoreConfig::csvHeader();
    for (const auto &cfg : configs)
        doc.rows.push_back(cfg.toCsvRow());
    writeCsv(table4CachePath(), doc,
             Explorer::identityOf(suite, pipelineOptions()));
}

bool
loadTable5Cache(const std::vector<WorkloadProfile> &suite,
                const std::vector<CoreConfig> &configs,
                PerfMatrix &matrix)
{
    CsvDoc doc;
    if (!readCsvValidated(
            table5CachePath(), doc,
            PerfMatrix::identity(suite, configs, Budget::get().finalInstrs)))
        return false;
    PerfMatrix loaded;
    if (doc.rows.size() != suite.size() ||
        !PerfMatrix::fromCsv(doc.header, doc.rows, loaded))
        return false;
    for (size_t w = 0; w < suite.size(); ++w) {
        if (loaded.names()[w] != suite[w].name)
            return false;
    }
    matrix = std::move(loaded);
    return true;
}

void
storeTable5Cache(const std::vector<WorkloadProfile> &suite,
                 const std::vector<CoreConfig> &configs,
                 const PerfMatrix &matrix)
{
    CsvDoc doc;
    doc.header.push_back("workload");
    for (const auto &name : matrix.names())
        doc.header.push_back(name);
    doc.rows = matrix.toCsvRows();
    writeCsv(table5CachePath(), doc,
             PerfMatrix::identity(suite, configs, Budget::get().finalInstrs));
}

namespace
{

ExperimentContext
computeContext()
{
    const Budget &budget = Budget::get();
    ExperimentContext ctx;
    ctx.suite = spec2000int();

    // On a Table 4 miss the exploration's final phase is Table 5; the
    // separate build below runs only for a Table 4 hit without one.
    // `degraded` names the workloads whose result lost a task to
    // quarantine: the exploration's degradedWorkloads(), or the
    // separate build's missing rows.
    std::vector<std::string> degraded;
    if (!loadTable4Cache(ctx.suite, ctx.configs)) {
        Metrics::global().counter("cache.table4_misses").add();
        inform("exploring customized configurations "
               "(%llu iters x %zu workloads, %llu instrs/eval)...",
               static_cast<unsigned long long>(budget.saIters),
               ctx.suite.size(),
               static_cast<unsigned long long>(budget.evalInstrs));
        ScopedTimer timer("pipeline.explore_seconds");
        Explorer explorer(ctx.suite, pipelineOptions());
        const auto results = explorer.exploreAll();
        for (const auto &r : results)
            ctx.configs.push_back(r.best);
        ctx.matrix = explorer.crossMatrix();
        degraded = explorer.degradedWorkloads();
        if (budget.supervise)
            atomicWriteFile(budget.resultsDir +
                                "/supervisor_report.json",
                            explorer.supervisorReport().toJson());
        if (degraded.empty()) {
            storeTable4Cache(ctx.suite, ctx.configs);
            inform("cached customized configurations at %s",
                   table4CachePath().c_str());
        }
    } else {
        Metrics::global().counter("cache.table4_hits").add();
        if (loadTable5Cache(ctx.suite, ctx.configs, ctx.matrix)) {
            Metrics::global().counter("cache.table5_hits").add();
            return ctx;
        }
        Metrics::global().counter("cache.table5_misses").add();
        inform("building cross-configuration matrix "
               "(%zu x %zu, %llu instrs/eval)...",
               ctx.suite.size(), ctx.suite.size(),
               static_cast<unsigned long long>(budget.finalInstrs));
        ScopedTimer timer("pipeline.matrix_seconds");
        SupervisorOptions sup_opts = SupervisorOptions::fromEnv();
        if (!budget.supervise)
            sup_opts.backend = SupervisorOptions::Backend::Threads;
        Supervisor supervisor(sup_opts);
        const std::string partial =
            budget.checkpointEvery > 0
                ? budget.resultsDir + "/checkpoints/table5_matrix.partial"
                : std::string();
        ctx.matrix = PerfMatrix::build(ctx.suite, ctx.configs,
                                       budget.finalInstrs, supervisor,
                                       partial, &degraded);
        if (budget.supervise)
            supervisor.writeReport(budget.resultsDir +
                                   "/matrix_supervisor_report.json");
    }

    if (!degraded.empty()) {
        // A degraded result is never stored: neither table is cached,
        // so a rerun explores again (a completed exploration leaves no
        // checkpoints) or, after a Table 4 hit, builds Table 5 again
        // from its partial file and fills the missing rows.
        warn("%zu workloads degraded by quarantined tasks; not caching",
             degraded.size());
        return ctx;
    }
    storeTable5Cache(ctx.suite, ctx.configs, ctx.matrix);
    inform("cached cross-configuration matrix at %s",
           table5CachePath().c_str());
    return ctx;
}

} // namespace

const ExperimentContext &
experimentContext()
{
    static const ExperimentContext ctx = computeContext();
    return ctx;
}

} // namespace xps
