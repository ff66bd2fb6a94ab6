#include <cmath>
#include <sstream>

#include "spec.hh"
#include "stats.hh"

namespace xpsbench
{

const std::vector<MetricSpec> &
endToEndSpec()
{
    // One set for every workload; what each name measures on each
    // workload is in README.md ("End-to-end metrics").
    static const std::vector<MetricSpec> spec = {
        {"setup_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"ops_per_s", "1/s", "higher"},
        {"p50_ms", "ms", "lower"},
        {"alt_ms", "ms", "lower"},
    };
    return spec;
}

const std::vector<MetricSpec> &
perLayerSpec()
{
    static const std::vector<MetricSpec> spec = {
        {"serve.hit_ratio", "ratio", "higher"},
        {"serve.coalesced_ratio", "ratio", "higher"},
        {"serve.queue_wait_p50_ms", "ms", "lower"},
        {"serve.journal_ms_per_req", "ms", "lower"},
        {"serve.publish_ms_per_miss", "ms", "lower"},
        {"serve.loop_self_ms_per_req", "ms", "lower"},
        {"serve.residual_ms_per_req", "ms", "lower"},
        {"serve.shed", "count", "lower"},
        {"util.pool_jobs", "count", "lower"},
        {"util.pool_handoff_ms_per_job", "ms", "lower"},
        {"util.pool_retries", "count", "lower"},
        {"util.pool_rollups_torn", "count", "lower"},
        {"util.atomic_write_ms", "ms", "lower"},
        {"sim.runs", "count", "lower"},
        {"sim.busy_s", "s", "lower"},
        {"sim.run_p50_ms", "ms", "lower"},
        {"sim.ns_per_instr", "ns", "lower"},
        {"sim.batch_self_s", "s", "lower"},
        {"sim.batch_lanes", "count", "lower"},
        {"sim.batch_pruned_ratio", "ratio", "higher"},
        {"sim.batch_memo_hit_ratio", "ratio", "higher"},
        {"workload.trace_generate_s", "s", "lower"},
        {"workload.trace_decode_s", "s", "lower"},
        {"workload.trace_hit_ratio", "ratio", "higher"},
        {"explore.all_s", "s", "lower"},
        {"explore.anneal_s", "s", "lower"},
        {"explore.adopt_s", "s", "lower"},
        {"explore.final_s", "s", "lower"},
        {"explore.round_idle_ratio", "ratio", "lower"},
        {"explore.evaluations", "count", "lower"},
        {"explore.anneal_step_p50_ms", "ms", "lower"},
        {"explore.screened_ratio", "ratio", "higher"},
        {"explore.checkpoint_writes", "count", "lower"},
        {"comm.matrix_build_s", "s", "lower"},
        {"comm.matrix_cells", "count", "lower"},
        {"comm.analyses_s", "s", "lower"},
        {"obs.trace_overhead_ratio", "ratio", "lower"},
        {"obs.dropped_spans", "count", "lower"},
    };
    return spec;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "serve_whatif", "serve_explore", "paper_pipeline"};
    return names;
}

std::string
resultLine(bool correct, uint64_t attempted, uint64_t failed,
           const MetricMap &values, const std::vector<MetricSpec> &spec,
           std::string &error)
{
    for (const auto &[name, value] : values) {
        bool listed = false;
        for (const MetricSpec &m : spec)
            listed |= m.name == name;
        if (!listed) {
            error = "metric '" + name + "' is not in the spec";
            return "";
        }
    }
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < spec.size(); ++i) {
        const auto it = values.find(spec[i].name);
        if (it == values.end()) {
            error = "metric '" + spec[i].name + "' was not measured";
            return "";
        }
        if (!std::isfinite(it->second)) {
            error = "metric '" + spec[i].name + "' is not finite";
            return "";
        }
        out << (i ? ", " : "") << '"' << spec[i].name
            << "\": {\"value\": " << exact(it->second)
            << ", \"unit\": \"" << spec[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

} // namespace xpsbench
