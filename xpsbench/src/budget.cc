#include <algorithm>
#include <set>
#include <unordered_map>

#include "budget.hh"
#include "sim/simulator.hh"
#include "spec.hh"
#include "stats.hh"

namespace xpsbench
{

MetricMap
zeroLayers()
{
    MetricMap m;
    for (const MetricSpec &s : perLayerSpec())
        m[s.name] = 0.0;
    return m;
}

void
traceLayers(const Trace &trace, double ops, MetricMap &out)
{
    // util: ProcPool hand-off = the supervisor's pool.attempt minus
    // the worker's own pool.job (fork, flush, rollup, reap).
    std::unordered_map<int, double> jobUs;
    for (const Event *e : trace.named("pool.job"))
        jobUs[e->pid] += e->durUs;
    double handoffUs = 0.0;
    size_t matched = 0;
    for (const Event *a : trace.named("pool.attempt")) {
        const auto it =
            jobUs.find(static_cast<int>(a->argNumber("worker_pid", -1)));
        if (it == jobUs.end())
            continue;
        handoffUs += std::max(0.0, a->durUs - it->second);
        ++matched;
    }
    out["util.pool_jobs"] = static_cast<double>(trace.named("pool.job").size());
    out["util.pool_handoff_ms_per_job"] =
        matched ? handoffUs / 1e3 / static_cast<double>(matched) : 0.0;
    out["util.atomic_write_ms"] =
        ops > 0 ? trace.totalSelfUs("atomic_file.write") / 1e3 / ops : 0.0;

    // sim: scalar runs (sim.run) and batched frontiers (sim.batch).
    std::vector<double> runMs;
    double simInstrs = 0.0;
    for (const Event *e : trace.named("sim.run")) {
        runMs.push_back(e->durUs / 1e3);
        xps::SimOptions o;
        o.measureInstrs = static_cast<uint64_t>(e->argNumber("instrs", 0));
        simInstrs += static_cast<double>(o.measureInstrs + o.effectiveWarmup());
    }
    const double busyUs = trace.totalUs("sim.run");
    out["sim.runs"] = static_cast<double>(runMs.size());
    out["sim.busy_s"] = busyUs / 1e6;
    out["sim.run_p50_ms"] = median(runMs);
    out["sim.ns_per_instr"] = simInstrs > 0 ? busyUs * 1e3 / simInstrs : 0.0;
    out["sim.batch_self_s"] = trace.totalSelfUs("sim.batch") / 1e6;

    // workload: trace-cache traffic.
    out["workload.trace_generate_s"] = trace.totalUs("trace.generate") / 1e6;
    out["workload.trace_decode_s"] = trace.totalUs("trace.decode") / 1e6;
    const double hits = static_cast<double>(trace.countInstants("trace_cache.hit"));
    const double lookups =
        hits + static_cast<double>(trace.countInstants("trace_cache.miss") +
                                   trace.countInstants("trace_cache.grow"));
    out["workload.trace_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;

    // explore: phases, and the idle share of each anneal round — the
    // thread-time spent waiting for the round's slowest workload.
    out["explore.all_s"] = trace.totalUs("explore.all") / 1e6;
    out["explore.adopt_s"] = trace.totalUs("explore.adopt") / 1e6;
    out["explore.final_s"] = trace.totalUs("explore.final") / 1e6;
    std::map<std::pair<int, int>, std::vector<const Event *>> rounds;
    for (const Event *e : trace.named("explore.round"))
        rounds[{e->pid, static_cast<int>(e->argNumber("round", 0))}].push_back(e);
    double idle = 0.0, capacity = 0.0;
    for (const auto &[key, spans] : rounds) {
        double begin = spans[0]->tsUs, end = spans[0]->endUs(), busy = 0.0;
        std::set<unsigned> tids;
        for (const Event *e : spans) {
            begin = std::min(begin, e->tsUs);
            end = std::max(end, e->endUs());
            busy += e->durUs;
            tids.insert(e->tid);
        }
        const double cap = static_cast<double>(tids.size()) * (end - begin);
        capacity += cap;
        idle += std::max(0.0, cap - busy);
    }
    out["explore.round_idle_ratio"] = capacity > 0 ? idle / capacity : 0.0;

    // comm: the matrix jobs of the serve path (the pipeline times its
    // own PerfMatrix::build call and overrides this).
    double matrixUs = 0.0;
    for (const Event *e : trace.named("pool.job")) {
        if (e->argString("job").rfind("matrix.", 0) == 0)
            matrixUs += e->durUs;
    }
    out["comm.matrix_build_s"] = matrixUs / 1e6;
}

void
counterLayers(const Lookup &counter, const Lookup &timer, const Lookup &p50Ns,
              MetricMap &out)
{
    out["serve.shed"] = counter("serve.shed");
    out["util.pool_retries"] = counter("supervisor.job_retries");
    out["util.pool_rollups_torn"] = counter("pool.rollups_torn");
    const double lanes = counter("batch.width");
    out["sim.batch_lanes"] = lanes;
    out["sim.batch_pruned_ratio"] = lanes > 0 ? counter("batch.pruned") / lanes : 0.0;
    out["sim.batch_memo_hit_ratio"] =
        lanes > 0 ? counter("batch.memo_hits") / lanes : 0.0;
    out["explore.anneal_s"] = timer("explore.anneal_seconds");
    const double evals = counter("anneal.evaluations");
    const double screened = counter("anneal.screened");
    const double vetoed = counter("anneal.vetoed");
    out["explore.evaluations"] = evals;
    out["explore.anneal_step_p50_ms"] = p50Ns("anneal.step") / 1e6;
    out["explore.screened_ratio"] =
        evals + screened + vetoed > 0 ? screened / (evals + screened + vetoed)
                                      : 0.0;
    out["explore.checkpoint_writes"] = counter("checkpoint.writes");
    out["comm.matrix_cells"] = counter("perf_matrix.cells_computed");
    out["obs.dropped_spans"] = counter("trace.dropped_spans");
}

RequestBudget
requestBudget(const Trace &trace, const std::vector<Sample> &samples)
{
    const auto spans = spansByRid(trace);
    const auto instants = instantsByRid(trace);
    RequestBudget b;
    double loopUs = 0.0, residualUs = 0.0;
    for (const Sample &s : samples) {
        if (!s.ok || s.klass == "coalesced" || (s.klass == "repeat" && !s.hit))
            continue;
        const auto in = instants.find(s.rid);
        const auto sp = spans.find(s.rid);
        if (in == instants.end() || sp == spans.end())
            continue;
        double reqUs = -1.0;
        for (const Event *e : in->second) {
            if (e->name == "serve.request")
                reqUs = e->tsUs;
        }
        double respEnd = -1.0, respTs = 0.0;
        for (const Event *e : sp->second) {
            if (e->name == "serve.respond" && e->tsUs >= reqUs &&
                (respEnd < 0 || e->tsUs < respTs)) {
                respTs = e->tsUs;
                respEnd = e->endUs();
            }
        }
        if (reqUs < 0 || respEnd < reqUs)
            continue;
        const double latencyUs = static_cast<double>(s.recvNs - s.sendNs) / 1e3;
        const double envelopeUs = respEnd - reqUs;
        ++b.requests;
        loopUs += selfUs(reqUs, respEnd, sp->second);
        residualUs += std::max(0.0, latencyUs - envelopeUs);
        RequestBudget::Class &c = b.classes[s.klass];
        ++c.n;
        c.latencyMs += latencyUs / 1e3;
        c.envelopeMs += envelopeUs / 1e3;
        for (const Event *e : sp->second) {
            if (e->name == "serve.queue")
                c.queueMs += e->durUs / 1e3;
            else if (e->name == "sim.run")
                c.simMs += e->durUs / 1e3;
            else if (e->name == "explore.all")
                c.exploreMs += e->durUs / 1e3;
        }
    }
    if (b.requests) {
        b.loopSelfMs = loopUs / 1e3 / static_cast<double>(b.requests);
        b.residualMs = residualUs / 1e3 / static_cast<double>(b.requests);
    }
    for (auto &[name, c] : b.classes) {
        const double n = static_cast<double>(c.n);
        c.latencyMs /= n;
        c.envelopeMs /= n;
        c.queueMs /= n;
        c.simMs /= n;
        c.exploreMs /= n;
    }
    return b;
}

void
serveLayers(const Trace &trace, const std::vector<Sample> &samples,
            const RequestBudget &budget, double sends, double coalesced,
            double shed, MetricMap &out)
{
    double answered = 0.0, hits = 0.0;
    for (const Sample &s : samples) {
        if (!s.ok)
            continue;
        answered += 1.0;
        hits += s.hit ? 1.0 : 0.0;
    }
    std::vector<double> queueMs;
    for (const Event *e : trace.named("serve.queue"))
        queueMs.push_back(e->durUs / 1e3);
    const auto publishes = trace.named("serve.publish");
    out["serve.hit_ratio"] = answered > 0 ? hits / answered : 0.0;
    out["serve.coalesced_ratio"] = sends > 0 ? coalesced / sends : 0.0;
    out["serve.queue_wait_p50_ms"] = median(queueMs);
    out["serve.journal_ms_per_req"] =
        sends > 0 ? trace.totalUs("serve.journal") / 1e3 / sends : 0.0;
    out["serve.publish_ms_per_miss"] =
        publishes.empty() ? 0.0
                          : trace.totalUs("serve.publish") / 1e3 /
                                static_cast<double>(publishes.size());
    out["serve.loop_self_ms_per_req"] = budget.loopSelfMs;
    out["serve.residual_ms_per_req"] = budget.residualMs;
    out["serve.shed"] = shed;
}

} // namespace xpsbench
