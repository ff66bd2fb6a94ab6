#include "serve/protocol.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "comm/perf_matrix.hh"
#include "obs/json.hh"
#include "timing/unit_timing.hh"
#include "workload/trace.hh"

namespace xps
{
namespace serve
{

namespace
{

using obs::json::Value;

bool
fail(std::string &error, const std::string &why)
{
    error = why;
    return false;
}

/** A positive integer field within [1, cap]; `def` when absent. */
bool
uintField(const Value &v, const char *key, uint64_t def, uint64_t cap,
          uint64_t &out, std::string &error)
{
    const Value *f = v.find(key);
    if (!f) {
        out = def;
        return true;
    }
    if (f->type != Value::Type::Number || f->number < 1 ||
        f->number != std::floor(f->number) ||
        f->number > static_cast<double>(cap)) {
        return fail(error, std::string(key) + " must be an integer in [1, " +
                               std::to_string(cap) + "]");
    }
    out = static_cast<uint64_t>(f->number);
    return true;
}

/**
 * Apply one config-override object onto a base CoreConfig. Closed
 * world: every key must be a protocol key of the field table, each
 * value a number the field admits, and the resulting configuration
 * must satisfy checkFits.
 */
bool
parseConfig(const Value &obj, CoreConfig &cfg, std::string &error)
{
    if (!obj.isObject())
        return fail(error, "config must be an object");
    for (const auto &[key, val] : obj.fields) {
        if (val.type != Value::Type::Number)
            return fail(error, "config." + key + " must be a number");
        const ConfigField *field = nullptr;
        for (const ConfigField &f : configFields()) {
            if (key == f.protocolName)
                field = &f;
        }
        if (!field)
            return fail(error, "unknown config key '" + key + "'");
        if (!field->set(val.number, cfg))
            return fail(error, "config." + key + " is out of range");
    }
    const UnitTiming timing;
    const std::string violation = cfg.checkFits(timing);
    if (!violation.empty())
        return fail(error, "infeasible config: " + violation);
    return true;
}

} // namespace

const char *
opName(Request::Op op)
{
    switch (op) {
      case Request::Op::Ping: return "ping";
      case Request::Op::Stats: return "stats";
      case Request::Op::Metrics: return "metrics";
      case Request::Op::Whatif: return "whatif";
      case Request::Op::Matrix: return "matrix";
      case Request::Op::Explore: return "explore";
    }
    return "unknown";
}

bool
parseRequest(const std::string &line, Request &req, std::string &error)
{
    Value root;
    if (!obs::json::parse(line, root) || !root.isObject())
        return fail(error, "malformed JSON request");

    const std::string op = root.stringOr("op", "");
    if (op == "ping")
        req.op = Request::Op::Ping;
    else if (op == "stats")
        req.op = Request::Op::Stats;
    else if (op == "metrics")
        req.op = Request::Op::Metrics;
    else if (op == "whatif")
        req.op = Request::Op::Whatif;
    else if (op == "matrix")
        req.op = Request::Op::Matrix;
    else if (op == "explore")
        req.op = Request::Op::Explore;
    else
        return fail(error, "unknown op '" + op + "'");

    req.id = root.stringOr("id", "");
    req.client = root.stringOr("client", "anon");
    req.rid = root.stringOr("rid", "");
    if (req.rid.size() > 64)
        return fail(error, "rid must be at most 64 characters");
    req.deadlineS = root.numberOr("deadline_s", 0.0);
    if (req.deadlineS < 0 || req.deadlineS > 86400)
        return fail(error, "deadline_s must be in [0, 86400]");
    if (!req.isCompute())
        return true;

    const Value *wl = root.find("workloads");
    if (!wl || !wl->isArray() || wl->items.empty())
        return fail(error, "workloads must be a non-empty array");
    const auto &known = spec2000int();
    for (const Value &item : wl->items) {
        if (item.type != Value::Type::String)
            return fail(error, "workloads entries must be strings");
        const WorkloadProfile *found = nullptr;
        for (const WorkloadProfile &p : known) {
            if (p.name == item.str) {
                found = &p;
                break;
            }
        }
        if (!found)
            return fail(error, "unknown workload '" + item.str + "'");
        // A name names a result row, a store identity entry and an
        // explorer checkpoint file, so each must be one workload.
        for (const WorkloadProfile &p : req.workloads) {
            if (p.name == item.str)
                return fail(error,
                            "workload '" + item.str + "' is repeated");
        }
        req.workloads.push_back(*found);
    }

    if (!uintField(root, "instrs", 20000, 2000000, req.instrs, error))
        return false;

    if (req.op == Request::Op::Whatif) {
        CoreConfig cfg = CoreConfig::initial();
        const Value *c = root.find("config");
        if (c && !parseConfig(*c, cfg, error))
            return false;
        req.configs.push_back(cfg);
    } else if (req.op == Request::Op::Matrix) {
        const Value *cs = root.find("configs");
        if (!cs || !cs->isArray() || cs->items.empty())
            return fail(error, "configs must be a non-empty array");
        for (const Value &c : cs->items) {
            CoreConfig cfg = CoreConfig::initial();
            if (!parseConfig(c, cfg, error))
                return false;
            req.configs.push_back(cfg);
        }
        // PerfMatrix is square by construction (column c is the
        // configuration customized for workload c).
        if (req.configs.size() != req.workloads.size())
            return fail(error,
                        "matrix requests need one config per workload");
    } else { // Explore
        if (!uintField(root, "sa_iters", 48, 100000, req.saIters,
                       error))
            return false;
        uint64_t rounds = 0;
        if (!uintField(root, "rounds", 2, 16, rounds, error))
            return false;
        req.rounds = static_cast<int>(rounds);
        if (!uintField(root, "seed", 7, UINT64_MAX / 2, req.seed,
                       error))
            return false;
    }
    return true;
}

ExplorerOptions
exploreOptions(const Request &req)
{
    ExplorerOptions opts;
    opts.evalInstrs = req.instrs;
    opts.saIters = req.saIters;
    opts.rounds = req.rounds;
    opts.seed = req.seed;
    opts.threads = 1;
    opts.finalEvalInstrs = 2 * req.instrs;
    return opts;
}

CsvManifest
requestIdentity(const Request &req)
{
    CsvManifest m;
    m.set("schema", kSchema);
    m.set("op", opName(req.op));
    if (req.op == Request::Op::Whatif) {
        m.set("instrs", req.instrs);
        for (const WorkloadProfile &p : req.workloads)
            m.set("profile." + p.name, profileFingerprint(p));
        m.set("config.0", configFingerprint(req.configs[0]));
        return m;
    }
    // The result's own identity, every key under the op's prefix, so
    // its keys (a "schema" among them) never overwrite the two above.
    const CsvManifest result =
        req.op == Request::Op::Matrix
            ? PerfMatrix::identity(req.workloads, req.configs,
                                   req.instrs)
            : Explorer::identityOf(req.workloads, exploreOptions(req));
    const std::string prefix = std::string(opName(req.op)) + ".";
    for (const auto &[key, value] : result.entries)
        m.set(prefix + key, value);
    return m;
}

std::string
identityKey(const CsvManifest &identity)
{
    std::ostringstream flat;
    for (const auto &[key, value] : identity.entries)
        flat << key << '=' << value << '\n';
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(flat.str())));
    return hex;
}

namespace
{

void
openResponse(std::ostringstream &out, const std::string &id,
             const char *status)
{
    out << "{\"id\":\"" << obs::json::escape(id) << "\",\"status\":\""
        << status << '"';
}

} // namespace

std::string
okResponse(const std::string &id, const CsvDoc &doc, bool cacheHit,
           bool degraded)
{
    std::ostringstream out;
    openResponse(out, id, "ok");
    out << ",\"cache\":\"" << (cacheHit ? "hit" : "miss") << '"';
    if (degraded)
        out << ",\"degraded\":true";
    out << ",\"results\":[";
    for (size_t r = 0; r < doc.rows.size(); ++r) {
        out << (r ? ",{" : "{");
        for (size_t c = 0; c < doc.header.size(); ++c) {
            out << (c ? ",\"" : "\"")
                << obs::json::escape(doc.header[c]) << "\":\""
                << obs::json::escape(doc.rows[r][c]) << '"';
        }
        out << '}';
    }
    out << "]}";
    return out.str();
}

std::string
errorResponse(const std::string &id, const std::string &message)
{
    std::ostringstream out;
    openResponse(out, id, "error");
    out << ",\"error\":\"" << obs::json::escape(message) << "\"}";
    return out.str();
}

std::string
overloadedResponse(const std::string &id, double retryAfterS)
{
    std::ostringstream out;
    openResponse(out, id, "overloaded");
    out << ",\"retry_after_s\":" << retryAfterS << '}';
    return out.str();
}

std::string
shuttingDownResponse(const std::string &id)
{
    std::ostringstream out;
    openResponse(out, id, "retry");
    out << ",\"error\":\"daemon is draining; job journaled for the "
           "next boot\"}";
    return out.str();
}

} // namespace serve
} // namespace xps
