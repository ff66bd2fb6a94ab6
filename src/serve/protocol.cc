#include "serve/protocol.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

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

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (const char c : s)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return h;
}

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
 * world: every key must be a known architectural field, and the
 * resulting configuration must satisfy the timing model.
 */
bool
parseConfig(const Value &obj, CoreConfig &cfg, std::string &error)
{
    if (!obj.isObject())
        return fail(error, "config must be an object");
    for (const auto &[key, val] : obj.fields) {
        if (val.type != Value::Type::Number)
            return fail(error, "config." + key + " must be a number");
        const double x = val.number;
        auto asU32 = [&](uint32_t &field) {
            field = static_cast<uint32_t>(x);
            return x >= 1 && x == std::floor(x) && x <= 1u << 20;
        };
        auto asU64 = [&](uint64_t &field) {
            field = static_cast<uint64_t>(x);
            return x >= 1 && x == std::floor(x) && x <= 1u << 24;
        };
        auto asInt = [&](int &field) {
            field = static_cast<int>(x);
            return x >= 1 && x == std::floor(x) && x <= 64;
        };
        bool ok;
        if (key == "clock_ns")
            ok = (cfg.clockNs = x) > 0.0 && x < 100.0;
        else if (key == "width")
            ok = asU32(cfg.width);
        else if (key == "rob_size")
            ok = asU32(cfg.robSize);
        else if (key == "iq_size")
            ok = asU32(cfg.iqSize);
        else if (key == "lsq_size")
            ok = asU32(cfg.lsqSize);
        else if (key == "sched_depth")
            ok = asInt(cfg.schedDepth);
        else if (key == "lsq_depth")
            ok = asInt(cfg.lsqDepth);
        else if (key == "l1_sets")
            ok = asU64(cfg.l1Sets);
        else if (key == "l1_assoc")
            ok = asU32(cfg.l1Assoc);
        else if (key == "l1_line_bytes")
            ok = asU32(cfg.l1LineBytes);
        else if (key == "l1_cycles")
            ok = asInt(cfg.l1Cycles);
        else if (key == "l2_sets")
            ok = asU64(cfg.l2Sets);
        else if (key == "l2_assoc")
            ok = asU32(cfg.l2Assoc);
        else if (key == "l2_line_bytes")
            ok = asU32(cfg.l2LineBytes);
        else if (key == "l2_cycles")
            ok = asInt(cfg.l2Cycles);
        else
            return fail(error, "unknown config key '" + key + "'");
        if (!ok)
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

CsvManifest
requestIdentity(const Request &req)
{
    CsvManifest m;
    m.set("schema", kSchema);
    m.set("op", opName(req.op));
    m.set("instrs", req.instrs);
    for (const WorkloadProfile &p : req.workloads)
        m.set("profile." + p.name, profileFingerprint(p));
    for (size_t i = 0; i < req.configs.size(); ++i)
        m.set("config." + std::to_string(i),
              configFingerprint(req.configs[i]));
    if (req.op == Request::Op::Explore) {
        m.set("sa_iters", req.saIters);
        m.set("rounds", static_cast<uint64_t>(req.rounds));
        m.set("seed", req.seed);
    }
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
