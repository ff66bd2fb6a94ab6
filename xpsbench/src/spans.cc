#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "spans.hh"

namespace xpsbench
{

namespace json = xps::obs::json;

double
Event::argNumber(const char *key, double def) const
{
    return args.numberOr(key, def);
}

std::string
Event::argString(const char *key) const
{
    return args.stringOr(key, "");
}

bool
Trace::parseLine(const std::string &raw, Event &out)
{
    std::string line = raw;
    while (!line.empty() &&
           (line.back() == ',' || line.back() == '\n' ||
            line.back() == '\r' || line.back() == ' '))
        line.pop_back();
    if (line.size() < 2 || line.front() != '{' ||
        line.compare(0, 9, "{\"name\":\"") != 0)
        return false;
    json::Value v;
    if (!json::parse(line, v) || !v.isObject())
        return false;
    const std::string ph = v.stringOr("ph", "");
    if (ph != "X" && ph != "i")
        return false;
    out = Event{};
    out.ph = ph[0];
    out.name = v.stringOr("name", "");
    out.rid = v.stringOr("rid", "");
    out.pid = static_cast<int>(v.numberOr("pid", 0));
    out.tid = static_cast<unsigned>(v.numberOr("tid", 0));
    out.tsUs = v.numberOr("ts", 0.0);
    out.durUs = v.numberOr("dur", 0.0);
    if (const json::Value *a = v.find("args"))
        out.args = *a;
    return true;
}

bool
Trace::load(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open trace " + path;
        return false;
    }
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        Event ev;
        if (!parseLine(line, ev))
            continue;
        (ev.ph == 'X' ? spans : instants).push_back(std::move(ev));
    }
    if (lines == 0) {
        error = "empty trace " + path;
        return false;
    }
    return true;
}

std::vector<const Event *>
Trace::named(const std::string &name) const
{
    std::vector<const Event *> out;
    for (const Event &e : spans) {
        if (e.name == name)
            out.push_back(&e);
    }
    return out;
}

size_t
Trace::countInstants(const std::string &name) const
{
    size_t n = 0;
    for (const Event &e : instants)
        n += e.name == name ? 1 : 0;
    return n;
}

double
Trace::totalUs(const std::string &name) const
{
    double total = 0.0;
    for (const Event *e : named(name))
        total += e->durUs;
    return total;
}

double
Trace::totalSelfUs(const std::string &name) const
{
    // Group every span by (pid, tid) once, sorted by start; a child
    // of a span starts inside it and ends no later than it does.
    std::map<std::pair<int, unsigned>, std::vector<const Event *>> lanes;
    for (const Event &e : spans)
        lanes[{e.pid, e.tid}].push_back(&e);
    for (auto &[key, lane] : lanes) {
        std::sort(lane.begin(), lane.end(),
                  [](const Event *a, const Event *b) {
                      return a->tsUs < b->tsUs;
                  });
    }
    // Timestamps carry 1 ns resolution; absorb that rounding.
    constexpr double kEps = 0.0015;
    double total = 0.0;
    for (const Event &parent : spans) {
        if (parent.name != name)
            continue;
        const auto &lane = lanes[{parent.pid, parent.tid}];
        auto it = std::lower_bound(
            lane.begin(), lane.end(), parent.tsUs - kEps,
            [](const Event *e, double ts) { return e->tsUs < ts; });
        std::vector<const Event *> children;
        for (; it != lane.end() && (*it)->tsUs <= parent.endUs() + kEps;
             ++it) {
            const Event *c = *it;
            if (c == &parent || c->durUs >= parent.durUs)
                continue;
            if (c->endUs() <= parent.endUs() + kEps)
                children.push_back(c);
        }
        total += selfUs(parent.tsUs, parent.endUs(), children);
    }
    return total;
}

double
coveredUs(double begin, double end, std::vector<Interval> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double cursor = begin;
    for (const auto &[b0, e0] : intervals) {
        const double b = std::max(b0, cursor);
        const double e = std::min(e0, end);
        if (e > b) {
            covered += e - b;
            cursor = e;
        }
    }
    return covered;
}

double
selfUs(double begin, double end, const std::vector<const Event *> &children)
{
    std::vector<Interval> iv;
    iv.reserve(children.size());
    for (const Event *c : children)
        iv.emplace_back(c->tsUs, c->endUs());
    return std::max(0.0, (end - begin) - coveredUs(begin, end, iv));
}

std::map<std::string, std::vector<const Event *>>
spansByRid(const Trace &trace)
{
    std::unordered_map<int, std::string> workerRid;
    for (const Event &e : trace.spans) {
        if (e.name == "pool.job" && !e.rid.empty())
            workerRid.emplace(e.pid, e.rid);
    }
    std::map<std::string, std::vector<const Event *>> out;
    for (const Event &e : trace.spans) {
        std::string rid = e.rid;
        if (e.name == "pool.attempt") {
            const auto it = workerRid.find(
                static_cast<int>(e.argNumber("worker_pid", -1)));
            if (it != workerRid.end())
                rid = it->second;
        }
        if (!rid.empty())
            out[rid].push_back(&e);
    }
    return out;
}

std::map<std::string, std::vector<const Event *>>
instantsByRid(const Trace &trace)
{
    std::map<std::string, std::vector<const Event *>> out;
    for (const Event &e : trace.instants) {
        if (!e.rid.empty())
            out[e.rid].push_back(&e);
    }
    return out;
}

} // namespace xpsbench
