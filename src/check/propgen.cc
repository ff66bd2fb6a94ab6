#include "check/propgen.hh"

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "util/logging.hh"

namespace xps
{

namespace
{

constexpr const char *kHeader = "xps-prop-case v1";

/**
 * One serializable/shrinkable numeric field of a PropCase. Integral
 * fields round-trip through double, which is exact for every value in
 * range here (all well below 2^53). A configuration field goes
 * through its CoreConfig field table entry, which gates its values.
 */
struct NumField
{
    std::string key;
    bool isFloat;
    /** The table entry of a configuration field; null otherwise. */
    const ConfigField *config;
    double (*getRun)(const PropCase &);
    bool (*setRun)(PropCase &, double);

    double get(const PropCase &c) const
    {
        return config ? config->get(c.config) : getRun(c);
    }
    /** False, `c` untouched, if the table rejects `v`. */
    bool set(PropCase &c, double v) const
    {
        return config ? config->set(v, c.config) : setRun(c, v);
    }
};

#define XPS_FIELD(key, isFloat, expr)                                 \
    NumField                                                          \
    {                                                                 \
        key, isFloat, nullptr,                                        \
            [](const PropCase &c) {                                   \
                return static_cast<double>(c.expr);                   \
            },                                                        \
            [](PropCase &c, double v) {                               \
                c.expr = static_cast<decltype(c.expr)>(v);            \
                return true;                                          \
            }                                                         \
    }

const std::vector<NumField> &
numFields()
{
    static const std::vector<NumField> fields = [] {
        std::vector<NumField> f = {
            XPS_FIELD("measure", false, measureInstrs),
            XPS_FIELD("warmup", false, warmupInstrs),
            XPS_FIELD("stream", false, streamId),
        };
        for (const ConfigField &cf : configFields()) {
            f.push_back(NumField{std::string("cfg.") + cf.name,
                                 cf.isFloat(), &cf, nullptr, nullptr});
        }
        f.insert(f.end(), {
            XPS_FIELD("prof.seed", false, profile.seed),
            XPS_FIELD("prof.frac_load", true, profile.fracLoad),
            XPS_FIELD("prof.frac_store", true, profile.fracStore),
            XPS_FIELD("prof.frac_cond_branch", true,
                      profile.fracCondBranch),
            XPS_FIELD("prof.frac_jump", true, profile.fracJump),
            XPS_FIELD("prof.frac_mul", true, profile.fracMul),
            XPS_FIELD("prof.mean_dep_distance", true,
                      profile.meanDepDistance),
            XPS_FIELD("prof.frac_two_src", true, profile.fracTwoSrc),
            XPS_FIELD("prof.load_chase_prob", true,
                      profile.loadChaseProb),
            XPS_FIELD("prof.num_branch_sites", false,
                      profile.numBranchSites),
            XPS_FIELD("prof.frac_biased_sites", true,
                      profile.fracBiasedSites),
            XPS_FIELD("prof.biased_taken_prob", true,
                      profile.biasedTakenProb),
            XPS_FIELD("prof.frac_loop_sites", true,
                      profile.fracLoopSites),
            XPS_FIELD("prof.mean_loop_trip", true, profile.meanLoopTrip),
            XPS_FIELD("prof.frac_pattern_sites", true,
                      profile.fracPatternSites),
            XPS_FIELD("prof.site_zipf_s", true, profile.siteZipfS),
            XPS_FIELD("prof.working_set_bytes", false,
                      profile.workingSetBytes),
            XPS_FIELD("prof.heap_zipf_s", true, profile.heapZipfS),
            XPS_FIELD("prof.frac_hot", true, profile.fracHot),
            XPS_FIELD("prof.hot_region_bytes", false,
                      profile.hotRegionBytes),
            XPS_FIELD("prof.frac_stream", true, profile.fracStream),
            XPS_FIELD("prof.num_streams", false, profile.numStreams),
            XPS_FIELD("prof.stream_stride_bytes", false,
                      profile.streamStrideBytes),
            XPS_FIELD("prof.stream_window_bytes", false,
                      profile.streamWindowBytes),
        });
        return f;
    }();
    return fields;
}

#undef XPS_FIELD

/**
 * Canonical shrink target: Table-3 config, default profile, minimal
 * run budget. Every shrink candidate moves one field toward this.
 */
PropCase
baselineCase()
{
    PropCase b;
    b.config = CoreConfig::initial();
    b.profile = WorkloadProfile{};
    b.profile.name = "baseline";
    b.streamId = 0;
    b.measureInstrs = 500;
    b.warmupInstrs = 0;
    return b;
}

bool
candidateLegal(const PropCase &c, const NumField &field,
               const UnitTiming &timing)
{
    if (field.config)
        return c.config.checkFits(timing).empty();
    return profileValid(c.profile) && c.measureInstrs >= 1;
}

std::string
formatValue(const NumField &field, double v)
{
    char buf[64];
    if (field.isFloat)
        std::snprintf(buf, sizeof(buf), "%a", v);
    else
        std::snprintf(buf, sizeof(buf), "%" PRIu64,
                      static_cast<uint64_t>(v));
    return buf;
}

} // namespace

bool
profileValid(const WorkloadProfile &p)
{
    const double mix = p.fracLoad + p.fracStore + p.fracCondBranch +
                       p.fracJump + p.fracMul;
    if (mix > 1.0 + 1e-9)
        return false;
    for (double f : {p.fracLoad, p.fracStore, p.fracCondBranch,
                     p.fracJump, p.fracMul, p.fracTwoSrc,
                     p.loadChaseProb, p.fracHot, p.fracStream}) {
        if (f < 0.0 || f > 1.0)
            return false;
    }
    if (p.fracBiasedSites + p.fracLoopSites + p.fracPatternSites >
        1.0 + 1e-9)
        return false;
    if (p.fracHot + p.fracStream > 1.0 + 1e-9)
        return false;
    if (p.meanDepDistance < 1.0)
        return false;
    if (p.numBranchSites == 0 || p.numStreams == 0)
        return false;
    if (p.workingSetBytes < 64 || p.hotRegionBytes < 64)
        return false;
    return true;
}

std::string
PropCase::serialize() const
{
    std::ostringstream out;
    out << kHeader << "\n";
    out << "config.name=" << config.name << "\n";
    out << "profile.name=" << profile.name << "\n";
    for (const NumField &field : numFields())
        out << field.key << "=" << formatValue(field, field.get(*this))
            << "\n";
    out << "end\n";
    return out.str();
}

PropCase
PropCase::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != kHeader)
        fatal("prop case: missing '%s' header", kHeader);

    std::map<std::string, std::string> kv;
    bool sawEnd = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line == "end") {
            sawEnd = true;
            break;
        }
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("prop case: malformed line '%s'", line.c_str());
        kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
    if (!sawEnd)
        fatal("prop case: truncated (no 'end' line)");

    PropCase c;
    auto take = [&kv](const char *key) {
        auto it = kv.find(key);
        if (it == kv.end())
            fatal("prop case: missing key '%s'", key);
        std::string v = it->second;
        kv.erase(it);
        return v;
    };
    c.config.name = take("config.name");
    c.profile.name = take("profile.name");
    for (const NumField &field : numFields()) {
        const std::string v = take(field.key.c_str());
        char *endp = nullptr;
        const double parsed = field.isFloat
            ? std::strtod(v.c_str(), &endp)
            : static_cast<double>(std::strtoull(v.c_str(), &endp, 10));
        if (endp == v.c_str() || *endp != '\0' || !field.set(c, parsed))
            fatal("prop case: bad value '%s' for '%s'", v.c_str(),
                  field.key.c_str());
    }
    if (!kv.empty())
        fatal("prop case: unknown key '%s'", kv.begin()->first.c_str());
    return c;
}

PropGen::PropGen(uint64_t seed)
    : timing_(), space_(timing_), rng_(seed)
{
}

WorkloadProfile
PropGen::randomProfile()
{
    WorkloadProfile p;
    // Keep the seed below 2^53: every numeric field round-trips
    // through double in the serialization/shrinking field table.
    p.seed = (rng_.next() >> 12) | 1;
    p.fracLoad = rng_.uniform(0.05, 0.35);
    p.fracStore = rng_.uniform(0.02, 0.20);
    p.fracCondBranch = rng_.uniform(0.05, 0.25);
    p.fracJump = rng_.uniform(0.0, 0.06);
    p.fracMul = rng_.uniform(0.0, 0.08);

    p.meanDepDistance = rng_.uniform(1.5, 12.0);
    p.fracTwoSrc = rng_.uniform(0.10, 0.60);
    p.loadChaseProb = rng_.uniform(0.0, 0.50);

    p.numBranchSites =
        1u << static_cast<uint32_t>(rng_.range(6, 10));
    p.fracBiasedSites = rng_.uniform(0.10, 0.70);
    p.biasedTakenProb = rng_.uniform(0.80, 0.99);
    p.fracLoopSites =
        rng_.uniform(0.0, std::min(0.40, 1.0 - p.fracBiasedSites));
    p.fracPatternSites = rng_.uniform(
        0.0,
        std::min(0.20, 1.0 - p.fracBiasedSites - p.fracLoopSites));
    p.meanLoopTrip = rng_.uniform(2.0, 64.0);
    p.siteZipfS = rng_.uniform(0.30, 1.20);

    p.workingSetBytes = 1ULL << rng_.range(14, 24);
    p.heapZipfS = rng_.uniform(0.20, 1.10);
    p.fracHot = rng_.uniform(0.0, 0.60);
    p.hotRegionBytes = 1ULL << rng_.range(7, 14);
    p.fracStream =
        rng_.uniform(0.0, std::min(0.50, 0.95 - p.fracHot));
    p.numStreams = static_cast<uint32_t>(rng_.range(1, 8));
    p.streamStrideBytes =
        1u << static_cast<uint32_t>(rng_.range(2, 6));
    p.streamWindowBytes = 1ULL << rng_.range(12, 20);
    return p;
}

PropCase
PropGen::next()
{
    PropCase c;
    c.config = space_.randomConfig(rng_);
    c.profile = randomProfile();
    c.profile.name = "prop-" + std::to_string(count_);
    c.config.name = c.profile.name;
    c.streamId = rng_.below(4);
    ++count_;
    c.profile.validate();
    c.config.validate(timing_);
    return c;
}

uint64_t
shrinkDistance(const PropCase &c)
{
    static const PropCase base = baselineCase();
    uint64_t distance = 0;
    for (const NumField &field : numFields()) {
        if (field.get(c) != field.get(base))
            ++distance;
    }
    return distance;
}

PropCase
shrinkCase(const PropCase &failing, const PropProperty &passes,
           const UnitTiming &timing, uint64_t max_evals)
{
    static const PropCase base = baselineCase();
    PropCase cur = failing;
    uint64_t evals = 0;
    bool improved = true;
    while (improved && evals < max_evals) {
        improved = false;
        for (const NumField &field : numFields()) {
            const double v = field.get(cur);
            const double b = field.get(base);
            if (v == b)
                continue;
            // Try the full jump to baseline first, then the midpoint
            // (integral fields round toward the current value so the
            // midpoint is always a genuine move when distinct).
            double candidates[2] = {b, 0.0};
            int n = 1;
            double mid;
            if (field.config && field.config->pow2) {
                // Halve in log space so the midpoint stays a power
                // of two (the cache model accepts nothing else).
                const int lv = std::bit_width(
                                   static_cast<uint64_t>(v)) - 1;
                const int lb = std::bit_width(
                                   static_cast<uint64_t>(b)) - 1;
                mid = static_cast<double>(
                    1ULL << (lv + (lb - lv) / 2));
            } else if (field.isFloat) {
                mid = (v + b) / 2.0;
            } else {
                mid = v + std::trunc((b - v) / 2.0);
            }
            if (mid != v && mid != b)
                candidates[n++] = mid;
            for (int i = 0; i < n; ++i) {
                PropCase cand = cur;
                if (!field.set(cand, candidates[i]) ||
                    !candidateLegal(cand, field, timing))
                    continue;
                if (++evals > max_evals)
                    return cur;
                if (!passes(cand)) {
                    cur = cand;
                    improved = true;
                    break;
                }
            }
            if (improved)
                break;
        }
    }
    return cur;
}

} // namespace xps
