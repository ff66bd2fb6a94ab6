#include "util/fault.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/logging.hh"
#include "util/rng.hh"

namespace xps
{
namespace fault
{

namespace
{

/**
 * The catalogue. Central on purpose: XPS_FAULTS specs are validated
 * against it (a typo'd site fatals instead of silently never firing)
 * and the fault-matrix test enumerates it to prove every site is
 * survivable. Keep DESIGN.md §9 in sync when adding entries.
 */
const Site kSites[] = {
    {"worker.start", false},     // procpool child, right after fork
    {"worker.result", true},     // worker's result frame to the pool
    {"checkpoint.write", true},  // per-workload annealing checkpoint
    {"cell.publish", true},      // perf-matrix row's result frame
    {"sim.run", false},          // simulate() entry (the eval hot path)
    {"serve.accept", false},     // daemon, right after accept()
    {"serve.journal", true},     // daemon job-journal record write
    {"serve.publish", true},     // serve worker's result-store publish
    {"serve.respond", false},    // daemon, before the response write
    {"serve.trace", true},       // serve worker's trace-file publish
};
constexpr size_t kNumSites = sizeof(kSites) / sizeof(kSites[0]);
constexpr size_t kMaxArms = 16;

/** One armed fault (parsed, process-local; children inherit by fork). */
struct Arm
{
    size_t site = 0; ///< index into kSites
    Kind kind = Kind::None;
    uint64_t nth = 1; ///< fire on this visit of the site
};

/**
 * Cross-process coordination state, placed in a MAP_SHARED anonymous
 * page created when the schedule is armed (i.e. before the supervisor
 * forks workers): visit counters and the fired-once flags must be
 * visible to every process of the tree, or a retried worker would
 * re-trip the fault its predecessor already died on.
 */
struct SharedState
{
    std::atomic<uint64_t> firedTotal;
    std::atomic<uint64_t> siteHits[kNumSites];
    struct
    {
        std::atomic<uint64_t> hits;
        std::atomic<uint32_t> fired;
    } arms[kMaxArms];
};
static_assert(sizeof(SharedState) <= 4096, "one page is plenty");

Arm g_arms[kMaxArms];
size_t g_num_arms = 0;
SharedState *g_shared = nullptr;
std::string g_spec;

int
siteIndex(const char *name)
{
    for (size_t i = 0; i < kNumSites; ++i) {
        if (!std::strcmp(kSites[i].name, name))
            return static_cast<int>(i);
    }
    return -1;
}

const char *
kindName(Kind k)
{
    switch (k) {
    case Kind::Crash: return "crash";
    case Kind::Hang: return "hang";
    case Kind::ShortWrite: return "shortwrite";
    case Kind::Enospc: return "enospc";
    case Kind::None: break;
    }
    return "none";
}

bool
parseKind(const std::string &text, Kind &out)
{
    if (text == "crash")
        out = Kind::Crash;
    else if (text == "hang")
        out = Kind::Hang;
    else if (text == "shortwrite")
        out = Kind::ShortWrite;
    else if (text == "enospc")
        out = Kind::Enospc;
    else
        return false;
    return true;
}

/** Arm from the environment once, before any fault point can run. */
const bool g_env_armed = [] {
    const char *spec = std::getenv("XPS_FAULTS");
    if (spec && *spec)
        armSchedule(spec);
    return true;
}();

} // namespace

namespace detail
{

bool gArmed = false;

Kind
fireSlow(const char *site)
{
    SharedState *shared = g_shared;
    if (!shared)
        return Kind::None;
    const int si = siteIndex(site);
    if (si < 0)
        panic("fault point '%s' is not in the catalogue", site);
    shared->siteHits[si].fetch_add(1, std::memory_order_relaxed);
    for (size_t a = 0; a < g_num_arms; ++a) {
        if (g_arms[a].site != static_cast<size_t>(si))
            continue;
        const uint64_t hit =
            shared->arms[a].hits.fetch_add(1, std::memory_order_acq_rel) +
            1;
        if (hit != g_arms[a].nth)
            continue;
        uint32_t expected = 0;
        if (!shared->arms[a].fired.compare_exchange_strong(expected, 1))
            continue; // another process won the race
        shared->firedTotal.fetch_add(1, std::memory_order_relaxed);
        Kind kind = g_arms[a].kind;
        const bool write_site = kSites[si].write;
        if (!write_site &&
            (kind == Kind::ShortWrite || kind == Kind::Enospc)) {
            kind = Kind::Crash; // documented degradation
        }
        warn("fault: firing %s at %s (visit %llu, pid %d)",
             kindName(kind), site,
             static_cast<unsigned long long>(hit),
             static_cast<int>(::getpid()));
        switch (kind) {
        case Kind::Crash:
            ::_exit(kCrashExitCode);
        case Kind::Hang:
            // Stop making progress without burning CPU; the
            // supervisor's heartbeat timeout or deadline must
            // SIGKILL this process.
            for (;;)
                ::usleep(100 * 1000);
        case Kind::ShortWrite:
        case Kind::Enospc:
            return kind; // realized by the writing caller
        case Kind::None:
            break;
        }
    }
    return Kind::None;
}

} // namespace detail

const std::vector<Site> &
sites()
{
    static const std::vector<Site> all(kSites, kSites + kNumSites);
    return all;
}

void
armSchedule(const std::string &spec)
{
    if (g_shared) {
        ::munmap(g_shared, sizeof(SharedState));
        g_shared = nullptr;
    }
    detail::gArmed = false;
    g_num_arms = 0;
    g_spec.clear();

    if (spec.empty())
        return;

    std::ostringstream normalized;
    std::istringstream in(spec);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (item.empty())
            continue;
        if (g_num_arms >= kMaxArms)
            fatal("XPS_FAULTS: more than %zu arms", kMaxArms);
        std::istringstream fields(item);
        std::string site, kind, nth_text, seed_text;
        std::getline(fields, site, ':');
        std::getline(fields, kind, ':');
        std::getline(fields, nth_text, ':');
        std::getline(fields, seed_text, ':');
        Arm arm;
        const int si = siteIndex(site.c_str());
        if (si < 0)
            fatal("XPS_FAULTS: unknown site '%s' (see fault::sites())",
                  site.c_str());
        arm.site = static_cast<size_t>(si);
        if (!parseKind(kind, arm.kind))
            fatal("XPS_FAULTS: unknown kind '%s' in '%s' (crash|hang|"
                  "shortwrite|enospc)", kind.c_str(), item.c_str());
        char *end = nullptr;
        const unsigned long long nth =
            std::strtoull(nth_text.c_str(), &end, 10);
        if (nth_text.empty() || !end || *end != '\0')
            fatal("XPS_FAULTS: bad visit count '%s' in '%s'",
                  nth_text.c_str(), item.c_str());
        if (nth == 0) {
            if (seed_text.empty())
                fatal("XPS_FAULTS: nth 0 needs a seed in '%s'",
                      item.c_str());
            char *send = nullptr;
            const unsigned long long seed =
                std::strtoull(seed_text.c_str(), &send, 10);
            if (!send || *send != '\0')
                fatal("XPS_FAULTS: bad seed '%s' in '%s'",
                      seed_text.c_str(), item.c_str());
            arm.nth = 1 + mix64(seed ^ fnv1a(site) ^
                                static_cast<uint64_t>(arm.kind)) % 8;
        } else {
            arm.nth = nth;
        }
        g_arms[g_num_arms++] = arm;
        normalized << (g_num_arms > 1 ? "," : "")
                   << kSites[arm.site].name << ':' << kindName(arm.kind)
                   << ':' << arm.nth;
    }
    if (g_num_arms == 0)
        return;

    void *page = ::mmap(nullptr, sizeof(SharedState),
                        PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (page == MAP_FAILED)
        fatal("XPS_FAULTS: mmap of the shared fault page failed: %s",
              std::strerror(errno));
    g_shared = new (page) SharedState{};
    g_spec = normalized.str();
    detail::gArmed = true;
}

std::string
activeSchedule()
{
    return g_spec;
}

uint64_t
firedCount()
{
    return g_shared
               ? g_shared->firedTotal.load(std::memory_order_relaxed)
               : 0;
}

uint64_t
hitCount(const std::string &site)
{
    const int si = siteIndex(site.c_str());
    if (si < 0)
        fatal("fault::hitCount: unknown site '%s'", site.c_str());
    return g_shared
               ? g_shared->siteHits[si].load(std::memory_order_relaxed)
               : 0;
}

} // namespace fault
} // namespace xps
