#include <set>
#include <sstream>

#include "explore/search_space.hh"
#include "gen.hh"
#include "stats.hh"
#include "timing/unit_timing.hh"
#include "util/rng.hh"
#include "workload/profile.hh"

namespace xpsbench
{

using xps::CoreConfig;

const char *
opName(Op op)
{
    switch (op) {
      case Op::Whatif: return "whatif";
      case Op::Matrix: return "matrix";
      case Op::Explore: return "explore";
    }
    return "?";
}

namespace
{

/**
 * Seeded configurations: each one is the end of a short
 * SearchSpace::neighbor walk from the paper's Table-3 starting point.
 * Independent short walks, unlike one long walk, draw every
 * configuration from the same distribution whatever the seed, so the
 * simulation cost of a run's requests does not drift with the seed.
 */
class ConfigWalk
{
  public:
    static constexpr int kSteps = 8;

    explicit ConfigWalk(uint64_t seed) : space_(timing_), rng_(seed) {}

    CoreConfig
    next()
    {
        CoreConfig current = space_.initialConfig();
        for (int i = 0; i < kSteps; ++i) {
            CoreConfig step;
            while (!space_.neighbor(current, rng_, step))
                ;
            current = step;
        }
        return current;
    }

  private:
    xps::UnitTiming timing_; ///< SearchSpace keeps a reference
    xps::SearchSpace space_;
    xps::Rng rng_;
};

/** A seeded shuffled deck: every card comes up equally often, in a
 *  seeded order. Stratifying the draws keeps the mix and the profile
 *  shares the same from seed to seed, so a seed changes the inputs
 *  but not the load's composition. */
template <typename Card>
class Deck
{
  public:
    Deck(std::vector<Card> cards, xps::Rng &rng)
        : cards_(std::move(cards)), rng_(rng)
    {
    }

    Card
    draw()
    {
        if (next_ == 0) {
            for (size_t i = cards_.size(); i > 1; --i)
                std::swap(cards_[i - 1], cards_[rng_.below(i)]);
            next_ = cards_.size();
        }
        return cards_[--next_];
    }

  private:
    std::vector<Card> cards_;
    xps::Rng &rng_;
    size_t next_ = 0;
};

/** How one slot of the mix is filled. */
enum class Slot
{
    Fresh,     ///< a new group
    FreshTwin, ///< a new group sent twice in a row (usually coalesced)
    Repeat     ///< an earlier group (usually a store hit)
};

std::vector<Slot>
slots(size_t fresh, size_t twins, size_t repeats)
{
    std::vector<Slot> out(fresh, Slot::Fresh);
    out.insert(out.end(), twins, Slot::FreshTwin);
    out.insert(out.end(), repeats, Slot::Repeat);
    return out;
}

/** Fill `load` to `items` sends from a deck of slots. Repeats pick a
 *  group at least `repeatLag` groups back, so it has usually been
 *  answered by the time the repeat is sent. */
template <typename FreshFn>
void
fill(Load &load, size_t items, Deck<Slot> &deck, size_t repeatLag,
     xps::Rng &rng, FreshFn &&fresh)
{
    while (load.items.size() < items) {
        Slot slot = deck.draw();
        if (slot == Slot::Repeat && load.groups.size() <= repeatLag)
            slot = Slot::Fresh;
        if (slot == Slot::Repeat) {
            load.items.push_back(
                {rng.below(load.groups.size() - repeatLag), false});
            continue;
        }
        load.groups.push_back(fresh());
        load.items.push_back({load.groups.size() - 1, true});
        if (slot == Slot::FreshTwin)
            load.items.push_back({load.groups.size() - 1, false});
    }
}

/** `n` distinct profile names drawn from a deck of the suite. */
std::vector<std::string>
pickWorkloads(Deck<std::string> &deck, size_t n)
{
    std::vector<std::string> out;
    while (out.size() < n) {
        const std::string name = deck.draw();
        bool dup = false;
        for (const std::string &have : out)
            dup |= have == name;
        if (!dup)
            out.push_back(name);
    }
    return out;
}

/** A configuration as a protocol config object: every architectural
 *  field, the clock as %.17g so it round-trips exactly. */
std::string
configJson(const CoreConfig &c)
{
    std::ostringstream out;
    out << "{\"clock_ns\":" << exact(c.clockNs) << ",\"width\":" << c.width
        << ",\"rob_size\":" << c.robSize << ",\"iq_size\":" << c.iqSize
        << ",\"lsq_size\":" << c.lsqSize
        << ",\"sched_depth\":" << c.schedDepth
        << ",\"lsq_depth\":" << c.lsqDepth << ",\"l1_sets\":" << c.l1Sets
        << ",\"l1_assoc\":" << c.l1Assoc
        << ",\"l1_line_bytes\":" << c.l1LineBytes
        << ",\"l1_cycles\":" << c.l1Cycles << ",\"l2_sets\":" << c.l2Sets
        << ",\"l2_assoc\":" << c.l2Assoc
        << ",\"l2_line_bytes\":" << c.l2LineBytes
        << ",\"l2_cycles\":" << c.l2Cycles << '}';
    return out.str();
}

} // namespace

Load
generateWhatif(uint64_t seed, size_t items)
{
    // Per 10 slots: 4 fresh, 2 fresh twins, 4 repeats -> of every 12
    // sends, 6 are fresh, 2 join in flight, 4 hit the store.
    Load load;
    ConfigWalk walk(seed);
    xps::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    Deck<Slot> mix(slots(4, 2, 4), rng);
    Deck<std::string> profiles(xps::spec2000intNames(), rng);
    std::set<std::pair<std::string, uint64_t>> seen;
    fill(load, items, mix, 8, rng, [&] {
        Group g;
        g.op = Op::Whatif;
        g.instrs = kWhatifInstrs;
        g.workloads = pickWorkloads(profiles, 1);
        for (;;) {
            const CoreConfig cfg = walk.next();
            if (seen.insert({g.workloads[0], xps::configFingerprint(cfg)})
                    .second) {
                g.configs = {cfg};
                return g;
            }
        }
    });
    return load;
}

Load
generateExplore(uint64_t seed, size_t items)
{
    // Per 20 slots: 17 fresh, 3 repeats. Fresh sends draw from their
    // own deck: two thirds explores, whose p90 is reported and needs
    // the samples, one third matrices, whose median needs fewer.
    Load load;
    ConfigWalk walk(seed);
    xps::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    Deck<Slot> mix(slots(17, 0, 3), rng);
    Deck<std::string> profiles(xps::spec2000intNames(), rng);
    // 2-profile and 3-profile explores, twice each; matrix, matrix.
    Deck<int> kinds({2, 3, 2, 3, 0, 0}, rng);
    uint64_t exploreSeed = seed * 1000003ULL;
    fill(load, items, mix, 4, rng, [&] {
        Group g;
        const int kind = kinds.draw();
        if (kind > 0) {
            g.op = Op::Explore;
            g.workloads = pickWorkloads(profiles, static_cast<size_t>(kind));
            g.instrs = kExploreInstrs;
            g.saIters = kExploreSaIters;
            g.rounds = kExploreRounds;
            g.seed = ++exploreSeed;
        } else {
            g.op = Op::Matrix;
            g.workloads = pickWorkloads(profiles, 3);
            g.instrs = kMatrixInstrs;
            std::set<uint64_t> fps;
            while (g.configs.size() < 3) {
                const CoreConfig cfg = walk.next();
                if (fps.insert(xps::configFingerprint(cfg)).second)
                    g.configs.push_back(cfg);
            }
        }
        return g;
    });
    return load;
}

std::string
requestLine(const Group &g, const std::string &id, const std::string &rid,
            const std::string &client)
{
    std::ostringstream out;
    out << "{\"op\":\"" << opName(g.op) << "\",\"id\":\"" << id
        << "\",\"rid\":\"" << rid << "\",\"client\":\"" << client
        << "\",\"workloads\":[";
    for (size_t i = 0; i < g.workloads.size(); ++i)
        out << (i ? ",\"" : "\"") << g.workloads[i] << '"';
    out << "],\"instrs\":" << g.instrs;
    if (g.op == Op::Whatif) {
        out << ",\"config\":" << configJson(g.configs[0]);
    } else if (g.op == Op::Matrix) {
        out << ",\"configs\":[";
        for (size_t i = 0; i < g.configs.size(); ++i)
            out << (i ? "," : "") << configJson(g.configs[i]);
        out << ']';
    } else {
        out << ",\"sa_iters\":" << g.saIters << ",\"rounds\":" << g.rounds
            << ",\"seed\":" << g.seed;
    }
    out << '}';
    return out.str();
}

} // namespace xpsbench
