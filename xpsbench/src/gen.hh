/**
 * @file
 * Seeded request generator for the serve workloads. The sequence of
 * requests depends on the seed alone: the closed loop hands items out
 * in sequence order to whichever connection is free, so timing decides
 * only which connection sends an item, never what is sent.
 *
 * Every computed request is a Group (one store identity). An Item is
 * one send of a group: the first send of a group is fresh (a store
 * miss); a later one repeats it — a store hit when the first send has
 * completed, a coalesced join while it is still in flight.
 */

#ifndef XPSBENCH_GEN_HH
#define XPSBENCH_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace xpsbench
{

enum class Op
{
    Whatif,
    Matrix,
    Explore
};

const char *opName(Op op);

/** One distinct computed request. */
struct Group
{
    Op op = Op::Whatif;
    std::vector<std::string> workloads;
    std::vector<xps::CoreConfig> configs;
    uint64_t instrs = 0;
    uint64_t saIters = 0; ///< explore only
    uint64_t rounds = 0;  ///< explore only
    uint64_t seed = 0;    ///< explore only
};

/** One send: which group, and whether it is the group's first. */
struct Item
{
    size_t group = 0;
    bool fresh = true;
};

struct Load
{
    std::vector<Group> groups;
    std::vector<Item> items;
};

/** Budgets of the generated requests. */
constexpr uint64_t kWhatifInstrs = 20000;
constexpr uint64_t kMatrixInstrs = 20000;
constexpr uint64_t kExploreInstrs = 5000;
constexpr uint64_t kExploreSaIters = 24;
constexpr uint64_t kExploreRounds = 2;

/** serve_whatif: per fresh group one profile x the end of a short
 *  seeded SearchSpace::neighbor walk; repeats mixed in. */
Load generateWhatif(uint64_t seed, size_t items);

/** serve_explore: explore (2-3 profiles, distinct seeds) and 3x3
 *  matrix groups (configurations from the same kind of walks),
 *  repeats mixed in. */
Load generateExplore(uint64_t seed, size_t items);

/** The protocol line of one send of `group`. */
std::string requestLine(const Group &group, const std::string &id,
                        const std::string &rid,
                        const std::string &client);

} // namespace xpsbench

#endif // XPSBENCH_GEN_HH
