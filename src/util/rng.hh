/**
 * @file
 * Deterministic random-number generation for workload synthesis and
 * annealing schedules. Everything in xp-scalar that is stochastic is
 * seeded through one of these generators so that runs are repeatable.
 *
 * The core generator is xoshiro256** seeded via splitmix64, which is
 * fast, has a 256-bit state and passes BigCrush — more than adequate
 * for statistical workload synthesis. The stateless hashes that seed,
 * key or check anything (mix64, fnv1a, digest64) live here too.
 */

#ifndef XPS_UTIL_RNG_HH
#define XPS_UTIL_RNG_HH

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace xps
{

/** splitmix64 step; used to expand a single 64-bit seed into state. */
constexpr uint64_t
splitmix64(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** One splitmix64 output for `x`: a stateless 64-bit mixer (seeded
 *  fault visits, retry-backoff jitter, staging-file nonces). */
constexpr uint64_t
mix64(uint64_t x)
{
    return splitmix64(x);
}

/** 64-bit FNV-1a of a string: the one stable string hash (result
 *  store keys, trace flow ids, fault-site and job-name seeds). Its
 *  offset basis is 1469598103934665603, not the reference
 *  14695981039346656037; every stored key was made with it. */
constexpr uint64_t
fnv1a(std::string_view s)
{
    uint64_t h = 1469598103934665603ULL;
    for (const char c : s)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return h;
}

/**
 * 64-bit digest of a byte range, eight bytes at a time: the checksum
 * of every stored binary file (trace files). Byte-wise FNV-1a over a
 * 2 MB trace costs milliseconds; this takes four independent
 * xxHash64-style lanes (multiply, rotate, multiply), so the multiplies
 * overlap and 2 MB digests in about a tenth of one. Every step is a
 * bijection of its lane, so any change confined to one 8-byte word
 * always changes the digest. Not compatible with xxHash64.
 */
inline uint64_t
digest64(const void *data, size_t bytes)
{
    constexpr uint64_t k1 = 0x9e3779b185ebca87ULL;
    constexpr uint64_t k2 = 0xc2b2ae3d27d4eb4fULL;
    constexpr uint64_t k3 = 0x165667b19e3779f9ULL;
    auto round = [](uint64_t acc, uint64_t word) {
        const uint64_t x = acc + word * k2;
        return ((x << 31) | (x >> 33)) * k1;
    };
    auto load = [](const unsigned char *p) {
        uint64_t w;
        std::memcpy(&w, p, sizeof(w));
        return w;
    };
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t lane[4] = {k1 + k2, k2, 0, 0 - k1};
    size_t i = 0;
    for (; i + 32 <= bytes; i += 32) {
        for (int l = 0; l < 4; ++l)
            lane[l] = round(lane[l], load(p + i + 8 * l));
    }
    uint64_t h = bytes;
    for (const uint64_t v : lane)
        h = round(h, v);
    for (; i + 8 <= bytes; i += 8)
        h = round(h, load(p + i));
    for (; i < bytes; ++i)
        h = round(h, p[i]);
    h ^= h >> 33;
    h *= k2;
    h ^= h >> 29;
    h *= k3;
    return h ^ (h >> 32);
}

/**
 * xoshiro256** generator with convenience draws for the distributions
 * the workload models and the annealer need.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL)
    {
        uint64_t sm = seed;
        for (auto &word : state_)
            word = splitmix64(sm);
    }

    /** Next raw 64-bit draw. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t
    below(uint64_t n)
    {
        // Lemire's multiply-shift rejection-free variant is overkill
        // here; the simple multiply-high reduction has bias below
        // 2^-32 for the n we use (structure sizes, branch sites).
        return static_cast<uint64_t>(
            (static_cast<__uint128_t>(next()) * n) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(
            below(static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Geometric draw: number of failures before the first success with
     * success probability p; returns values in {0, 1, 2, ...}. Used for
     * dependence-distance and basic-block-length distributions.
     */
    uint64_t
    geometric(double p)
    {
        if (p >= 1.0)
            return 0;
        if (p <= 0.0)
            return 0; // degenerate; caller decides semantics
        double u = uniform();
        // Avoid log(0).
        if (u <= 0.0)
            u = 0x1.0p-53;
        return static_cast<uint64_t>(std::log(u) / std::log1p(-p));
    }

    /**
     * Bounded Zipf-like draw over [0, n): rank r is chosen with weight
     * 1/(r+1)^s via inverse-CDF on a two-piece approximation. Used to
     * model temporal locality of heap references (hot data dominates).
     */
    uint64_t
    zipf(uint64_t n, double s)
    {
        if (n <= 1)
            return 0;
        // Inverse-transform on the continuous analogue; accurate
        // enough for locality modelling and O(1) per draw.
        const double u = uniform();
        if (s == 1.0) {
            const double h = std::log(static_cast<double>(n));
            const uint64_t r =
                static_cast<uint64_t>(std::exp(u * h)) - 1;
            return r >= n ? n - 1 : r;
        }
        const double one_minus_s = 1.0 - s;
        const double nn = std::pow(static_cast<double>(n), one_minus_s);
        const double x = std::pow(u * (nn - 1.0) + 1.0, 1.0 / one_minus_s);
        uint64_t r = static_cast<uint64_t>(x) - 1;
        return r >= n ? n - 1 : r;
    }

    /** Standard normal draw (Box-Muller; one value per call). */
    double
    gaussian()
    {
        double u1 = uniform();
        if (u1 <= 0.0)
            u1 = 0x1.0p-53;
        const double u2 = uniform();
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(6.283185307179586 * u2);
    }

    /** Fork a child generator with an independent stream. */
    Rng
    fork(uint64_t stream)
    {
        return Rng(next() ^ (stream * 0x9e3779b97f4a7c15ULL));
    }

    /** The full 256-bit state, for checkpoint serialization. */
    std::array<uint64_t, 4>
    state() const
    {
        return {state_[0], state_[1], state_[2], state_[3]};
    }

    /** Restore a generator to a serialized state: the draw sequence
     *  continues bit-identically from where state() was taken. */
    void
    setState(const std::array<uint64_t, 4> &state)
    {
        for (int i = 0; i < 4; ++i)
            state_[i] = state[i];
    }

  private:
    static constexpr uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace xps

#endif // XPS_UTIL_RNG_HH
