#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "stats.hh"

namespace xpsbench
{

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

double
sum(const std::vector<double> &samples)
{
    double total = 0.0;
    for (const double x : samples)
        total += x;
    return total;
}

double
mean(const std::vector<double> &samples)
{
    return samples.empty()
               ? 0.0
               : sum(samples) / static_cast<double>(samples.size());
}

uint64_t
fnv1a(const std::string &s, uint64_t h)
{
    for (const char c : s)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return h;
}

std::string
exact(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

} // namespace xpsbench
