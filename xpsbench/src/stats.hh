/**
 * @file
 * Order statistics for latency samples.
 */

#ifndef XPSBENCH_STATS_HH
#define XPSBENCH_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace xpsbench
{

/**
 * The p-th percentile (p in [0, 100]) by linear interpolation between
 * the closest ranks: rank = p/100 * (n - 1) over the sorted samples.
 * 0 for an empty vector.
 */
double percentile(std::vector<double> samples, double p);

/** percentile(samples, 50). */
double median(std::vector<double> samples);

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &samples);

/** Sum of the samples. */
double sum(const std::vector<double> &samples);

/** 64-bit FNV-1a, for result digests. */
uint64_t fnv1a(const std::string &s, uint64_t h = 1469598103934665603ULL);

/** %.17g: the shortest format that round-trips a double exactly. */
std::string exact(double x);

} // namespace xpsbench

#endif // XPSBENCH_STATS_HH
