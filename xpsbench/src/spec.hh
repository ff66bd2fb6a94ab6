/**
 * @file
 * The benchmark's metric table — the single source of the names,
 * units and directions that BENCHMARK.json lists — and the result
 * line every run ends with.
 */

#ifndef XPSBENCH_SPEC_HH
#define XPSBENCH_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"

namespace xpsbench
{

struct MetricSpec
{
    std::string name;
    std::string unit;
    std::string better; ///< "lower" or "higher"
};

/** Metrics of an untraced run (--trace 0), every workload. */
const std::vector<MetricSpec> &endToEndSpec();

/** Metrics of a traced run (--trace 1), every workload. */
const std::vector<MetricSpec> &perLayerSpec();

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * The final stdout line: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}} over exactly the metrics of
 * `spec`. Returns "" (and names the gap in `error`) when `values`
 * lacks a metric of the spec or holds one the spec does not list.
 */
std::string resultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricMap &values,
                       const std::vector<MetricSpec> &spec,
                       std::string &error);

} // namespace xpsbench

#endif // XPSBENCH_SPEC_HH
