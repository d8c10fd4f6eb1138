// The one JSON export path for observability dumps. examples/trace_dump
// and bench_tcp both emit the same {"metrics", "traces"} shape through this
// helper, so the format cannot drift between consumers
// (scripts/run_bench.sh and the CI artifact pipeline parse it).
#ifndef P2PDB_OBS_EXPORT_H_
#define P2PDB_OBS_EXPORT_H_

#include <string>

namespace p2pdb::obs {

class Registry;
class TraceCollector;

/// Writes the combined observability dump:
/// {"metrics": <Registry::ReportJson()>, "traces": <collector json or []>}.
/// `collector` may be null (no tracing: "traces" is an empty array).
/// Returns false (and logs) if the file cannot be written.
bool WriteObsJson(const std::string& path, Registry& registry,
                  const TraceCollector* collector);

}  // namespace p2pdb::obs

#endif  // P2PDB_OBS_EXPORT_H_
