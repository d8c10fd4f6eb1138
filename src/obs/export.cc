#include "src/obs/export.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/file_util.h"
#include "src/util/logging.h"

namespace p2pdb::obs {

bool WriteObsJson(const std::string& path, Registry& registry,
                  const TraceCollector* collector) {
  std::string metrics = registry.ReportJson();
  // Indent the registry object two spaces so the combined file stays legible.
  std::string body = "{\n  \"metrics\": ";
  for (char c : metrics) {
    body += c;
    if (c == '\n') body += "  ";
  }
  while (!body.empty() && (body.back() == ' ' || body.back() == '\n')) {
    body.pop_back();
  }
  body += ",\n  \"traces\": ";
  body += collector != nullptr ? collector->ReportJson() : "[]";
  body += "\n}\n";

  Status written = WriteFile(path, body);
  if (!written.ok()) {
    P2PDB_LOG(kWarn) << "obs: " << written.message();
  }
  return written.ok();
}

}  // namespace p2pdb::obs
