#include "src/daemon/config.h"

#include <cstdint>
#include <sstream>

#include "src/lang/printer.h"
#include "src/util/crc32.h"
#include "src/util/file_util.h"
#include "src/util/string_util.h"

namespace p2pdb::daemon {

namespace {

Result<NodeId> ParseNodeId(const std::string& text) {
  if (text.empty()) return Status::ParseError("empty node id");
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::ParseError("bad node id '" + text + "'");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value >= kNoNode) return Status::ParseError("node id out of range");
  }
  return static_cast<NodeId>(value);
}

}  // namespace

uint32_t SystemDigest(const core::P2PSystem& system) {
  const std::string text = lang::PrintSystem(system);
  return Crc32(reinterpret_cast<const uint8_t*>(text.data()), text.size());
}

Result<PeerdConfig> PeerdConfig::Parse(const std::string& text) {
  PeerdConfig out;
  bool have_node = false, have_name = false, have_listen = false;
  std::istringstream lines(text);
  std::string line;
  size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;  // Blank or comment-only line.
    auto fail = [&](const std::string& why) {
      return Status::ParseError("config line " + std::to_string(lineno) +
                                ": " + why);
    };
    if (key == "node" || key == "super_peer") {
      std::string value;
      if (!(fields >> value)) return fail("missing value for " + key);
      auto id = ParseNodeId(value);
      if (!id.ok()) return fail(id.status().message());
      if (key == "node") {
        out.node = *id;
        have_node = true;
      } else {
        out.super_peer = *id;
      }
    } else if (key == "name" || key == "system" || key == "data_dir" ||
               key == "pid_file" || key == "obs_json") {
      std::string value;
      if (!(fields >> value)) return fail("missing value for " + key);
      if (key == "name") {
        out.name = value;
        have_name = true;
      } else if (key == "system") {
        out.system_file = value;
      } else if (key == "data_dir") {
        out.data_dir = value;
      } else if (key == "pid_file") {
        out.pid_file = value;
      } else {
        out.obs_json = value;
      }
    } else if (key == "listen") {
      std::string value;
      if (!(fields >> value)) return fail("missing value for listen");
      auto endpoint = net::TcpRuntime::Endpoint::Parse(value);
      if (!endpoint.ok()) return fail(endpoint.status().message());
      out.listen = *endpoint;
      have_listen = true;
    } else if (key == "sync") {
      std::string value;
      if (!(fields >> value)) return fail("missing value for sync");
      if (value == "nosync") {
        out.no_sync = true;
      } else if (value == "full") {
        out.no_sync = false;
      } else {
        return fail("sync must be 'full' or 'nosync', got '" + value + "'");
      }
    } else if (key == "peer") {
      std::string id_text, endpoint_text;
      if (!(fields >> id_text >> endpoint_text)) {
        return fail("peer rows are 'peer <node> <host:port>'");
      }
      auto id = ParseNodeId(id_text);
      if (!id.ok()) return fail(id.status().message());
      auto endpoint = net::TcpRuntime::Endpoint::Parse(endpoint_text);
      if (!endpoint.ok()) return fail(endpoint.status().message());
      out.peers.push_back({*id, endpoint->host, endpoint->port});
    } else {
      return fail("unknown key '" + key + "'");
    }
    std::string extra;
    if (fields >> extra) return fail("trailing token '" + extra + "'");
  }
  if (!have_node) return Status::ParseError("config is missing 'node'");
  if (!have_name) return Status::ParseError("config is missing 'name'");
  if (!have_listen) return Status::ParseError("config is missing 'listen'");
  if (out.system_file.empty()) {
    return Status::ParseError("config is missing 'system'");
  }
  return out;
}

Result<PeerdConfig> PeerdConfig::Load(const std::string& path) {
  std::string text;
  P2PDB_RETURN_IF_ERROR(ReadFile(path, &text));
  return Parse(text);
}

std::string PeerdConfig::ToString() const {
  std::string out;
  out += "node " + std::to_string(node) + "\n";
  out += "name " + name + "\n";
  out += "listen " + listen.ToString() + "\n";
  out += "system " + system_file + "\n";
  if (!data_dir.empty()) out += "data_dir " + data_dir + "\n";
  if (!pid_file.empty()) out += "pid_file " + pid_file + "\n";
  if (!obs_json.empty()) out += "obs_json " + obs_json + "\n";
  out += "super_peer " + std::to_string(super_peer) + "\n";
  if (no_sync) out += "sync nosync\n";
  for (const EndpointEntry& e : peers) {
    out += "peer " + std::to_string(e.node) + " " + e.host + ":" +
           std::to_string(e.port) + "\n";
  }
  return out;
}

}  // namespace p2pdb::daemon
