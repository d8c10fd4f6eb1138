// Full pipeline driver: load a network description, run discovery and the
// global update, optionally answer a query at a node and persist the
// materialized databases as snapshots.
//
//   ./run_update <network.p2p> [--super NODE] [--query NODE 'q(X) :- r(X)']
//                [--save-snapshots DIR] [--tcp]
#include <cstdio>
#include <cstring>
#include <memory>

#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"
#include "src/net/tcp_runtime.h"
#include "src/relational/snapshot.h"
#include "src/util/file_util.h"

using namespace p2pdb;  // NOLINT

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: run_update <network.p2p> [--super NODE]\n"
               "                  [--query NODE 'q(X) :- r(X)']\n"
               "                  [--save-snapshots DIR] [--tcp]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string text;
  if (Status read = ReadFile(argv[1], &text); !read.ok()) {
    std::fprintf(stderr, "%s\n", read.ToString().c_str());
    return 1;
  }

  std::string super_name;
  std::string query_node;
  std::string query_text;
  std::string snapshot_dir;
  bool use_tcp = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--super") == 0 && i + 1 < argc) {
      super_name = argv[++i];
    } else if (std::strcmp(argv[i], "--query") == 0 && i + 2 < argc) {
      query_node = argv[++i];
      query_text = argv[++i];
    } else if (std::strcmp(argv[i], "--save-snapshots") == 0 && i + 1 < argc) {
      snapshot_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--tcp") == 0) {
      use_tcp = true;
    } else {
      return Usage();
    }
  }

  auto system = lang::ParseSystem(text);
  if (!system.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<net::Runtime> runtime;
  if (use_tcp) {
    runtime = std::make_unique<net::TcpRuntime>();
  } else {
    runtime = std::make_unique<net::SimRuntime>();
  }

  core::Session::Options options;
  if (!super_name.empty()) {
    auto id = system->NodeByName(super_name);
    if (!id.ok()) {
      std::fprintf(stderr, "unknown super-peer %s\n", super_name.c_str());
      return 1;
    }
    options.super_peer = *id;
  }
  core::Session session(*system, runtime.get(), options);

  if (Status st = session.RunDiscovery(); !st.ok()) {
    std::fprintf(stderr, "discovery failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = session.RunUpdate(); !st.ok()) {
    std::fprintf(stderr, "update failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("%s", session.CollectStatistics().c_str());

  if (!query_node.empty()) {
    auto node = system->NodeByName(query_node);
    if (!node.ok()) {
      std::fprintf(stderr, "unknown node %s\n", query_node.c_str());
      return 1;
    }
    auto query = lang::ParseQuery(query_text);
    if (!query.ok()) {
      std::fprintf(stderr, "bad query: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    auto rows = session.peer(*node).LocalQuery(*query);
    if (!rows.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   rows.status().ToString().c_str());
      return 1;
    }
    std::printf("\n%s at %s: %zu rows\n", query_text.c_str(),
                query_node.c_str(), rows->size());
    for (const rel::Tuple& t : *rows) {
      std::printf("  %s\n", t.ToString().c_str());
    }
  }

  if (!snapshot_dir.empty()) {
    for (size_t n = 0; n < session.peer_count(); ++n) {
      std::string path =
          snapshot_dir + "/" + session.peer(n).name() + ".p2db";
      if (Status st = rel::SaveDatabase(session.peer(n).db(), path);
          !st.ok()) {
        std::fprintf(stderr, "snapshot failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    std::printf("\nsnapshots written to %s/*.p2db\n", snapshot_dir.c_str());
  }
  return 0;
}
