#include "gvex/graph/graph_io.h"

#include <fstream>

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"

namespace gvex {

namespace {
constexpr const char* kMagic = "gvexdb-v2";
constexpr const char* kGraphMagic = "gvexgraph-v1";
}  // namespace

Status WriteGraph(const Graph& g, std::ostream* out) {
  GVEX_FAILPOINT_RETURN("graph_io.write_graph");
  (*out) << kGraphMagic << "\n";
  (*out) << "meta " << g.num_nodes() << " " << g.num_edges() << " "
         << (g.directed() ? 1 : 0) << " "
         << (g.has_features() ? g.feature_dim() : 0) << "\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    (*out) << "n " << g.node_type(v);
    if (g.has_features()) {
      for (size_t c = 0; c < g.feature_dim(); ++c) {
        (*out) << " " << g.features().At(v, c);
      }
    }
    (*out) << "\n";
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const auto& nb : g.neighbors(u)) {
      if (!g.directed() && nb.node < u) continue;
      (*out) << "e " << u << " " << nb.node << " " << nb.edge_type << "\n";
    }
  }
  if (!out->good()) return Status::IoError("stream write failed");
  return Status::OK();
}

Result<Graph> ReadGraph(std::istream* in) {
  GVEX_FAILPOINT_RETURN("graph_io.read_graph");
  std::string magic;
  if (!((*in) >> magic) || magic != kGraphMagic) {
    return Status::IoError("bad graph magic");
  }
  std::string tag;
  size_t n = 0, m = 0, directed = 0, fdim = 0;
  if (!((*in) >> tag >> n >> m >> directed >> fdim) || tag != "meta") {
    return Status::IoError("bad graph meta line");
  }
  Graph g(directed != 0);
  Matrix feats(n, fdim);
  for (size_t i = 0; i < n; ++i) {
    NodeType type;
    if (!((*in) >> tag >> type) || tag != "n") {
      return Status::IoError("bad node line");
    }
    g.AddNode(type);
    for (size_t c = 0; c < fdim; ++c) {
      float v;
      if (!((*in) >> v)) return Status::IoError("bad feature value");
      feats.At(i, c) = v;
    }
  }
  for (size_t k = 0; k < m; ++k) {
    NodeId u, v;
    EdgeType et;
    if (!((*in) >> tag >> u >> v >> et) || tag != "e") {
      return Status::IoError("bad edge line");
    }
    GVEX_RETURN_NOT_OK(g.AddEdge(u, v, et));
  }
  if (fdim > 0) {
    GVEX_RETURN_NOT_OK(g.SetFeatures(std::move(feats)));
  }
  return g;
}

Status WriteDatabase(const GraphDatabase& db, std::ostream* out) {
  GVEX_FAILPOINT_RETURN("graph_io.write_db");
  return WriteRecordFile(
      out, kMagic, db.size(), [&](size_t i, std::ostream* rec) {
        (*rec) << "g " << db.label(i) << " "
               << (db.name(i).empty() ? "-" : db.name(i)) << "\n";
        return WriteGraph(db.graph(i), rec);
      });
}

Status SaveDatabase(const GraphDatabase& db, const std::string& path) {
  return RetryIo([&] {
    return AtomicSave(path,
                      [&](std::ostream* out) { return WriteDatabase(db, out); });
  });
}

Result<GraphDatabase> ReadDatabase(std::istream* in) {
  GVEX_FAILPOINT_RETURN("graph_io.read_db");
  GraphDatabase db;
  GVEX_RETURN_NOT_OK(ReadRecordFile(
      in, kMagic, [&](size_t, size_t, std::istream* rec) -> Status {
        std::string tag, name;
        ClassLabel label;
        if (!((*rec) >> tag >> label >> name) || tag != "g") {
          return Status::IoError("bad graph header");
        }
        GVEX_ASSIGN_OR_RETURN(Graph g, ReadGraph(rec));
        db.Add(std::move(g), label, name == "-" ? "" : name);
        return Status::OK();
      }));
  return db;
}

Result<GraphDatabase> LoadDatabase(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return ReadDatabase(&in);
}

}  // namespace gvex
