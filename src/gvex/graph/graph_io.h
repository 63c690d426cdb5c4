// Plain-text serialization of graphs and graph databases, so generated
// datasets and explanation views can be saved, inspected, and reloaded.
//
// Databases are gvexdb-v2 sealed record files (common/io_util.h): one
// CRC32-framed section per "g <label> <name>" + graph record, and an end
// marker so truncation is detected. Save* goes through write-to-temp +
// rename (atomic) with retry on transient IO errors.
#pragma once

#include <iosfwd>
#include <string>

#include "gvex/common/result.h"
#include "gvex/graph/graph_db.h"

namespace gvex {

Status WriteDatabase(const GraphDatabase& db, std::ostream* out);
Status SaveDatabase(const GraphDatabase& db, const std::string& path);

Result<GraphDatabase> ReadDatabase(std::istream* in);
Result<GraphDatabase> LoadDatabase(const std::string& path);

/// Single-graph helpers (used for patterns / explanation subgraphs).
/// Graphs embedded inside container records are bare gvexgraph-v1 text;
/// integrity is provided by the enclosing section's CRC.
Status WriteGraph(const Graph& g, std::ostream* out);
Result<Graph> ReadGraph(std::istream* in);

}  // namespace gvex
