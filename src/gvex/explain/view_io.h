// Serialization of explanation views, so generated views can be stored,
// shipped to analysts, and queried later without re-running the solvers
// (views are materialized structures — the database-views heritage of the
// paper).
//
// View sets are gvexviews-v2 sealed record files (common/io_util.h): one
// CRC32-framed section per view plus an end marker. SaveViewSet is atomic
// (temp + rename) and retries transient IO errors.
#pragma once

#include <iosfwd>
#include <string>

#include "gvex/common/result.h"
#include "gvex/explain/view.h"

namespace gvex {

Status WriteViewSet(const ExplanationViewSet& set, std::ostream* out);
Result<ExplanationViewSet> ReadViewSet(std::istream* in);

Status SaveViewSet(const ExplanationViewSet& set, const std::string& path);
Result<ExplanationViewSet> LoadViewSet(const std::string& path);

/// One "sub ..." record (node list + induced subgraph). Shared with the
/// checkpoint journal so a journaled subgraph restores bit-exactly.
Status WriteExplanationSubgraph(const ExplanationSubgraph& sub,
                                std::ostream* out);
Result<ExplanationSubgraph> ReadExplanationSubgraph(std::istream* in);

}  // namespace gvex
