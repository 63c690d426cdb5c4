// Save/load trained GCN models so benches can reuse pretrained classifiers
// instead of retraining per experiment.
//
// Models are gvexgcn-v2 sealed record files (common/io_util.h): a config
// record plus one CRC32-framed record per parameter tensor, with an end
// marker for truncation detection. Save is atomic (temp + rename) with
// retry on transient IO errors.
#pragma once

#include <iosfwd>
#include <string>

#include "gvex/common/result.h"
#include "gvex/gnn/model.h"

namespace gvex {

/// The config line that opens both gvexgcn-v2 and gvexgcnq-v1 models.
void WriteGcnConfig(const GcnConfig& config, std::ostream* out);
Status ReadGcnConfig(std::istream* in, GcnConfig* config);

class GcnSerializer {
 public:
  static Status Write(const GcnClassifier& model, std::ostream* out);
  static Result<GcnClassifier> Read(std::istream* in);

  static Status Save(const GcnClassifier& model, const std::string& path);
  static Result<GcnClassifier> Load(const std::string& path);
};

}  // namespace gvex
