#include "gvex/gnn/serialize.h"

#include <fstream>
#include <optional>

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"

namespace gvex {

namespace {
constexpr const char* kMagic = "gvexgcn-v2";

void WriteMatrix(const Matrix& m, std::ostream* out) {
  (*out) << m.rows() << " " << m.cols();
  for (size_t i = 0; i < m.size(); ++i) (*out) << " " << m.data()[i];
  (*out) << "\n";
}

bool ReadMatrix(std::istream* in, Matrix* m) {
  size_t rows = 0, cols = 0;
  if (!((*in) >> rows >> cols)) return false;
  *m = Matrix(rows, cols);
  for (size_t i = 0; i < m->size(); ++i) {
    if (!((*in) >> m->data()[i])) return false;
  }
  return true;
}

}  // namespace

void WriteGcnConfig(const GcnConfig& c, std::ostream* out) {
  (*out) << c.input_dim << " " << c.hidden_dim << " " << c.num_layers << " "
         << c.num_classes << " " << c.seed << " " << c.edge_type_weights.size();
  for (float w : c.edge_type_weights) (*out) << " " << w;
  (*out) << " " << static_cast<int>(c.propagation) << "\n";
}

Status ReadGcnConfig(std::istream* in, GcnConfig* config) {
  size_t num_edge_weights = 0;
  if (!((*in) >> config->input_dim >> config->hidden_dim >>
        config->num_layers >> config->num_classes >> config->seed >>
        num_edge_weights)) {
    return Status::IoError("bad model config");
  }
  config->edge_type_weights.resize(num_edge_weights);
  for (float& w : config->edge_type_weights) {
    if (!((*in) >> w)) return Status::IoError("bad edge weight");
  }
  int propagation = 0;
  if (!((*in) >> propagation) || propagation < 0 || propagation > 2) {
    return Status::IoError("bad propagation kind");
  }
  config->propagation = static_cast<Graph::PropagationKind>(propagation);
  return Status::OK();
}

Status GcnSerializer::Write(const GcnClassifier& model, std::ostream* out) {
  GVEX_FAILPOINT_RETURN("gnn.serialize.write");
  // Record 0 is the config line, then one record per parameter tensor.
  std::vector<const Matrix*> params = model.Parameters();
  return WriteRecordFile(out, kMagic, 1 + params.size(),
                         [&](size_t i, std::ostream* rec) {
                           if (i == 0) {
                             WriteGcnConfig(model.config(), rec);
                           } else {
                             WriteMatrix(*params[i - 1], rec);
                           }
                           return Status::OK();
                         });
}

Result<GcnClassifier> GcnSerializer::Read(std::istream* in) {
  GVEX_FAILPOINT_RETURN("gnn.serialize.read");
  std::optional<GcnClassifier> model;
  std::vector<Matrix*> params;
  GVEX_RETURN_NOT_OK(ReadRecordFile(
      in, kMagic, [&](size_t i, size_t n, std::istream* rec) -> Status {
        if (i == 0) {
          GcnConfig config;
          GVEX_RETURN_NOT_OK(ReadGcnConfig(rec, &config));
          GVEX_ASSIGN_OR_RETURN(GcnClassifier created,
                                GcnClassifier::Create(config));
          model.emplace(std::move(created));
          params = model->MutableParameters();
          if (params.size() != n - 1) {
            return Status::IoError("model tensor count mismatch");
          }
          return Status::OK();
        }
        Matrix* p = params[i - 1];
        Matrix loaded;
        if (!ReadMatrix(rec, &loaded)) {
          return Status::IoError("bad model tensor");
        }
        if (loaded.rows() != p->rows() || loaded.cols() != p->cols()) {
          return Status::IoError("model tensor shape mismatch");
        }
        *p = std::move(loaded);
        return Status::OK();
      }));
  if (!model) return Status::IoError(std::string(kMagic) + ": no records");
  return std::move(*model);
}

Status GcnSerializer::Save(const GcnClassifier& model,
                           const std::string& path) {
  return RetryIo([&] {
    return AtomicSave(
        path, [&](std::ostream* out) { return Write(model, out); });
  });
}

Result<GcnClassifier> GcnSerializer::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return Read(&in);
}

}  // namespace gvex
