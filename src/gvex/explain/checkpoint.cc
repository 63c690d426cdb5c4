#include "gvex/explain/checkpoint.h"

#include <sstream>

#include "gvex/common/failpoint.h"
#include "gvex/explain/view_io.h"
#include "gvex/obs/obs.h"

namespace gvex {

namespace {
constexpr const char* kMagic = "gvexckpt-v2";
}  // namespace

Result<std::unique_ptr<ExplanationCheckpoint>> ExplanationCheckpoint::Open(
    const std::string& path, bool resume) {
  std::unique_ptr<ExplanationCheckpoint> ckpt(new ExplanationCheckpoint);
  ckpt->path_ = path;
  auto& records = ckpt->records_;
  GVEX_ASSIGN_OR_RETURN(
      ckpt->log_,
      AppendLog::Open(path, kMagic, resume, [&](std::istream* rec) -> Status {
        std::string tag;
        ClassLabel label;
        if (!((*rec) >> tag >> label) || tag != "rec") {
          return Status::IoError("malformed record");
        }
        GVEX_ASSIGN_OR_RETURN(ExplanationSubgraph sub,
                              ReadExplanationSubgraph(rec));
        const size_t gi = sub.graph_index;
        records[{label, gi}] = std::move(sub);
        return Status::OK();
      }));
  ckpt->loaded_count_ = records.size();
  return ckpt;
}

const ExplanationSubgraph* ExplanationCheckpoint::Find(
    ClassLabel label, size_t graph_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find({label, graph_index});
  return it == records_.end() ? nullptr : &it->second;
}

Status ExplanationCheckpoint::Append(ClassLabel label,
                                     const ExplanationSubgraph& sub) {
  // Fires *before* any bytes reach the file: a simulated crash leaves the
  // journal valid, exactly like a real kill between records.
  GVEX_FAILPOINT_RETURN("checkpoint.append");
  GVEX_COUNTER_INC("checkpoint.appends");
  GVEX_LATENCY_US("checkpoint.append_us");
  std::ostringstream rec;
  SetMaxPrecision(&rec);
  rec << "rec " << label << "\n";
  GVEX_RETURN_NOT_OK(WriteExplanationSubgraph(sub, &rec));

  std::lock_guard<std::mutex> lock(mu_);
  GVEX_RETURN_NOT_OK(log_.Append(rec.str()));
  records_[{label, sub.graph_index}] = sub;
  return Status::OK();
}

}  // namespace gvex
