#include "gvex/ingest/journal.h"

#include <sstream>

#include "gvex/common/failpoint.h"
#include "gvex/explain/snapshot_io.h"
#include "gvex/graph/graph_io.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace ingest {

namespace {
constexpr const char* kMagic = "gvexingest-v1";
}  // namespace

Result<std::unique_ptr<IngestJournal>> IngestJournal::Open(
    const std::string& path, bool resume) {
  std::unique_ptr<IngestJournal> journal(new IngestJournal);
  journal->path_ = path;
  IngestReplay& replay = journal->replay_;
  GVEX_ASSIGN_OR_RETURN(
      journal->log_,
      AppendLog::Open(path, kMagic, resume, [&](std::istream* rec) -> Status {
        std::string tag;
        (*rec) >> tag;
        if (tag == "graph") {
          IngestRecord r;
          if (!((*rec) >> r.seq >> r.client_id >> r.label)) {
            return Status::IoError("malformed graph record");
          }
          GVEX_ASSIGN_OR_RETURN(r.graph, ReadGraph(rec));
          if (r.client_id != 0) replay.client_ids.insert(r.client_id);
          if (r.seq >= replay.next_seq) replay.next_seq = r.seq + 1;
          replay.graphs.push_back(std::move(r));
          return Status::OK();
        }
        if (tag == "ckpt") {
          uint64_t seq = 0;
          ClassLabel label = -1;
          if (!((*rec) >> seq >> label)) {
            return Status::IoError("malformed checkpoint record");
          }
          GVEX_ASSIGN_OR_RETURN(StreamGvexSnapshot snap,
                                ReadStreamSnapshot(rec));
          // Newest checkpoint per label wins (records are in seq order).
          replay.checkpoints[label] = {seq, std::move(snap)};
          return Status::OK();
        }
        return Status::IoError("unknown record '" + tag + "'");
      }));
  return journal;
}

Status IngestJournal::AppendGraph(uint64_t seq, uint64_t client_id,
                                  ClassLabel label, const Graph& g) {
  // Fires *before* any bytes reach the file: a simulated crash leaves the
  // journal valid, exactly like a real kill between records.
  GVEX_FAILPOINT_RETURN("ingest.journal_append");
  GVEX_COUNTER_INC("ingest.journal_appends");
  GVEX_LATENCY_US("ingest.journal_append_us");
  std::ostringstream rec;
  SetMaxPrecision(&rec);
  rec << "graph " << seq << " " << client_id << " " << label << "\n";
  GVEX_RETURN_NOT_OK(WriteGraph(g, &rec));
  std::lock_guard<std::mutex> lock(mu_);
  return log_.Append(rec.str());
}

Status IngestJournal::AppendCheckpoint(uint64_t seq, ClassLabel label,
                                       const StreamGvexSnapshot& snap) {
  GVEX_FAILPOINT_RETURN("ingest.journal_append");
  GVEX_COUNTER_INC("ingest.checkpoints");
  GVEX_LATENCY_US("ingest.checkpoint_us");
  std::ostringstream rec;
  SetMaxPrecision(&rec);
  rec << "ckpt " << seq << " " << label << "\n";
  GVEX_RETURN_NOT_OK(WriteStreamSnapshot(snap, &rec));
  std::lock_guard<std::mutex> lock(mu_);
  return log_.Append(rec.str());
}

}  // namespace ingest
}  // namespace gvex
