// Hardened persistence primitives shared by every on-disk format:
//   - CRC-framed sections (length + checksum per record, so loaders detect
//     truncation and bit rot instead of mis-parsing),
//   - sealed record files (the envelope of the saved database, view set,
//     model and quantized model: magic, count, sections, end marker),
//   - append-only logs (the explanation checkpoint and the ingest WAL),
//   - atomic save (write-to-temp + rename: a crashed writer never leaves a
//     half-written file under the final name),
//   - retry with exponential backoff for transient IO errors.
#pragma once

#include <fstream>
#include <functional>
#include <iosfwd>
#include <string>

#include "gvex/common/result.h"

namespace gvex {

// ---- CRC-framed sections ----------------------------------------------------
//
// A section is "sec <byte-count> <crc32-hex>\n" followed by exactly
// <byte-count> payload bytes. Readers reject short reads (truncation) and
// checksum mismatches (corruption) with IoError before any payload parsing.

Status WriteSection(std::ostream* out, const std::string& payload);

/// Read one section; IoError on framing, truncation, or CRC mismatch.
Result<std::string> ReadSection(std::istream* in);

// ---- sealed record files --------------------------------------------------
//
//   <magic>\n<n>\n
//   sec ... (one section per record, n of them)
//   <end-tag> <n>\n
//
// The end tag is the magic with its "-v<N>" version replaced by "-end"
// ("gvexviews-v2" ends in "gvexviews-end"). The count and end marker catch
// a file truncated at a record boundary. Records stream through the
// callbacks one at a time, so at most one record payload is in memory.
// Errors name the magic: "gvexviews-v2: end marker missing (...)".

/// Serializes record `i` into `rec` (a fresh stream at max precision).
using RecordWriter = std::function<Status(size_t i, std::ostream* rec)>;
/// Parses record `i` of `n` from `rec` (that record's payload alone).
using RecordReader =
    std::function<Status(size_t i, size_t n, std::istream* rec)>;

Status WriteRecordFile(std::ostream* out, const std::string& magic, size_t n,
                       const RecordWriter& write_record);
Status ReadRecordFile(std::istream* in, const std::string& magic,
                      const RecordReader& read_record);

// ---- append-only logs ------------------------------------------------------
//
// "<magic>\n" followed by sections appended one at a time, each flushed
// before Append returns. A crash mid-append leaves a torn tail; Open with
// `resume` replays the valid prefix and cuts the torn tail off the file, so
// later appends extend the valid prefix instead of hiding behind the tear.

class AppendLog {
 public:
  /// Parses one replayed record. A non-OK status ends replay: that record
  /// and everything after it are treated as the torn tail.
  using Replayer = std::function<Status(std::istream* rec)>;

  /// Without `resume`, or if `path` does not exist, starts a fresh log
  /// (truncating any existing file). With `resume`, a file whose first line
  /// is not `magic` is an IoError; otherwise its records replay in order and
  /// a torn tail is dropped with a Warning naming the dropped byte count.
  static Result<AppendLog> Open(const std::string& path,
                                const std::string& magic, bool resume,
                                const Replayer& replay);

  /// Frame `payload` as one section and flush it. Fails closed: an error
  /// means the caller must not treat the record as durable.
  Status Append(const std::string& payload);

 private:
  std::string path_;
  std::ofstream out_;
};

// ---- atomic save ------------------------------------------------------------

/// Serialize via `writer` into `path + ".tmp"`, then rename over `path`.
/// The temp file is removed on any failure; readers of `path` never see a
/// partial write. Streams handed to `writer` have max round-trip float
/// precision set.
Status AtomicSave(const std::string& path,
                  const std::function<Status(std::ostream*)>& writer);

// ---- retry ------------------------------------------------------------------

struct RetryOptions {
  int max_attempts = 3;
  int base_delay_ms = 1;  ///< doubles per attempt: 1ms, 2ms, 4ms, ...
};

/// Run `op`, retrying on kIoError with exponential backoff. Other error
/// codes (and success) return immediately.
Status RetryIo(const std::function<Status()>& op,
               const RetryOptions& options = RetryOptions());

/// Round-trip-exact printing for the text formats ('%.17g' territory);
/// applied to every v2 writer stream so checkpointed doubles restore to
/// the same bits and resumed runs serialize byte-identically.
void SetMaxPrecision(std::ostream* out);

}  // namespace gvex
