#include "gvex/common/io_util.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <thread>

#include "gvex/common/checksum.h"
#include "gvex/common/failpoint.h"
#include "gvex/common/logging.h"
#include "gvex/common/string_util.h"

namespace gvex {

Status WriteSection(std::ostream* out, const std::string& payload) {
  (*out) << "sec " << payload.size() << " "
         << StrFormat("%08x", Crc32(payload)) << "\n";
  out->write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out->good()) return Status::IoError("section write failed");
  return Status::OK();
}

Result<std::string> ReadSection(std::istream* in) {
  std::string tag, crc_hex;
  size_t nbytes = 0;
  if (!((*in) >> tag >> nbytes >> crc_hex) || tag != "sec") {
    return Status::IoError("bad section frame");
  }
  if (crc_hex.size() != 8 ||
      crc_hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return Status::IoError("bad section checksum field");
  }
  if (in->get() != '\n') return Status::IoError("bad section frame");
  std::string payload(nbytes, '\0');
  in->read(payload.data(), static_cast<std::streamsize>(nbytes));
  if (static_cast<size_t>(in->gcount()) != nbytes) {
    return Status::IoError("section truncated");
  }
  uint32_t expected =
      static_cast<uint32_t>(std::strtoul(crc_hex.c_str(), nullptr, 16));
  if (Crc32(payload) != expected) {
    return Status::IoError("section checksum mismatch");
  }
  return payload;
}

namespace {

// "gvexviews-v2" -> "gvexviews-end".
std::string EndTag(const std::string& magic) {
  return magic.substr(0, magic.rfind("-v")) + "-end";
}

// Prefix a record-file error with the format and record it came from.
Status InRecord(const std::string& magic, size_t i, const Status& st) {
  return Status(st.code(), magic + ": record " + std::to_string(i) + ": " +
                               st.message());
}

}  // namespace

Status WriteRecordFile(std::ostream* out, const std::string& magic, size_t n,
                       const RecordWriter& write_record) {
  SetMaxPrecision(out);
  (*out) << magic << "\n" << n << "\n";
  for (size_t i = 0; i < n; ++i) {
    std::ostringstream rec;
    SetMaxPrecision(&rec);
    GVEX_RETURN_NOT_OK(write_record(i, &rec));
    GVEX_RETURN_NOT_OK(WriteSection(out, rec.str()));
  }
  (*out) << EndTag(magic) << " " << n << "\n";
  if (!out->good()) return Status::IoError(magic + ": stream write failed");
  return Status::OK();
}

Status ReadRecordFile(std::istream* in, const std::string& magic,
                      const RecordReader& read_record) {
  std::string got;
  if (!((*in) >> got) || got != magic) {
    return Status::IoError(magic + ": bad magic");
  }
  size_t n = 0;
  if (!((*in) >> n)) return Status::IoError(magic + ": bad record count");
  for (size_t i = 0; i < n; ++i) {
    Result<std::string> payload = ReadSection(in);
    if (!payload.ok()) return InRecord(magic, i, payload.status());
    std::istringstream rec(*payload);
    Status st = read_record(i, n, &rec);
    if (!st.ok()) return InRecord(magic, i, st);
  }
  std::string tag;
  size_t n_end = 0;
  if (!((*in) >> tag >> n_end) || tag != EndTag(magic) || n_end != n) {
    return Status::IoError(magic + ": end marker missing (truncated file?)");
  }
  return Status::OK();
}

Result<AppendLog> AppendLog::Open(const std::string& path,
                                  const std::string& magic, bool resume,
                                  const Replayer& replay) {
  AppendLog log;
  log.path_ = path;
  bool fresh = true;
  if (resume) {
    std::ifstream in(path);
    if (in.is_open()) {
      std::string line;
      if (!std::getline(in, line) || line != magic) {
        return Status::IoError(magic + " log " + path + " has a bad magic");
      }
      // A header torn before its newline holds no records: rewrite it.
      fresh = in.eof();
      std::streamoff valid_end = in.tellg();
      size_t records = 0;
      Status tail;
      while (!fresh && in.peek() != std::char_traits<char>::eof()) {
        Result<std::string> payload = ReadSection(&in);
        if (payload.ok()) {
          std::istringstream rec(*payload);
          tail = replay(&rec);
        } else {
          tail = payload.status();
        }
        if (!tail.ok()) break;
        valid_end = in.tellg();
        ++records;
      }
      in.close();
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(path, ec);
      if (!fresh && !ec && size > static_cast<std::uintmax_t>(valid_end)) {
        GVEX_LOG(Warning) << magic << " log " << path << ": dropping a "
                          << (size - valid_end) << "-byte torn tail ("
                          << tail.ToString() << ") after " << records
                          << " records";
        std::filesystem::resize_file(path, valid_end, ec);
      }
      if (ec) {
        return Status::IoError("cannot trim torn tail of " + path + ": " +
                               ec.message());
      }
    }
  }
  log.out_.open(path, fresh ? std::ios::out | std::ios::trunc
                            : std::ios::out | std::ios::app);
  if (!log.out_.is_open()) return Status::IoError("cannot open " + path);
  if (fresh) {
    log.out_ << magic << "\n";
    log.out_.flush();
    if (!log.out_.good()) {
      return Status::IoError("cannot initialize " + magic + " log " + path);
    }
  }
  return log;
}

Status AppendLog::Append(const std::string& payload) {
  GVEX_RETURN_NOT_OK(WriteSection(&out_, payload));
  out_.flush();
  if (!out_.good()) {
    return Status::IoError("append to " + path_ + " failed");
  }
  return Status::OK();
}

void SetMaxPrecision(std::ostream* out) {
  out->precision(std::numeric_limits<double>::max_digits10);
}

Status AtomicSave(const std::string& path,
                  const std::function<Status(std::ostream*)>& writer) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return Status::IoError("cannot open " + tmp);
    SetMaxPrecision(&out);
    Status st = writer(&out);
    if (st.ok()) {
      out.flush();
      if (!out.good()) st = Status::IoError("flush failed for " + tmp);
    }
    if (!st.ok()) {
      out.close();
      std::remove(tmp.c_str());
      return st;
    }
  }
  // Crash window under test: an armed "io.atomic_rename" failpoint models
  // dying after the temp file is complete but before the commit rename.
  if (failpoint::AnyArmed()) {
    Status st = failpoint::Check("io.atomic_rename");
    if (!st.ok()) {
      std::remove(tmp.c_str());
      return st;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename to " + path + " failed");
  }
  return Status::OK();
}

Status RetryIo(const std::function<Status()>& op, const RetryOptions& options) {
  Status st;
  int delay_ms = options.base_delay_ms;
  for (int attempt = 1;; ++attempt) {
    st = op();
    if (st.ok() || st.code() != StatusCode::kIoError ||
        attempt >= options.max_attempts) {
      return st;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    delay_ms *= 2;
  }
}

}  // namespace gvex
