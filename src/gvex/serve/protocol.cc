#include "gvex/serve/protocol.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "gvex/cluster/bundle.h"
#include "gvex/common/checksum.h"
#include "gvex/common/io_util.h"
#include "gvex/graph/graph_io.h"

namespace gvex {
namespace serve {

namespace {

constexpr const char* kReqMagic = "gvexserve-v1";
constexpr const char* kReqTag = "req";
constexpr const char* kRespTag = "resp";

// Free-form strings (error messages, stats JSON, ping payloads) are
// length-prefixed so arbitrary bytes survive the line-oriented body:
//   str <tag> <len>\n<len bytes>\n
void WriteBlob(std::ostream* out, const char* tag, const std::string& s) {
  (*out) << "str " << tag << " " << s.size() << "\n" << s << "\n";
}

Status ReadBlob(std::istream* in, const char* tag, std::string* out) {
  std::string kw, got_tag;
  size_t len = 0;
  if (!((*in) >> kw >> got_tag >> len) || kw != "str" || got_tag != tag) {
    return Status::IoError(std::string("bad blob header for ") + tag);
  }
  if (len > kMaxFrameBytes) {
    return Status::IoError("blob length exceeds frame cap");
  }
  in->get();  // the \n after the length
  out->resize(len);
  if (len > 0 && !in->read(out->data(), static_cast<std::streamsize>(len))) {
    return Status::IoError(std::string("short blob for ") + tag);
  }
  return Status::OK();
}

Status ExpectWord(std::istream* in, const char* want) {
  std::string got;
  if (!((*in) >> got) || got != want) {
    return Status::IoError(std::string("expected '") + want + "', got '" +
                           got + "'");
  }
  return Status::OK();
}

template <typename T>
Status ReadField(std::istream* in, const char* key, T* out) {
  GVEX_RETURN_NOT_OK(ExpectWord(in, key));
  if (!((*in) >> *out)) {
    return Status::IoError(std::string("bad value for ") + key);
  }
  return Status::OK();
}

}  // namespace

const char* RequestTypeName(RequestType type) {
  // Indexed by RequestType value; nullptr marks a retired number.
  static constexpr const char* kNames[] = {
      "ping", "support", "contains", "hits", "discriminative", "classify",
      "stats", "shutdown", "install", /*9*/ nullptr, "fetch", "health",
      /*12*/ nullptr, "coverage", /*14*/ nullptr, "ingest", "evaluate"};
  static_assert(std::size(kNames) == kRequestTypeLimit);
  const size_t i = static_cast<size_t>(type);
  return i < kRequestTypeLimit ? kNames[i] : nullptr;
}

Response ErrorResponse(const Request& req, const Status& status) {
  Response resp;
  resp.id = req.id;
  resp.code = status.code();
  resp.message = status.message();
  return resp;
}

const std::string& RouteOf(const Request& req) {
  static const std::string kDefault = cluster::kDefaultRoute;
  return req.route.empty() ? kDefault : req.route;
}

bool IsPatternQuery(RequestType type) {
  return type == RequestType::kSupport ||
         type == RequestType::kSubgraphsContaining ||
         type == RequestType::kFindHits;
}

Status ValidateRoute(const Request& req) {
  return req.route.empty() ? Status::OK() : cluster::CheckRouteName(req.route);
}

void RankCoverage(std::vector<ViewCoverage>* rows, uint32_t top_k) {
  std::sort(rows->begin(), rows->end(),
            [](const ViewCoverage& a, const ViewCoverage& b) {
              if (a.explainability != b.explainability) {
                return a.explainability > b.explainability;
              }
              return a.label < b.label;
            });
  if (top_k != 0 && rows->size() > top_k) rows->resize(top_k);
}

std::string EncodeRequestBody(const Request& req) {
  std::ostringstream out;
  SetMaxPrecision(&out);
  out << kReqMagic << " " << kReqTag << "\n";
  out << "type " << static_cast<int>(req.type) << "\n";
  out << "id " << req.id << "\n";
  out << "label " << req.label << "\n";
  out << "against " << req.against << "\n";
  out << "semantics " << (req.semantics == MatchSemantics::kInduced ? 1 : 0)
      << "\n";
  out << "deadline_ms " << req.deadline_ms << "\n";
  out << "max_embeddings " << req.max_embeddings << "\n";
  out << "graph_index " << req.graph_index << "\n";
  out << "top_k " << req.top_k << "\n";
  WriteBlob(&out, "text", req.text);
  WriteBlob(&out, "route", req.route);
  WriteBlob(&out, "bundle", req.bundle);
  out << "graph " << (req.has_graph ? 1 : 0) << "\n";
  if (req.has_graph) {
    (void)WriteGraph(req.graph, &out);  // ostringstream writes cannot fail
  }
  out << "end\n";
  return std::move(out).str();
}

Result<Request> DecodeRequestBody(const std::string& body) {
  std::istringstream in(body);
  GVEX_RETURN_NOT_OK(ExpectWord(&in, kReqMagic));
  GVEX_RETURN_NOT_OK(ExpectWord(&in, kReqTag));
  Request req;
  int type = 0, semantics = 0, has_graph = 0;
  GVEX_RETURN_NOT_OK(ReadField(&in, "type", &type));
  if (type < 0 || type >= static_cast<int>(kRequestTypeLimit) ||
      RequestTypeName(static_cast<RequestType>(type)) == nullptr) {
    return Status::InvalidArgument("unknown request type " +
                                   std::to_string(type));
  }
  req.type = static_cast<RequestType>(type);
  GVEX_RETURN_NOT_OK(ReadField(&in, "id", &req.id));
  GVEX_RETURN_NOT_OK(ReadField(&in, "label", &req.label));
  GVEX_RETURN_NOT_OK(ReadField(&in, "against", &req.against));
  GVEX_RETURN_NOT_OK(ReadField(&in, "semantics", &semantics));
  req.semantics =
      semantics != 0 ? MatchSemantics::kInduced : MatchSemantics::kSubgraph;
  GVEX_RETURN_NOT_OK(ReadField(&in, "deadline_ms", &req.deadline_ms));
  GVEX_RETURN_NOT_OK(ReadField(&in, "max_embeddings", &req.max_embeddings));
  GVEX_RETURN_NOT_OK(ReadField(&in, "graph_index", &req.graph_index));
  GVEX_RETURN_NOT_OK(ReadField(&in, "top_k", &req.top_k));
  GVEX_RETURN_NOT_OK(ReadBlob(&in, "text", &req.text));
  GVEX_RETURN_NOT_OK(ReadBlob(&in, "route", &req.route));
  GVEX_RETURN_NOT_OK(ReadBlob(&in, "bundle", &req.bundle));
  GVEX_RETURN_NOT_OK(ReadField(&in, "graph", &has_graph));
  req.has_graph = has_graph != 0;
  if (req.has_graph) {
    GVEX_ASSIGN_OR_RETURN(req.graph, ReadGraph(&in));
  }
  GVEX_RETURN_NOT_OK(ExpectWord(&in, "end"));
  return req;
}

std::string EncodeResponseBody(const Response& resp) {
  std::ostringstream out;
  SetMaxPrecision(&out);
  out << kReqMagic << " " << kRespTag << "\n";
  out << "id " << resp.id << "\n";
  out << "code " << static_cast<int>(resp.code) << "\n";
  WriteBlob(&out, "message", resp.message);
  out << "support " << resp.support << "\n";
  out << "predicted " << resp.predicted << "\n";
  out << "probs " << resp.probabilities.size();
  for (float p : resp.probabilities) out << " " << p;
  out << "\n";
  out << "indices " << resp.indices.size();
  for (uint64_t i : resp.indices) out << " " << i;
  out << "\n";
  out << "hits " << resp.hits.size();
  for (const auto& h : resp.hits) out << " " << h.graph_index << " "
                                      << h.embeddings;
  out << "\n";
  out << "patterns " << resp.patterns.size() << "\n";
  for (const Graph& p : resp.patterns) (void)WriteGraph(p, &out);
  // Route names are wire-inline words (validated [A-Za-z0-9_.-]); an
  // empty fingerprint rides as the sentinel "-".
  out << "routes " << resp.routes.size() << "\n";
  for (const RouteInfo& r : resp.routes) {
    out << r.route << " " << r.generation << " " << r.source_generation << " "
        << (r.fingerprint.empty() ? "-" : r.fingerprint) << " "
        << (r.warmed ? 1 : 0) << " " << r.warm_pairs << "\n";
  }
  WriteBlob(&out, "bundle", resp.bundle);
  WriteBlob(&out, "text", resp.text);
  // Health rides as one "health 0|1" flag plus fixed scalars and one
  // load row per route (route names are wire-inline words; the error
  // message is a blob since it carries free-form text).
  out << "health " << (resp.has_health ? 1 : 0) << "\n";
  if (resp.has_health) {
    const HealthInfo& h = resp.health;
    out << "hstate " << (h.serving ? 1 : 0) << " " << h.queue_depth << " "
        << h.max_queue << " " << h.workers << " " << (h.following ? 1 : 0)
        << " " << h.replication_installs << " " << h.replication_lag_polls
        << "\n";
    WriteBlob(&out, "herror", h.replication_error);
    out << "loads " << h.loads.size() << "\n";
    for (const RouteLoad& l : h.loads) {
      out << l.route << " " << l.queued << " " << l.active << " "
          << l.quota_depth << " " << l.quota_workers << " " << l.quota_shed
          << "\n";
    }
  }
  // Coverage rows: label, slice counts, explainability, then the
  // (possibly empty) covered-graph-id list, all wire-inline numbers.
  out << "coverage " << resp.coverage.size() << "\n";
  for (const ViewCoverage& c : resp.coverage) {
    out << c.label << " " << c.patterns << " " << c.subgraphs << " "
        << c.nodes << " " << c.edges << " " << c.explainability << " "
        << c.graph_indices.size();
    for (uint64_t gi : c.graph_indices) out << " " << gi;
    out << "\n";
  }
  // Live-ingest freshness rows (kHealth on an ingesting server). Appended
  // before the scatter/end tail per the v1 evolution rule instead of
  // widening the hstate row, which strict decoders pin.
  out << "ingest " << (resp.has_health && resp.health.ingesting ? 1 : 0)
      << "\n";
  if (resp.has_health && resp.health.ingesting) {
    const HealthInfo& h = resp.health;
    out << "istate " << h.ingest_pending << " " << h.ingest_accepted << " "
        << h.ingest_published << " " << h.ingest_drift_bp << " "
        << h.ingest_staleness_ms << "\n";
  }
  out << "scatter " << resp.shards_total << " " << resp.shards_answered
      << "\n";
  out << "end\n";
  return std::move(out).str();
}

Result<Response> DecodeResponseBody(const std::string& body) {
  std::istringstream in(body);
  GVEX_RETURN_NOT_OK(ExpectWord(&in, kReqMagic));
  GVEX_RETURN_NOT_OK(ExpectWord(&in, kRespTag));
  Response resp;
  int code = 0;
  GVEX_RETURN_NOT_OK(ReadField(&in, "id", &resp.id));
  GVEX_RETURN_NOT_OK(ReadField(&in, "code", &code));
  if (code < 0 || code > static_cast<int>(StatusCode::kEvaluationFailed)) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code));
  }
  resp.code = static_cast<StatusCode>(code);
  GVEX_RETURN_NOT_OK(ReadBlob(&in, "message", &resp.message));
  GVEX_RETURN_NOT_OK(ReadField(&in, "support", &resp.support));
  GVEX_RETURN_NOT_OK(ReadField(&in, "predicted", &resp.predicted));
  size_t n = 0;
  GVEX_RETURN_NOT_OK(ReadField(&in, "probs", &n));
  if (n > kMaxFrameBytes) return Status::IoError("probs count exceeds cap");
  resp.probabilities.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(in >> resp.probabilities[i])) {
      return Status::IoError("bad probability value");
    }
  }
  GVEX_RETURN_NOT_OK(ReadField(&in, "indices", &n));
  if (n > kMaxFrameBytes) return Status::IoError("indices count exceeds cap");
  resp.indices.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(in >> resp.indices[i])) return Status::IoError("bad index value");
  }
  GVEX_RETURN_NOT_OK(ReadField(&in, "hits", &n));
  if (n > kMaxFrameBytes) return Status::IoError("hits count exceeds cap");
  resp.hits.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(in >> resp.hits[i].graph_index >> resp.hits[i].embeddings)) {
      return Status::IoError("bad hit row");
    }
  }
  GVEX_RETURN_NOT_OK(ReadField(&in, "patterns", &n));
  if (n > kMaxFrameBytes) return Status::IoError("patterns count exceeds cap");
  resp.patterns.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    GVEX_ASSIGN_OR_RETURN(Graph p, ReadGraph(&in));
    resp.patterns.push_back(std::move(p));
  }
  GVEX_RETURN_NOT_OK(ReadField(&in, "routes", &n));
  if (n > kMaxFrameBytes) return Status::IoError("routes count exceeds cap");
  resp.routes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    RouteInfo& r = resp.routes[i];
    int warmed = 0;
    if (!(in >> r.route >> r.generation >> r.source_generation >>
          r.fingerprint >> warmed >> r.warm_pairs)) {
      return Status::IoError("bad route row");
    }
    if (r.fingerprint == "-") r.fingerprint.clear();
    r.warmed = warmed != 0;
  }
  GVEX_RETURN_NOT_OK(ReadBlob(&in, "bundle", &resp.bundle));
  GVEX_RETURN_NOT_OK(ReadBlob(&in, "text", &resp.text));
  int has_health = 0;
  GVEX_RETURN_NOT_OK(ReadField(&in, "health", &has_health));
  resp.has_health = has_health != 0;
  if (resp.has_health) {
    HealthInfo& h = resp.health;
    int serving = 0, following = 0;
    GVEX_RETURN_NOT_OK(ExpectWord(&in, "hstate"));
    if (!(in >> serving >> h.queue_depth >> h.max_queue >> h.workers >>
          following >> h.replication_installs >> h.replication_lag_polls)) {
      return Status::IoError("bad health state row");
    }
    h.serving = serving != 0;
    h.following = following != 0;
    GVEX_RETURN_NOT_OK(ReadBlob(&in, "herror", &h.replication_error));
    GVEX_RETURN_NOT_OK(ReadField(&in, "loads", &n));
    if (n > kMaxFrameBytes) return Status::IoError("loads count exceeds cap");
    h.loads.resize(n);
    for (size_t i = 0; i < n; ++i) {
      RouteLoad& l = h.loads[i];
      if (!(in >> l.route >> l.queued >> l.active >> l.quota_depth >>
            l.quota_workers >> l.quota_shed)) {
        return Status::IoError("bad health load row");
      }
    }
  }
  GVEX_RETURN_NOT_OK(ReadField(&in, "coverage", &n));
  if (n > kMaxFrameBytes) return Status::IoError("coverage count exceeds cap");
  resp.coverage.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ViewCoverage& c = resp.coverage[i];
    size_t gi_count = 0;
    if (!(in >> c.label >> c.patterns >> c.subgraphs >> c.nodes >> c.edges >>
          c.explainability >> gi_count)) {
      return Status::IoError("bad coverage row");
    }
    if (gi_count > kMaxFrameBytes) {
      return Status::IoError("coverage graph-id count exceeds cap");
    }
    c.graph_indices.resize(gi_count);
    for (size_t k = 0; k < gi_count; ++k) {
      if (!(in >> c.graph_indices[k])) {
        return Status::IoError("bad coverage graph id");
      }
    }
  }
  int ingesting = 0;
  GVEX_RETURN_NOT_OK(ReadField(&in, "ingest", &ingesting));
  if (ingesting != 0) {
    HealthInfo& h = resp.health;
    h.ingesting = true;
    GVEX_RETURN_NOT_OK(ExpectWord(&in, "istate"));
    if (!(in >> h.ingest_pending >> h.ingest_accepted >> h.ingest_published >>
          h.ingest_drift_bp >> h.ingest_staleness_ms)) {
      return Status::IoError("bad ingest state row");
    }
  }
  GVEX_RETURN_NOT_OK(ExpectWord(&in, "scatter"));
  if (!(in >> resp.shards_total >> resp.shards_answered)) {
    return Status::IoError("bad scatter row");
  }
  GVEX_RETURN_NOT_OK(ExpectWord(&in, "end"));
  return resp;
}

std::string FrameMessage(const std::string& body) {
  const uint32_t len = static_cast<uint32_t>(body.size());
  const uint32_t crc = Crc32(body);
  std::string out;
  out.reserve(8 + body.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  out += body;
  return out;
}

Result<uint32_t> ParseFrameHeader(const char header[8], uint32_t* crc_out) {
  uint32_t len = 0, crc = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<unsigned char>(header[i]))
           << (8 * i);
    crc |= static_cast<uint32_t>(static_cast<unsigned char>(header[4 + i]))
           << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    return Status::IoError("frame length " + std::to_string(len) +
                           " exceeds cap");
  }
  if (crc_out != nullptr) *crc_out = crc;
  return len;
}

Status VerifyFrameBody(const std::string& body, uint32_t expected_crc) {
  const uint32_t got = Crc32(body);
  if (got != expected_crc) {
    return Status::IoError("frame checksum mismatch (corrupt message)");
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace gvex
