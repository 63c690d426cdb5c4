#include "gvex/cluster/bundle.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "gvex/common/checksum.h"
#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"
#include "gvex/explain/view_io.h"
#include "gvex/gnn/serialize.h"

namespace gvex {
namespace cluster {

namespace {

constexpr const char* kMagic = "gvexbundle-v1";
constexpr const char* kMagicV2 = "gvexbundle-v2";  // quantized model payload
constexpr const char* kEndTag = "gvexbundle-end";

// 64-bit content fingerprint: two CRC32 passes with distinct seeds over
// the same payload bytes. Not cryptographic — it guards replication
// bookkeeping against accidental divergence, while the per-section CRCs
// guard the bytes themselves.
std::string FingerprintOf(const std::string& views_bytes,
                          const std::string& model_bytes) {
  uint32_t hi = Crc32Update(0, views_bytes.data(), views_bytes.size());
  hi = Crc32Update(hi, model_bytes.data(), model_bytes.size());
  uint32_t lo = Crc32Update(0x67766578u /* "gvex" */, views_bytes.data(),
                            views_bytes.size());
  lo = Crc32Update(lo, model_bytes.data(), model_bytes.size());
  lo = Crc32Update(lo, &hi, sizeof(hi));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%08x%08x", hi, lo);
  return buf;
}

struct SerializedContent {
  std::string views;
  std::string model;  // empty when no model
};

Result<SerializedContent> SerializeContent(const ViewBundle& bundle) {
  SerializedContent content;
  std::ostringstream views_out;
  SetMaxPrecision(&views_out);
  GVEX_RETURN_NOT_OK(WriteViewSet(bundle.views, &views_out));
  content.views = std::move(views_out).str();
  // The quantized payload, when present, is the model of record: the
  // fingerprint covers its bytes, and the fp32 twin in `model` is never
  // re-serialized (re-quantizing it is not guaranteed byte-stable).
  if (bundle.qmodel != nullptr) {
    std::ostringstream model_out;
    GVEX_RETURN_NOT_OK(WriteQuantizedModel(*bundle.qmodel, &model_out));
    content.model = std::move(model_out).str();
  } else if (bundle.model != nullptr) {
    std::ostringstream model_out;
    SetMaxPrecision(&model_out);
    GVEX_RETURN_NOT_OK(GcnSerializer::Write(*bundle.model, &model_out));
    content.model = std::move(model_out).str();
  }
  return content;
}

}  // namespace

bool IsValidRouteName(const std::string& route) {
  if (route.empty() || route.size() > 64) return false;
  for (char c : route) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Status CheckRouteName(const std::string& route) {
  if (IsValidRouteName(route)) return Status::OK();
  return Status::InvalidArgument("invalid route name: '" + route +
                                 "' (want 1..64 chars of [A-Za-z0-9_.-])");
}

Result<std::string> BundleFingerprint(const ViewBundle& bundle) {
  GVEX_ASSIGN_OR_RETURN(SerializedContent content, SerializeContent(bundle));
  return FingerprintOf(content.views, content.model);
}

Status WriteBundle(const ViewBundle& bundle, std::ostream* out) {
  GVEX_RETURN_NOT_OK(CheckRouteName(bundle.route));
  const bool quantized = bundle.qmodel != nullptr;
  const bool has_model = quantized || bundle.model != nullptr;
  GVEX_ASSIGN_OR_RETURN(SerializedContent content, SerializeContent(bundle));
  SetMaxPrecision(out);
  (*out) << (quantized ? kMagicV2 : kMagic) << "\n";
  std::ostringstream header;
  header << "route " << bundle.route << "\n"
         << "generation " << bundle.generation << "\n"
         << "has_model " << (has_model ? 1 : 0) << "\n";
  if (quantized) {
    header << "precision " << WeightPrecisionName(bundle.qmodel->precision)
           << "\n";
  }
  header << "fingerprint " << FingerprintOf(content.views, content.model)
         << "\n";
  GVEX_RETURN_NOT_OK(WriteSection(out, header.str()));
  GVEX_RETURN_NOT_OK(WriteSection(out, content.views));
  if (has_model) {
    GVEX_RETURN_NOT_OK(WriteSection(out, content.model));
  }
  (*out) << kEndTag << "\n";
  if (!out->good()) return Status::IoError("bundle stream write failed");
  return Status::OK();
}

Result<ViewBundle> ReadBundle(std::istream* in) {
  GVEX_FAILPOINT_RETURN("cluster.bundle_read");
  std::string magic;
  if (!((*in) >> magic) || (magic != kMagic && magic != kMagicV2)) {
    return Status::IoError("bad bundle magic");
  }
  const bool v2 = magic == kMagicV2;
  GVEX_ASSIGN_OR_RETURN(std::string header, ReadSection(in));

  ViewBundle bundle;
  int has_model = 0;
  WeightPrecision precision = WeightPrecision::kFp32;
  std::string declared_fingerprint;
  {
    std::istringstream hin(header);
    std::string key;
    if (!(hin >> key >> bundle.route) || key != "route") {
      return Status::IoError("bad bundle header: route");
    }
    if (!(hin >> key >> bundle.generation) || key != "generation") {
      return Status::IoError("bad bundle header: generation");
    }
    if (!(hin >> key >> has_model) || key != "has_model" ||
        (has_model != 0 && has_model != 1)) {
      return Status::IoError("bad bundle header: has_model");
    }
    if (v2) {
      std::string precision_name;
      if (!(hin >> key >> precision_name) || key != "precision") {
        return Status::IoError("bad bundle header: precision");
      }
      GVEX_ASSIGN_OR_RETURN(precision, ParseWeightPrecision(precision_name));
      if (precision == WeightPrecision::kFp32 || has_model == 0) {
        return Status::IoError("v2 bundle must carry a quantized model");
      }
    }
    if (!(hin >> key >> declared_fingerprint) || key != "fingerprint" ||
        declared_fingerprint.size() != 16) {
      return Status::IoError("bad bundle header: fingerprint");
    }
  }
  if (!IsValidRouteName(bundle.route)) {
    return Status::IoError("bundle names invalid route '" + bundle.route + "'");
  }

  GVEX_ASSIGN_OR_RETURN(std::string views_bytes, ReadSection(in));
  std::string model_bytes;
  if (has_model != 0) {
    GVEX_ASSIGN_OR_RETURN(model_bytes, ReadSection(in));
  }
  std::string end_tag;
  if (!((*in) >> end_tag) || end_tag != kEndTag) {
    return Status::IoError("bundle end marker missing (truncated bundle?)");
  }
  // The header fingerprint binds the sections together: a bundle stitched
  // from sections of two different generations fails here even though
  // every individual section CRC passes.
  const std::string actual = FingerprintOf(views_bytes, model_bytes);
  if (actual != declared_fingerprint) {
    return Status::IoError("bundle fingerprint mismatch (declared " +
                           declared_fingerprint + ", content " + actual + ")");
  }
  bundle.fingerprint = actual;

  {
    std::istringstream vin(views_bytes);
    GVEX_ASSIGN_OR_RETURN(bundle.views, ReadViewSet(&vin));
  }
  if (has_model != 0) {
    std::istringstream min(model_bytes);
    if (v2) {
      // Keep the quantized payload verbatim (it is what the fingerprint
      // covers) and serve its dequantized fp32 twin.
      GVEX_ASSIGN_OR_RETURN(QuantizedModel qm, ReadQuantizedModel(&min));
      if (qm.precision != precision) {
        return Status::IoError("bundle precision disagrees with payload");
      }
      GVEX_ASSIGN_OR_RETURN(GcnClassifier model, DequantizeModel(qm));
      bundle.qmodel = std::make_shared<const QuantizedModel>(std::move(qm));
      bundle.model = std::make_shared<const GcnClassifier>(std::move(model));
    } else {
      GVEX_ASSIGN_OR_RETURN(GcnClassifier model, GcnSerializer::Read(&min));
      bundle.model = std::make_shared<const GcnClassifier>(std::move(model));
    }
  }
  return bundle;
}

Result<std::string> EncodeBundle(const ViewBundle& bundle) {
  std::ostringstream out;
  GVEX_RETURN_NOT_OK(WriteBundle(bundle, &out));
  return std::move(out).str();
}

Result<ViewBundle> DecodeBundle(const std::string& bytes) {
  std::istringstream in(bytes);
  return ReadBundle(&in);
}

Status SaveBundle(const ViewBundle& bundle, const std::string& path) {
  return RetryIo([&] {
    return AtomicSave(
        path, [&](std::ostream* out) { return WriteBundle(bundle, out); });
  });
}

Result<ViewBundle> LoadBundle(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return ReadBundle(&in);
}

}  // namespace cluster
}  // namespace gvex
