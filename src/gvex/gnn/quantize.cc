#include "gvex/gnn/quantize.h"

#include <cmath>
#include <cstring>

#include "gvex/common/io_util.h"
#include "gvex/gnn/serialize.h"

namespace gvex {

namespace {

constexpr const char* kMagic = "gvexgcnq-v1";

void WriteTensorRecord(const QuantizedTensor& t, std::ostream* rec) {
  (*rec) << t.rows << " " << t.cols;
  if (t.precision == WeightPrecision::kFp16) {
    for (uint16_t h : t.fp16) (*rec) << " " << h;
  } else {
    for (float s : t.scales) (*rec) << " " << s;
    for (int8_t q : t.int8) (*rec) << " " << static_cast<int>(q);
  }
  (*rec) << "\n";
}

Result<QuantizedTensor> ReadTensorRecord(std::istream* rec,
                                         WeightPrecision precision) {
  QuantizedTensor t;
  t.precision = precision;
  if (!((*rec) >> t.rows >> t.cols)) {
    return Status::IoError("bad quantized tensor shape");
  }
  const size_t count = t.rows * t.cols;
  if (t.precision == WeightPrecision::kFp16) {
    t.fp16.resize(count);
    for (uint16_t& h : t.fp16) {
      uint32_t v = 0;
      if (!((*rec) >> v) || v > 0xFFFFu) {
        return Status::IoError("bad fp16 tensor value");
      }
      h = static_cast<uint16_t>(v);
    }
    return t;
  }
  t.scales.resize(t.rows);
  for (float& s : t.scales) {
    if (!((*rec) >> s)) return Status::IoError("bad int8 tensor scale");
  }
  t.int8.resize(count);
  for (int8_t& q : t.int8) {
    int v = 0;
    if (!((*rec) >> v) || v < -128 || v > 127) {
      return Status::IoError("bad int8 tensor value");
    }
    q = static_cast<int8_t>(v);
  }
  return t;
}

}  // namespace

const char* WeightPrecisionName(WeightPrecision p) {
  switch (p) {
    case WeightPrecision::kFp32:
      return "fp32";
    case WeightPrecision::kFp16:
      return "fp16";
    case WeightPrecision::kInt8:
      return "int8";
  }
  return "fp32";
}

Result<WeightPrecision> ParseWeightPrecision(const std::string& name) {
  if (name == "fp32") return WeightPrecision::kFp32;
  if (name == "fp16") return WeightPrecision::kFp16;
  if (name == "int8") return WeightPrecision::kInt8;
  return Status::InvalidArgument("unknown weight precision '" + name +
                                 "' (want fp32|fp16|int8)");
}

uint16_t Fp32ToFp16(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint32_t sign = (bits >> 16) & 0x8000u;
  const uint32_t exp = (bits >> 23) & 0xFFu;
  uint32_t mant = bits & 0x7FFFFFu;
  if (exp == 0xFFu) {  // inf / NaN (keep NaN signaled via a mantissa bit)
    return static_cast<uint16_t>(
        sign | 0x7C00u | (mant != 0 ? 0x200u | (mant >> 13) : 0u));
  }
  const int half_exp = static_cast<int>(exp) - 127 + 15;
  if (half_exp >= 0x1F) return static_cast<uint16_t>(sign | 0x7C00u);  // ±inf
  if (half_exp <= 0) {
    // Subnormal half (or underflow to zero), round-to-nearest-even.
    if (half_exp < -10) return static_cast<uint16_t>(sign);
    mant |= 0x800000u;  // make the implicit bit explicit
    const uint32_t shift = static_cast<uint32_t>(14 - half_exp);  // 14..24
    uint32_t half_mant = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) ++half_mant;
    // A mantissa carry rolls into exponent 1 — exactly right.
    return static_cast<uint16_t>(sign | half_mant);
  }
  uint32_t half = sign | (static_cast<uint32_t>(half_exp) << 10) | (mant >> 13);
  const uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;  // RNE
  return static_cast<uint16_t>(half);  // carry into exp (or inf) is correct
}

float Fp16ToFp32(uint16_t half) {
  const uint32_t sign = static_cast<uint32_t>(half & 0x8000u) << 16;
  const uint32_t exp = (half >> 10) & 0x1Fu;
  const uint32_t mant = half & 0x3FFu;
  uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // ±0
    } else {
      // Subnormal: value = mant * 2^-24; normalize into fp32.
      int p = 31 - __builtin_clz(mant);  // highest set bit, 0..9
      bits = sign | (static_cast<uint32_t>(p + 103) << 23) |
             ((mant << (23 - p)) & 0x7FFFFFu);
    }
  } else if (exp == 0x1Fu) {
    bits = sign | 0x7F800000u | (mant << 13);
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

QuantizedTensor QuantizeTensor(const Matrix& m, WeightPrecision precision) {
  QuantizedTensor t;
  t.precision = precision;
  t.rows = m.rows();
  t.cols = m.cols();
  if (precision == WeightPrecision::kFp16) {
    t.fp16.reserve(m.size());
    for (size_t i = 0; i < m.size(); ++i) t.fp16.push_back(Fp32ToFp16(m.data()[i]));
    return t;
  }
  t.int8.resize(m.size());
  t.scales.resize(m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    float max_abs = 0.0f;
    const float* row = m.RowPtr(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      max_abs = std::max(max_abs, std::fabs(row[c]));
    }
    const float scale = max_abs / 127.0f;
    t.scales[r] = scale;
    for (size_t c = 0; c < m.cols(); ++c) {
      t.int8[r * m.cols() + c] =
          scale == 0.0f
              ? static_cast<int8_t>(0)
              : static_cast<int8_t>(std::lrintf(row[c] / scale));
    }
  }
  return t;
}

Matrix DequantizeTensor(const QuantizedTensor& t) {
  Matrix m(t.rows, t.cols);
  if (t.precision == WeightPrecision::kFp16) {
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] = Fp16ToFp32(t.fp16[i]);
    return m;
  }
  for (size_t r = 0; r < t.rows; ++r) {
    const float scale = t.scales[r];
    for (size_t c = 0; c < t.cols; ++c) {
      m.At(r, c) = static_cast<float>(t.int8[r * t.cols + c]) * scale;
    }
  }
  return m;
}

float QuantizationErrorBound(const QuantizedTensor& t) {
  if (t.precision != WeightPrecision::kInt8) return 0.0f;
  float bound = 0.0f;
  for (float s : t.scales) bound = std::max(bound, s * 0.5f);
  return bound;
}

Result<QuantizedModel> QuantizeModel(const GcnClassifier& model,
                                     WeightPrecision precision) {
  if (precision == WeightPrecision::kFp32) {
    return Status::InvalidArgument(
        "kFp32 is not a quantization target; ship the model verbatim");
  }
  QuantizedModel qm;
  qm.config = model.config();
  qm.precision = precision;
  for (const Matrix* p : model.Parameters()) {
    qm.tensors.push_back(QuantizeTensor(*p, precision));
  }
  return qm;
}

Result<GcnClassifier> DequantizeModel(const QuantizedModel& qm) {
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model, GcnClassifier::Create(qm.config));
  std::vector<Matrix*> params = model.MutableParameters();
  if (params.size() != qm.tensors.size()) {
    return Status::IoError("quantized tensor count mismatch");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix loaded = DequantizeTensor(qm.tensors[i]);
    if (loaded.rows() != params[i]->rows() ||
        loaded.cols() != params[i]->cols()) {
      return Status::IoError("quantized tensor shape mismatch");
    }
    *params[i] = std::move(loaded);
  }
  return model;
}

Status WriteQuantizedModel(const QuantizedModel& qm, std::ostream* out) {
  if (qm.precision == WeightPrecision::kFp32) {
    return Status::InvalidArgument("quantized payload cannot be fp32");
  }
  // Record 0 is the precision and config line, then one per tensor.
  return WriteRecordFile(out, kMagic, 1 + qm.tensors.size(),
                         [&](size_t i, std::ostream* rec) {
                           if (i == 0) {
                             (*rec) << WeightPrecisionName(qm.precision)
                                    << "\n";
                             WriteGcnConfig(qm.config, rec);
                           } else {
                             WriteTensorRecord(qm.tensors[i - 1], rec);
                           }
                           return Status::OK();
                         });
}

Result<QuantizedModel> ReadQuantizedModel(std::istream* in) {
  QuantizedModel qm;
  size_t records = 0;
  GVEX_RETURN_NOT_OK(ReadRecordFile(
      in, kMagic, [&](size_t i, size_t, std::istream* rec) -> Status {
        records = i + 1;
        if (i > 0) {
          GVEX_ASSIGN_OR_RETURN(QuantizedTensor t,
                                ReadTensorRecord(rec, qm.precision));
          qm.tensors.push_back(std::move(t));
          return Status::OK();
        }
        std::string precision_name;
        if (!((*rec) >> precision_name)) {
          return Status::IoError("bad quantized model precision");
        }
        GVEX_ASSIGN_OR_RETURN(qm.precision,
                              ParseWeightPrecision(precision_name));
        if (qm.precision == WeightPrecision::kFp32) {
          return Status::IoError("quantized payload declares fp32");
        }
        return ReadGcnConfig(rec, &qm.config);
      }));
  if (records == 0) {
    return Status::IoError(std::string(kMagic) + ": no records");
  }
  return qm;
}

}  // namespace gvex
