#include "runtime/tensor/tensor_block.h"

#include <cmath>
#include <sstream>

namespace sysds {

namespace {
int64_t Product(const std::vector<int64_t>& dims) {
  int64_t p = 1;
  for (int64_t d : dims) p *= d;
  return p;
}
}  // namespace

TensorBlock::TensorBlock(std::vector<int64_t> dims, ValueType vt)
    : dims_(std::move(dims)), value_type_(vt) {
  size_t n = static_cast<size_t>(Product(dims_));
  switch (vt) {
    case ValueType::kFP64: data_ = std::vector<double>(n, 0.0); break;
    case ValueType::kFP32: data_ = std::vector<float>(n, 0.0f); break;
    case ValueType::kInt64: data_ = std::vector<int64_t>(n, 0); break;
    case ValueType::kInt32: data_ = std::vector<int32_t>(n, 0); break;
    case ValueType::kBoolean: data_ = std::vector<uint8_t>(n, 0); break;
    case ValueType::kString: data_ = std::vector<std::string>(n); break;
    case ValueType::kUnknown:
      value_type_ = ValueType::kFP64;
      data_ = std::vector<double>(n, 0.0);
      break;
  }
}

int64_t TensorBlock::CellCount() const { return Product(dims_); }

int64_t TensorBlock::LinearIndex(const std::vector<int64_t>& ix) const {
  int64_t lin = 0;
  for (size_t d = 0; d < dims_.size(); ++d) {
    lin = lin * dims_[d] + ix[d];
  }
  return lin;
}

double TensorBlock::GetDoubleLinear(int64_t i) const {
  switch (value_type_) {
    case ValueType::kFP64: return std::get<std::vector<double>>(data_)[i];
    case ValueType::kFP32: return std::get<std::vector<float>>(data_)[i];
    case ValueType::kInt64:
      return static_cast<double>(std::get<std::vector<int64_t>>(data_)[i]);
    case ValueType::kInt32:
      return static_cast<double>(std::get<std::vector<int32_t>>(data_)[i]);
    case ValueType::kBoolean:
      return static_cast<double>(std::get<std::vector<uint8_t>>(data_)[i]);
    case ValueType::kString: {
      const std::string& s = std::get<std::vector<std::string>>(data_)[i];
      return s.empty() ? 0.0 : std::stod(s);
    }
    default: return 0.0;
  }
}

void TensorBlock::SetDoubleLinear(int64_t i, double v) {
  switch (value_type_) {
    case ValueType::kFP64: std::get<std::vector<double>>(data_)[i] = v; break;
    case ValueType::kFP32:
      std::get<std::vector<float>>(data_)[i] = static_cast<float>(v);
      break;
    case ValueType::kInt64:
      std::get<std::vector<int64_t>>(data_)[i] = static_cast<int64_t>(v);
      break;
    case ValueType::kInt32:
      std::get<std::vector<int32_t>>(data_)[i] = static_cast<int32_t>(v);
      break;
    case ValueType::kBoolean:
      std::get<std::vector<uint8_t>>(data_)[i] = (v != 0.0) ? 1 : 0;
      break;
    case ValueType::kString: {
      std::ostringstream os;
      os << v;
      std::get<std::vector<std::string>>(data_)[i] = os.str();
      break;
    }
    default: break;
  }
}

double TensorBlock::GetDouble(const std::vector<int64_t>& ix) const {
  return GetDoubleLinear(LinearIndex(ix));
}

void TensorBlock::SetDouble(const std::vector<int64_t>& ix, double v) {
  SetDoubleLinear(LinearIndex(ix), v);
}

std::string TensorBlock::GetString(const std::vector<int64_t>& ix) const {
  int64_t i = LinearIndex(ix);
  if (value_type_ == ValueType::kString) {
    return std::get<std::vector<std::string>>(data_)[i];
  }
  std::ostringstream os;
  os << GetDoubleLinear(i);
  return os.str();
}

void TensorBlock::SetString(const std::vector<int64_t>& ix,
                            const std::string& v) {
  int64_t i = LinearIndex(ix);
  if (value_type_ == ValueType::kString) {
    std::get<std::vector<std::string>>(data_)[i] = v;
  } else {
    SetDoubleLinear(i, v.empty() ? 0.0 : std::stod(v));
  }
}

StatusOr<TensorBlock> TensorBlock::Slice(
    const std::vector<int64_t>& lower,
    const std::vector<int64_t>& upper) const {
  if (lower.size() != dims_.size() || upper.size() != dims_.size()) {
    return InvalidArgument("tensor slice: bounds rank mismatch");
  }
  std::vector<int64_t> out_dims(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (lower[d] < 0 || upper[d] >= dims_[d] || lower[d] > upper[d]) {
      return OutOfRange("tensor slice out of bounds");
    }
    out_dims[d] = upper[d] - lower[d] + 1;
  }
  TensorBlock out(out_dims, value_type_);
  // Odometer iteration over the output cells.
  std::vector<int64_t> ix(dims_.size(), 0);
  int64_t n = out.CellCount();
  for (int64_t i = 0; i < n; ++i) {
    std::vector<int64_t> src(dims_.size());
    for (size_t d = 0; d < dims_.size(); ++d) src[d] = lower[d] + ix[d];
    if (value_type_ == ValueType::kString) {
      out.SetString(ix, GetString(src));
    } else {
      out.SetDouble(ix, GetDouble(src));
    }
    // Increment odometer.
    for (int64_t d = static_cast<int64_t>(dims_.size()) - 1; d >= 0; --d) {
      if (++ix[d] < out_dims[d]) break;
      ix[d] = 0;
    }
  }
  return out;
}

bool TensorBlock::EqualsApprox(const TensorBlock& other, double eps) const {
  if (dims_ != other.dims_) return false;
  int64_t n = CellCount();
  for (int64_t i = 0; i < n; ++i) {
    if (std::fabs(GetDoubleLinear(i) - other.GetDoubleLinear(i)) > eps) {
      return false;
    }
  }
  return true;
}

}  // namespace sysds
