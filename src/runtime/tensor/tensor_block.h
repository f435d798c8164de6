#ifndef SYSDS_RUNTIME_TENSOR_TENSOR_BLOCK_H_
#define SYSDS_RUNTIME_TENSOR_TENSOR_BLOCK_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace sysds {

/// A homogeneous, linearized multi-dimensional array (paper §2.4,
/// BasicTensorBlock): a single value type out of FP32/FP64/INT32/INT64/
/// Bool/String, with dense storage. It is the block type of the
/// n-dimensional blocking scheme (blocking.h); no DML instruction produces
/// tensors.
///
/// Cell addressing is row-major over the dims vector.
class TensorBlock {
 public:
  TensorBlock() : value_type_(ValueType::kFP64) {}
  TensorBlock(std::vector<int64_t> dims, ValueType vt);

  const std::vector<int64_t>& Dims() const { return dims_; }
  int64_t NumDims() const { return static_cast<int64_t>(dims_.size()); }
  int64_t Dim(int64_t i) const { return dims_[static_cast<size_t>(i)]; }
  int64_t CellCount() const;
  ValueType GetValueType() const { return value_type_; }

  /// Linearizes a multi-dimensional index (row-major).
  int64_t LinearIndex(const std::vector<int64_t>& ix) const;

  // Typed cell access; Get/Set convert between the numeric storage types.
  double GetDouble(const std::vector<int64_t>& ix) const;
  void SetDouble(const std::vector<int64_t>& ix, double v);
  std::string GetString(const std::vector<int64_t>& ix) const;
  void SetString(const std::vector<int64_t>& ix, const std::string& v);

  double GetDoubleLinear(int64_t i) const;
  void SetDoubleLinear(int64_t i, double v);

  /// Slices a sub-tensor given inclusive 0-based lower/upper bounds per dim.
  StatusOr<TensorBlock> Slice(const std::vector<int64_t>& lower,
                              const std::vector<int64_t>& upper) const;

  bool EqualsApprox(const TensorBlock& other, double eps = 1e-9) const;

 private:
  std::vector<int64_t> dims_;
  ValueType value_type_;
  // One variant arm per supported value type (linearized dense storage).
  std::variant<std::vector<double>, std::vector<float>,
               std::vector<int64_t>, std::vector<int32_t>,
               std::vector<uint8_t>, std::vector<std::string>>
      data_;
};

}  // namespace sysds

#endif  // SYSDS_RUNTIME_TENSOR_TENSOR_BLOCK_H_
