#ifndef SYSDS_COMMON_TYPES_H_
#define SYSDS_COMMON_TYPES_H_

#include <cstdint>
#include <string>

namespace sysds {

/// Data types of language-level values (DML: matrix, frame, scalar, list).
/// kUnknown is used during compilation before validation resolves it.
enum class DataType {
  kScalar,
  kMatrix,
  kFrame,
  kList,
  kUnknown,
};

/// Value types of cell values. Matrices are FP64-valued; tensors and frame
/// columns support the full set (paper §2.4: FP32, FP64, INT32, INT64, Bool,
/// and String including JSON).
enum class ValueType {
  kFP64,
  kFP32,
  kInt64,
  kInt32,
  kBoolean,
  kString,
  kUnknown,
};

/// Where an operator executes (paper §2.3(4)): local control program (CP),
/// simulated distributed backend (SPARK), or federated sites (FED).
enum class ExecType {
  kCP,
  kSpark,
  kFed,
};

const char* DataTypeName(DataType dt);
const char* ValueTypeName(ValueType vt);
const char* ExecTypeName(ExecType et);

/// Size in bytes of one element of the given value type (8 for String as a
/// pointer-sized slot; actual string payloads are accounted separately).
int64_t ValueTypeSize(ValueType vt);

/// Parses "FP64"/"DOUBLE", "INT64"/"INT", "BOOLEAN", "STRING", ... Returns
/// kUnknown if unrecognized.
ValueType ParseValueType(const std::string& name);

}  // namespace sysds

#endif  // SYSDS_COMMON_TYPES_H_
