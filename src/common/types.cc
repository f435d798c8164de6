#include "common/types.h"

#include <algorithm>
#include <cctype>

namespace sysds {

const char* DataTypeName(DataType dt) {
  switch (dt) {
    case DataType::kScalar: return "SCALAR";
    case DataType::kMatrix: return "MATRIX";
    case DataType::kFrame: return "FRAME";
    case DataType::kList: return "LIST";
    case DataType::kUnknown: return "UNKNOWN";
  }
  return "UNKNOWN";
}

const char* ValueTypeName(ValueType vt) {
  switch (vt) {
    case ValueType::kFP64: return "FP64";
    case ValueType::kFP32: return "FP32";
    case ValueType::kInt64: return "INT64";
    case ValueType::kInt32: return "INT32";
    case ValueType::kBoolean: return "BOOLEAN";
    case ValueType::kString: return "STRING";
    case ValueType::kUnknown: return "UNKNOWN";
  }
  return "UNKNOWN";
}

const char* ExecTypeName(ExecType et) {
  switch (et) {
    case ExecType::kCP: return "CP";
    case ExecType::kSpark: return "SPARK";
    case ExecType::kFed: return "FED";
  }
  return "CP";
}

int64_t ValueTypeSize(ValueType vt) {
  switch (vt) {
    case ValueType::kFP64: return 8;
    case ValueType::kFP32: return 4;
    case ValueType::kInt64: return 8;
    case ValueType::kInt32: return 4;
    case ValueType::kBoolean: return 1;
    case ValueType::kString: return 8;
    case ValueType::kUnknown: return 8;
  }
  return 8;
}

ValueType ParseValueType(const std::string& name) {
  std::string up = name;
  std::transform(up.begin(), up.end(), up.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (up == "FP64" || up == "DOUBLE") return ValueType::kFP64;
  if (up == "FP32" || up == "FLOAT") return ValueType::kFP32;
  if (up == "INT64" || up == "INT" || up == "INTEGER") return ValueType::kInt64;
  if (up == "INT32") return ValueType::kInt32;
  if (up == "BOOLEAN" || up == "BOOL") return ValueType::kBoolean;
  if (up == "STRING" || up == "STR") return ValueType::kString;
  return ValueType::kUnknown;
}

}  // namespace sysds
