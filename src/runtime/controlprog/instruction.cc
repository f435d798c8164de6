#include "runtime/controlprog/instruction.h"

#include <sstream>

#include "obs/metrics.h"

namespace sysds {

Operand Operand::Var(std::string name, DataType dt, ValueType vt) {
  Operand op;
  op.name = std::move(name);
  op.dt = dt;
  op.vt = vt;
  return op;
}

Operand Operand::Literal(const LitValue& v) {
  Operand op;
  op.is_literal = true;
  op.lit = v;
  op.vt = v.vt;
  op.dt = DataType::kScalar;
  return op;
}

std::string Operand::ToString() const {
  std::ostringstream os;
  if (is_literal) {
    os << lit.AsString() << "\xc2\xb7LITERAL\xc2\xb7" << ValueTypeName(vt);
  } else {
    os << name << "\xc2\xb7" << DataTypeName(dt) << "\xc2\xb7"
       << ValueTypeName(vt);
  }
  return os.str();
}

std::string Instruction::ToString() const {
  std::ostringstream os;
  os << ExecTypeName(exec_type()) << "\xc2\xb0" << opcode_;
  for (const Operand& in : inputs_) os << "\xc2\xb0" << in.ToString();
  for (const Operand& out : outputs_) os << "\xc2\xb0" << out.ToString();
  return os.str();
}

obs::InstrStat* Instruction::Stat() const {
  obs::InstrStat* s = stat_.load(std::memory_order_acquire);
  if (s == nullptr) {
    // Racing resolvers get the same registry pointer; either store wins.
    s = obs::MetricsRegistry::Get().GetInstrStat(opcode_);
    stat_.store(s, std::memory_order_release);
  }
  return s;
}

}  // namespace sysds
