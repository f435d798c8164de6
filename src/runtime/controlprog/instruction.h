#ifndef SYSDS_RUNTIME_CONTROLPROG_INSTRUCTION_H_
#define SYSDS_RUNTIME_CONTROLPROG_INSTRUCTION_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "compiler/hop.h"

namespace sysds {

class ExecutionContext;
namespace obs {
struct InstrStat;
}  // namespace obs

/// A runtime instruction operand: either a symbol-table variable reference
/// or an inline literal (the textual form mirrors SystemDS's
/// name·DATATYPE·VALUETYPE operand encoding).
struct Operand {
  std::string name;
  DataType dt = DataType::kScalar;
  ValueType vt = ValueType::kFP64;
  bool is_literal = false;
  LitValue lit;

  static Operand Var(std::string name, DataType dt, ValueType vt);
  static Operand Literal(const LitValue& v);

  std::string ToString() const;
};

/// Base of all runtime instructions. A compiled basic block is a sequence
/// of instructions interpreted by the control program; each instruction
/// reads inputs from (and writes outputs to) the symbol table.
class Instruction {
 public:
  Instruction(std::string opcode, ExecType exec_type)
      : opcode_(std::move(opcode)), exec_type_(exec_type) {}
  virtual ~Instruction() = default;

  virtual Status Execute(ExecutionContext* ec) = 0;

  const std::string& opcode() const { return opcode_; }
  ExecType exec_type() const { return exec_type_; }

  const std::vector<Operand>& inputs() const { return inputs_; }
  const std::vector<Operand>& outputs() const { return outputs_; }
  void AddInput(Operand op) { inputs_.push_back(std::move(op)); }
  void AddOutput(Operand op) { outputs_.push_back(std::move(op)); }

  /// Whether lineage-based reuse may cache/serve this instruction's output
  /// (deterministic, side-effect free, matrix-producing).
  virtual bool IsReusable() const { return false; }

  std::string ToString() const;

  /// This opcode's timing slot in the metrics registry, resolved on first
  /// use and cached here (programs are shared by concurrent executors).
  obs::InstrStat* Stat() const;

 private:
  std::string opcode_;
  ExecType exec_type_;
  std::vector<Operand> inputs_;
  std::vector<Operand> outputs_;
  mutable std::atomic<obs::InstrStat*> stat_{nullptr};
};

using InstructionPtr = std::unique_ptr<Instruction>;

}  // namespace sysds

#endif  // SYSDS_RUNTIME_CONTROLPROG_INSTRUCTION_H_
