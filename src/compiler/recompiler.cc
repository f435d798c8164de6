#include "compiler/recompiler.h"

#include "compiler/codegen.h"
#include "compiler/hop.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/controlprog/program.h"

namespace sysds {

Status RecompileBasicBlock(BasicBlock* block, ExecutionContext* ec) {
  if (block->HopRoots().empty()) return Status::Ok();
  SYSDS_SPAN("compiler", "recompile");
  static obs::Counter* const recompilations =
      obs::MetricsRegistry::Get().GetCounter("compiler.recompilations");
  recompilations->Add(1);

  for (Hop* hop : TopoOrder(block->HopRoots())) {
    if (hop->op() != HopOp::kTransientRead) continue;
    DataPtr d = ec->Vars().GetOrNull(hop->name());
    if (d == nullptr) continue;
    if (auto* m = dynamic_cast<MatrixObject*>(d.get())) {
      hop->set_dims(m->Rows(), m->Cols());
      hop->set_nnz(m->NonZeros());
    } else if (auto* f = dynamic_cast<FrameObject*>(d.get())) {
      hop->set_dims(f->Frame().Rows(), f->Frame().Cols());
    }
  }
  PropagateSizes(block->HopRoots());
  SYSDS_ASSIGN_OR_RETURN(
      std::vector<InstructionPtr> instructions,
      GenerateInstructions(block->HopRoots(), ec->Config()));
  block->Instructions() = std::move(instructions);
  return Status::Ok();
}

}  // namespace sysds
