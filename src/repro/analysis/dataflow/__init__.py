"""Interprocedural dataflow analysis over the autograd layer.

``repro check`` runs four semantic analyses the single-file syntactic
linter cannot express (see DESIGN section 9):

* **VJP completeness** (:mod:`.vjp`) — every ``Tensor._from_op`` site
  returns one gradient per parent on every control-flow path, and a
  gradient is only ever ``None`` under a ``requires_grad`` guard or a
  declared non-differentiable contract.
* **closure-capture weight** (:mod:`.captures`) — what each backward
  closure keeps alive, classified (parent / output / view / index /
  scalar / derived full array), with derived full arrays gated by the
  contract table in :mod:`repro.autograd.contracts`.
* **in-place escape** (:mod:`.effects`) — interprocedural tracking of
  writes that can reach tape-held storage (parameter arrays, parent
  ``.data``, arrays already promoted onto the tape).
* **kernel purity** (:mod:`.effects`) — public kernel entry points
  neither mutate their inputs nor write module globals, so counted
  runs stay bit-identical and the test oracle stays substitutable.

:func:`check_paths` is the façade the CLI and the tier-1 self-check
test call; it reuses the PR-1 finding/result machinery so text/JSON
reporting, sorting and severity accounting come for free.
"""

from repro.analysis.dataflow.checker import (
    CheckResult,
    check_paths,
    load_baseline,
)
from repro.analysis.dataflow.contracts import ContractTable, load_contracts
from repro.analysis.dataflow.ir import FunctionInfo, ModuleInfo, Program

__all__ = [
    "CheckResult",
    "check_paths",
    "load_baseline",
    "ContractTable",
    "load_contracts",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
]
