"""Effect summaries: in-place escape analysis and kernel purity.

A fixpoint over the program computes, per function, which parameters it
writes through, which module globals it reassigns or mutates, and
whether everything it returns is freshly allocated. The summaries feed
two user-facing checks:

* **inplace-escape** — any write (direct, via ``out=``, via
  ``ufunc.at`` or via a callee's mutation summary) whose target
  resolves to caller-owned tensor storage or to an array already
  promoted onto the tape. Writes inside backward closures to captured
  forward arrays are the classic silent-corruption bug this exists to
  catch. Declared mutators (``index_add``'s ``out``) are exempt.
* **impure-kernel** — a public function of the kernels module with a
  non-empty undeclared effect set. Counted runs stay bit-identical to
  uncounted ones, and the test oracle stays substitutable for the
  planned kernels, only while every kernel is a pure function of its
  inputs; sanctioned exceptions (the counter slot, the plan memo) are
  declared in the contract table and anything else fails the check.

Method self-state is out of scope by design (``SegmentPlan.__init__``
building its own CSR arrays is not a side effect on callers), and only
*direct* global writes are charged to a function — ``count_kernels``
calling ``set_kernel_counters`` is the sanctioned indirection, not a
second offender.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.analysis.dataflow.contracts import ContractTable
from repro.analysis.dataflow.ir import (
    PARAM_STORE,
    TAPE,
    EscapeWrite,
    FromOpSite,
    FunctionInfo,
    Interp,
    Program,
    Summary,
)
from repro.analysis.findings import Finding, Severity

__all__ = ["AnalyzedProgram", "analyze_program", "escape_findings", "purity_findings"]

_MAX_FIXPOINT_PASSES = 5


@dataclasses.dataclass
class AnalyzedProgram:
    """Fixpoint result: summaries plus per-function interpreter facts."""

    program: Program
    summaries: dict[str, Summary]
    from_op_sites: list[FromOpSite]
    escape_writes: list[EscapeWrite]


def analyze_program(program: Program) -> AnalyzedProgram:
    """Run the interpreter to a summary fixpoint over every function."""
    summaries: dict[str, Summary] = {
        info.key: Summary() for info in program.functions()
    }
    sites: list[FromOpSite] = []
    writes: list[EscapeWrite] = []
    for _ in range(_MAX_FIXPOINT_PASSES):
        changed = False
        sites = []
        writes = []
        for module in program.modules.values():
            for info in module.functions.values():
                interp = Interp(info, module, program, summaries)
                interp.run()
                new_summary = interp.summary
                if info.is_method:
                    # Mutating self is a method's job; never propagate
                    # it to call sites as a parameter mutation.
                    new_summary.mutated_params.discard("self")
                if summaries[info.key] != new_summary:
                    summaries[info.key] = new_summary.copy()
                    changed = True
                sites.extend(interp.from_op_sites)
                writes.extend(interp.escape_writes)
        if not changed:
            break
    return AnalyzedProgram(
        program=program,
        summaries=summaries,
        from_op_sites=sites,
        escape_writes=writes,
    )


def _module_path(program: Program, module_name: str) -> str:
    module = program.modules.get(module_name)
    return module.path if module is not None else module_name


def escape_findings(
    analyzed: AnalyzedProgram, contracts: ContractTable
) -> Iterator[Finding]:
    for write in analyzed.escape_writes:
        function = write.function
        # The enclosing op owns declared-mutator exemptions; closures
        # inherit their enclosing function's contract key.
        key = function.key
        contract = contracts.get(key)
        base = write.target.split(".")[0].split("[")[0]
        if base in contract.mutates and not write.in_backward:
            continue
        where = "backward closure of " if write.in_backward else ""
        if write.storage == TAPE:
            detail = (
                "tape-held storage (promoted by _from_op); a recorded "
                "backward pass would read the corrupted values"
            )
        else:
            detail = (
                "caller-owned storage; the caller's tensor (and any tape "
                "node holding it) observes the mutation"
            )
        via = f" via {write.via_call}" if write.via_call else ""
        yield Finding(
            rule_id="inplace-escape",
            severity=Severity.ERROR,
            path=_module_path(analyzed.program, function.module),
            line=getattr(write.node, "lineno", 1),
            col=getattr(write.node, "col_offset", 0),
            message=(
                f"{where}{key}: write to {write.target!r}{via} reaches "
                f"{detail}; allocate a fresh array or declare "
                "mutates=(...) in its contract"
            ),
            symbol=key,
        )


def purity_findings(
    analyzed: AnalyzedProgram,
    contracts: ContractTable,
    kernel_module: str = "kernels",
) -> Iterator[Finding]:
    module = analyzed.program.modules.get(kernel_module)
    if module is None:
        return
    for info in module.public_functions():
        summary = analyzed.summaries.get(info.key)
        if summary is None:
            continue
        contract = contracts.get(info.key)
        undeclared_params = summary.mutated_params - set(contract.mutates)
        undeclared_globals = summary.global_writes - set(contract.globals)
        if undeclared_params:
            names = ", ".join(sorted(undeclared_params))
            yield _purity_finding(
                info,
                module.path,
                f"{info.key}: public kernel mutates parameter(s) {names}; "
                "kernels must be pure so counted runs stay bit-identical "
                "and the test oracle stays substitutable — return a fresh "
                "array or declare mutates=(...)",
            )
        if undeclared_globals:
            names = ", ".join(sorted(undeclared_globals))
            yield _purity_finding(
                info,
                module.path,
                f"{info.key}: public kernel writes module global(s) "
                f"{names}; declare globals=(...) in its contract if this "
                "state is part of the kernel API",
            )


def _purity_finding(info: FunctionInfo, path: str, message: str) -> Finding:
    return Finding(
        rule_id="impure-kernel",
        severity=Severity.ERROR,
        path=path,
        line=info.node.lineno,
        col=info.node.col_offset,
        message=message,
        symbol=info.key,
    )
