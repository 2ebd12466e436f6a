"""Declared autograd contracts: the exceptions the static checker honours.

``repro check`` (:mod:`repro.analysis.dataflow`) proves four properties
over this package — VJP completeness, closure-capture weight, in-place
escape, kernel purity. Real code has a handful of *intentional*
deviations: ``index_add`` mutates its ``out`` argument by design,
``relu`` retains its activation mask because recomputing it would cost
a full forward read, ``set_kernel_counters`` exists to swap a module
global.
Those exceptions are declared here, in one reviewable place, instead of
being sprinkled as inline suppressions.

Two declaration forms, both read *statically* by the checker (no import
of this package is needed to analyze it):

* the :data:`CONTRACTS` table — a pure literal dict, keyed by
  ``"<module>.<qualname>"`` relative to ``repro.autograd`` (e.g.
  ``"functional.relu"``, ``"kernels.index_add"``). Values are literal
  dicts with any of the keys below.
* the :func:`contract` decorator — attaches the same keys directly to a
  function definition. Preferred for new code; the checker reads the
  decorator's keyword literals off the AST. At runtime it only sets an
  attribute, so decorated hot functions pay nothing per call.

Contract keys
-------------
``retains``
    Tuple of closure-captured variable names a backward closure is
    allowed to hold beyond parents/output/indices/scalars. Everything
    else classified as a derived full array is an
    ``undeclared-capture`` finding.
``mutates``
    Tuple of parameter names the function writes through on purpose
    (the sanctioned in-place API, e.g. ``index_add(out, ...)``).
``globals``
    Tuple of module-global names the function reassigns or mutates
    (memo caches, counter slots).
``nondiff``
    Tuple of parent *positions* (ints) that intentionally receive no
    gradient on any path.
``reason``
    Free-text justification; required by review for every entry.
"""

from __future__ import annotations

__all__ = ["CONTRACTS", "contract", "contract_of"]

_CONTRACT_ATTR = "__autograd_contract__"

# The grandfather-free declared-exception table. Keep entries sorted by
# module; every entry carries its reason — an entry without one should
# not survive review.
CONTRACTS: dict[str, dict] = {
    # -- functional.py: activation masks/factors are retain-vs-recompute
    #    decisions. All are one float64 array of the input's shape; the
    #    memory tracker reports them as retained closure bytes.
    "functional.relu": {
        "retains": ("mask",),
        "reason": "activation pattern; recompute would re-read the full input",
    },
    "functional.leaky_relu": {
        "retains": ("factor",),
        "reason": "slope factor doubles as the VJP diagonal",
    },
    "functional.elu": {
        "retains": ("factor",),
        "reason": "exp(min(x,0)) branch is the expensive part of the VJP",
    },
    "functional.dropout": {
        "retains": ("mask",),
        "reason": "mask is an RNG draw; it cannot be recomputed",
    },
    "functional.lstm_gate_update": {
        "retains": ("i_gate", "f_gate", "g_gate", "o_gate", "tanh_c"),
        "reason": "fused cell shares the four gate activations between "
        "forward and both VJPs; recomputing means four tanh passes",
    },
    # -- ops.py
    "ops.softplus": {
        "retains": ("grad_factor",),
        "reason": "sigmoid(x) computed on the forward IS the VJP diagonal; "
        "recompute costs a full exp pass",
    },
    "ops.clip": {
        "retains": ("inside",),
        "reason": "active-range mask is the whole Jacobian diagonal",
    },
    "ops.max": {
        "retains": ("mask",),
        "reason": "tie-normalised argmax mask; recompute needs a second "
        "reduction pass",
    },
    "ops.where": {
        "retains": ("cond",),
        "reason": "boolean select mask routes both parent gradients",
    },
    # -- scatter.py: segment-shaped (num_segments-sized) bookkeeping,
    #    not edge-sized copies.
    "scatter.segment_max": {
        "retains": ("empty",),
        "reason": "empty-segment mask is num_segments bools; masks the "
        "incoming gradient before the winner scatter",
    },
    "scatter.segment_mean": {
        "retains": ("denom",),
        "reason": "clamped per-segment counts, num_segments floats "
        "(often served read-only from the SegmentPlan cache)",
    },
}


def contract(
    *,
    retains: tuple[str, ...] = (),
    mutates: tuple[str, ...] = (),
    globals: tuple[str, ...] = (),  # noqa: A002 - mirrors the contract key
    nondiff: tuple[int, ...] = (),
    reason: str = "",
):
    """Declare a function's sanctioned deviations for ``repro check``.

    Runtime cost is one ``setattr`` at import; the checker reads the
    keyword literals statically, so the declaration must use literal
    tuples/strings only.
    """

    declaration = {
        "retains": tuple(retains),
        "mutates": tuple(mutates),
        "globals": tuple(globals),
        "nondiff": tuple(nondiff),
        "reason": reason,
    }

    def mark(fn):
        setattr(fn, _CONTRACT_ATTR, declaration)
        return fn

    return mark


def contract_of(fn) -> dict | None:
    """The runtime-attached contract of ``fn`` (decorator form), if any."""
    return getattr(fn, _CONTRACT_ATTR, None)
