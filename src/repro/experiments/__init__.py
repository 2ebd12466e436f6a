"""Experiment harness: one runner per paper table/figure.

=========  ==============================================
paper       runner
=========  ==============================================
Table IV    :func:`repro.experiments.table4.run_table4`
Table VI    :func:`repro.experiments.table6.run_table6`
Table VII   :func:`repro.experiments.table7.run_table7`
Table VIII  :func:`repro.experiments.table8.run_table8`
Table IX    :func:`repro.experiments.table9.run_table9`
Table X     :func:`repro.experiments.table10.run_table10`
Figure 2    :func:`repro.experiments.figure2.run_figure2`
Figure 3    :func:`repro.experiments.figure3.run_figure3`
Figure 4    :func:`repro.experiments.figure4.run_figure4a` / ``run_figure4b``
=========  ==============================================
"""

import importlib

# Public name -> submodule that defines it. Nothing is imported until
# a name is first accessed (PEP 562), so ``import
# repro.experiments.runners`` does not drag in every table runner and
# the KG stack behind Table VIII.
_EXPORTS = {
    "Scale": "config",
    "SCALES": "config",
    "ExperimentTable": "results",
    "format_scores": "results",
    "render_table": "results",
    "NAS_METHODS": "runners",
    "HUMAN_BASELINES": "table6",
    "run_human_baseline": "runners",
    "run_nas_method": "runners",
    "run_sane": "runners",
    "task_settings": "runners",
    "run_table4": "table4",
    "run_table6": "table6",
    "run_table7": "table7",
    "run_table8": "table8",
    "run_table9": "table9",
    "run_table10": "table10",
    "render_architecture": "figure2",
    "run_figure2": "figure2",
    "run_figure3": "figure3",
    "run_figure4a": "figure4",
    "run_figure4b": "figure4",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
