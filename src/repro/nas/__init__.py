"""Trial-and-error NAS baselines: Random, Bayesian (TPE), GraphNAS (RL)."""

from repro.nas.encoding import (
    Decision,
    DecisionSpace,
    graphnas_decision_space,
    sane_decision_space,
)
from repro.nas.evaluation import ArchitectureEvaluator, EvaluationRecord
from repro.nas.random_search import SearchOutcome, random_search
from repro.nas.tpe import TPESampler, tpe_search
from repro.nas.graphnas import Controller, graphnas_search

__all__ = [
    "Decision",
    "DecisionSpace",
    "sane_decision_space",
    "graphnas_decision_space",
    "ArchitectureEvaluator",
    "EvaluationRecord",
    "SearchOutcome",
    "random_search",
    "TPESampler",
    "tpe_search",
    "Controller",
    "graphnas_search",
]
