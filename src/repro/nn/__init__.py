"""Neural-network module system built on the autograd substrate."""

from repro.nn.module import Module, Parameter
from repro.nn.layers import Linear, MLP, Dropout
from repro.nn.lstm import LSTMCell, BiLSTMAttention
from repro.nn.optim import Adam, Optimizer, clip_grad_norm
from repro.nn.schedulers import CosineAnnealingLR, create_scheduler
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Dropout",
    "LSTMCell",
    "BiLSTMAttention",
    "Adam",
    "Optimizer",
    "clip_grad_norm",
    "CosineAnnealingLR",
    "create_scheduler",
    "init",
]
