"""Normalizing flows built from monotone scalar maps defined by unit-time
ODE integration, with explicit reverse-time inverses and exact
log-densities.
"""

__version__ = "0.1.0"

from .integrands import Integrand, NonFiniteError
from .scalarmap import (
    DivergenceError,
    MapResult,
    RootResult,
    SolverConfig,
    derivative,
    forward,
    forward_vjp,
    inverse,
)
from .inversion import (
    BenchReport,
    RefineConfig,
    bisection_invert,
    fixedpoint_invert,
    run_bench,
)
from .conditioner import ConditionerNet, build_masks, init_net, net_eval, net_vjp
from .flow import (
    AutoregressiveLayer,
    CouplingLayer,
    FlowModel,
    PermutationLayer,
    build_flow,
    layer_forward,
    layer_inverse,
    load_checkpoint,
    log_density,
    sample,
    save_checkpoint,
)
from .data import Dataset, load_csv, toy2d
from .training import AdamState, TrainConfig, adam_step, nll, nll_and_grad, train

# `approx` pulls in scipy.integrate, so it loads on first use of one of its names
_APPROX_NAMES = frozenset({
    "ConvergenceStudy",
    "Kernel",
    "MonotoneTarget",
    "PicardConfig",
    "convergence_study",
    "eval_approximant",
    "kernel_eval",
})


def __getattr__(name):
    if name in _APPROX_NAMES:
        from . import approx

        return getattr(approx, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Integrand",
    "NonFiniteError",
    "SolverConfig",
    "MapResult",
    "RootResult",
    "DivergenceError",
    "forward",
    "inverse",
    "derivative",
    "forward_vjp",
    "RefineConfig",
    "BenchReport",
    "bisection_invert",
    "fixedpoint_invert",
    "run_bench",
    "ConditionerNet",
    "init_net",
    "net_eval",
    "net_vjp",
    "build_masks",
    "CouplingLayer",
    "AutoregressiveLayer",
    "PermutationLayer",
    "FlowModel",
    "build_flow",
    "layer_forward",
    "layer_inverse",
    "log_density",
    "sample",
    "save_checkpoint",
    "load_checkpoint",
    "Dataset",
    "toy2d",
    "load_csv",
    "TrainConfig",
    "AdamState",
    "nll",
    "nll_and_grad",
    "adam_step",
    "train",
    "MonotoneTarget",
    "Kernel",
    "PicardConfig",
    "ConvergenceStudy",
    "kernel_eval",
    "eval_approximant",
    "convergence_study",
]
