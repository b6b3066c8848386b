"""Physical execution: batches, vectorized expressions, the factorized-key
operator kernels, operators and the graph select / graph join runtime
glue."""

from .batch import Batch, ZeroColumnBatch
from .evaluator import EvalContext, evaluate
from .kernels import KernelCounters
from .operators import ExecContext, execute_plan, register_operator

__all__ = [
    "Batch",
    "ZeroColumnBatch",
    "EvalContext",
    "evaluate",
    "ExecContext",
    "execute_plan",
    "register_operator",
    "KernelCounters",
]
