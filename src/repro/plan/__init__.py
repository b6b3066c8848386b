"""Query planning: bound expressions, logical operators (including the
paper's graph select / graph join), semantic binder, the cost-based
optimizer and the physical plan layer it lowers into."""

from . import exprs, logical, physical
from .binder import (
    Binder,
    BoundAnalyze,
    BoundBegin,
    BoundCommit,
    BoundCopy,
    BoundCreateGraphIndex,
    BoundCreateTable,
    BoundCreateTableAs,
    BoundDelete,
    BoundDropGraphIndex,
    BoundDropTable,
    BoundExplain,
    BoundInsert,
    BoundQuery,
    BoundRollback,
    BoundUpdate,
)
from .optimizer import optimize
from .physical import PhysicalNode, explain as explain_physical

__all__ = [
    "exprs",
    "logical",
    "physical",
    "Binder",
    "BoundAnalyze",
    "BoundBegin",
    "BoundCommit",
    "BoundRollback",
    "BoundCopy",
    "BoundCreateGraphIndex",
    "BoundCreateTable",
    "BoundCreateTableAs",
    "BoundDelete",
    "BoundUpdate",
    "BoundDropGraphIndex",
    "BoundDropTable",
    "BoundExplain",
    "BoundInsert",
    "BoundQuery",
    "PhysicalNode",
    "explain_physical",
    "optimize",
]
