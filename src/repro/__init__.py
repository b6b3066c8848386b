"""repro — a reproduction of De Leo & Boncz, "Extending SQL for Computing
Shortest Paths" (GRADES'17).

A from-scratch columnar SQL engine extended with the paper's REACHES
reachability predicate, CHEAPEST SUM shortest-path function, nested-table
paths, and UNNEST, together with the CSR/BFS/Dijkstra (Δ-stepping) graph
runtime, an LDBC-SNB-like workload generator, and the benchmark harness
that regenerates the paper's tables and figures.
"""

from .api import Appender, Database, Result, connect
from .session import PlanCache, PreparedStatement, Session
from .errors import (
    BackpressureError,
    BindError,
    CatalogError,
    DatabaseClosedError,
    ExecutionError,
    GraphRuntimeError,
    LexError,
    NotSupportedError,
    ParseError,
    ProtocolError,
    ReproError,
    ResourceLimitError,
    ServerError,
    ServerShutdownError,
    SqlError,
    StatementTimeoutError,
    TransactionConflictError,
    TransactionError,
    TypeError_,
    error_from_code,
)
from .nested import NestedTableValue
from .storage import DataType

__version__ = "1.0.0"

__all__ = [
    "Appender",
    "Database",
    "Result",
    "connect",
    "Session",
    "PreparedStatement",
    "PlanCache",
    "NestedTableValue",
    "DataType",
    "ReproError",
    "SqlError",
    "LexError",
    "ParseError",
    "BindError",
    "CatalogError",
    "TypeError_",
    "TransactionError",
    "TransactionConflictError",
    "ExecutionError",
    "ResourceLimitError",
    "GraphRuntimeError",
    "NotSupportedError",
    "DatabaseClosedError",
    "ServerError",
    "ProtocolError",
    "BackpressureError",
    "StatementTimeoutError",
    "ServerShutdownError",
    "error_from_code",
]
