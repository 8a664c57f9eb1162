"""Streaming graph query engine: persistent pattern and path queries with
incrementally maintained results over time-based sliding windows."""

from streamgraph.model import EdgeEvent, Interval, StreamTuple
from streamgraph.query import QueryError, parse_query, to_plan
from streamgraph.runtime import Metrics, compile_plan, net_results, run_stream

__version__ = "0.1.0"

__all__ = [
    "EdgeEvent",
    "Interval",
    "Metrics",
    "QueryError",
    "StreamTuple",
    "compile_plan",
    "net_results",
    "parse_query",
    "run_stream",
    "to_plan",
    "__version__",
]
