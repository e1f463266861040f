"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  More specific subclasses are
grouped by the subsystem that raises them (relational engine, Datalog layer,
metaquery core, hypergraph machinery, circuits).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "UnknownRelationError",
    "AlgebraError",
    "ParseError",
    "DatalogError",
    "MetaqueryError",
    "InstantiationError",
    "IndexError_",
    "DecompositionError",
    "EngineError",
    "ShardingError",
    "CircuitError",
    "ReductionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation or database schema is malformed or violated.

    Raised, for instance, when a tuple of the wrong arity is inserted into a
    relation, when two attributes of a relation share a name, or when a
    relation name is registered twice in a database.
    """


class UnknownRelationError(SchemaError):
    """A query referenced a relation name that does not exist in the database."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class AlgebraError(ReproError):
    """A relational-algebra operation was applied to incompatible operands."""


class ParseError(ReproError):
    """A textual query, rule, or metaquery could not be parsed."""

    def __init__(self, message: str, text: str | None = None) -> None:
        if text is not None:
            message = f"{message} (while parsing {text!r})"
        super().__init__(message)
        self.text = text


class DatalogError(ReproError):
    """A Datalog program or conjunctive query is malformed or unsafe."""


class MetaqueryError(ReproError):
    """A metaquery is malformed (e.g. not pure when purity is required)."""


class InstantiationError(MetaqueryError):
    """An instantiation violates the requested instantiation-type constraints."""


class IndexError_(ReproError):
    """A plausibility index could not be evaluated.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class DecompositionError(ReproError):
    """A hypertree decomposition or join tree could not be constructed."""


class EngineError(ReproError, ValueError):
    """An engine request or configuration is invalid.

    Raised by :class:`~repro.core.engine.MetaqueryEngine` and
    :class:`~repro.core.requests.MetaqueryRequest` construction when an
    argument is out of range (``workers < 1``), of the wrong type (the
    ``cache``/``batch``/``columnar`` switches must be real booleans) or
    names an unknown algorithm.  Subclasses :class:`ValueError` so callers
    that predate the request API keep working unchanged.
    """


class ShardingError(ReproError):
    """A sharded evaluation could not be set up or dispatched.

    Raised when a :class:`~repro.datalog.sharding.ShardedEvaluator` is used
    after being closed, is bound to a different database than the call's, or
    is asked for worker-local state outside a worker process.
    """


class CircuitError(ReproError):
    """A circuit is malformed (dangling wires, wrong input size, cycles)."""


class ReductionError(ReproError):
    """A complexity reduction received a malformed problem instance."""
