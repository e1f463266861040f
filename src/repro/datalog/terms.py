"""First-order terms: variables and constants.

The paper's metaqueries use *ordinary* (first-order) variables inside literal
schemes; when a metaquery is instantiated it becomes an ordinary Horn rule
whose atoms contain these terms.  Constants wrap arbitrary hashable Python
values so that databases over strings, integers, or tuples all work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Term", "Variable", "Constant", "term"]


class Term:
    """Abstract base class for variables and constants."""

    __slots__ = ()

    @property
    def is_variable(self) -> bool:
        """True for variables, False for constants."""
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        """True for constants, False for variables."""
        return not self.is_variable


@dataclass(frozen=True, order=True)
class Variable(Term):
    """An ordinary (first-order) variable, identified by its name."""

    name: str

    @property
    def is_variable(self) -> bool:
        return True

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Variable({self.name!r})"


@dataclass(frozen=True)
class Constant(Term):
    """A constant wrapping an arbitrary hashable value."""

    value: Any

    @property
    def is_variable(self) -> bool:
        return False

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Constant({self.value!r})"


def term(value: Any) -> Term:
    """Coerce a Python value into a :class:`Term`.

    Strings that start with an upper-case letter or an underscore become
    variables (the Datalog convention); everything else becomes a constant.
    Existing :class:`Term` objects pass through untouched.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str) and value and (value[0].isupper() or value[0] == "_"):
        return Variable(value)
    return Constant(value)

