"""Plausibility indices: support, confidence, cover (Definitions 2.5-2.7).

All indices are built on the *fraction* operator

``R ↑ S = |π_att(R)(J(R) ⋈ J(S))| / |J(R)|``

with the convention that the fraction is 0 whenever the numerator is 0
(which also covers the ``|J(R)| = 0`` corner case).  Values are exact
:class:`fractions.Fraction` objects so that threshold comparisons such as
``cnf(r) > (k'-1)/2^h`` in the NP^PP reduction are decided without rounding
error.

The module also implements *certifying sets* (Definition 3.19 and
Proposition 3.20): for each index, the subset of the rule's atoms whose
satisfiability is equivalent to the index being strictly positive.  They are
used by the threshold-0 decision procedures and by the complexity
experiments.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from repro.datalog.atoms import Atom, variables_of
from repro.datalog.evaluation import is_satisfiable, join_atoms
from repro.datalog.rules import ConjunctiveQuery, HornRule
from repro.exceptions import IndexError_
from repro.relational.database import Database

__all__ = [
    "fraction",
    "confidence",
    "cover",
    "support",
    "all_indices",
    "PlausibilityIndex",
    "get_index",
    "certifying_set",
    "index_is_positive",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datalog.context import EvaluationContext


def fraction(
    r_atoms: Sequence[Atom],
    s_atoms: Sequence[Atom],
    db: Database,
    ctx: "EvaluationContext | None" = None,
) -> Fraction:
    """The fraction of ``R`` in ``S`` (Definition 2.6): ``R ↑ S``.

    ``r_atoms`` and ``s_atoms`` are the two atom sets; the database supplies
    their relations.  Returns an exact rational in ``[0, 1]``.  With a
    context, the value is memoized keyed by the normalized shape of the atom
    pair, and the component joins go through the context's caches.
    """
    if not r_atoms:
        raise IndexError_("the left-hand atom set of a fraction must be non-empty")
    if not s_atoms:
        raise IndexError_("the right-hand atom set of a fraction must be non-empty")
    if ctx is not None and ctx.applies_to(db):
        return ctx.fraction(r_atoms, s_atoms, lambda: _fraction_direct(r_atoms, s_atoms, db, ctx))
    return _fraction_direct(r_atoms, s_atoms, db, None)


def _fraction_direct(
    r_atoms: Sequence[Atom],
    s_atoms: Sequence[Atom],
    db: Database,
    ctx: "EvaluationContext | None",
) -> Fraction:
    jr = join_atoms(r_atoms, db, ctx)
    if jr.is_empty():
        return Fraction(0)
    js = join_atoms(s_atoms, db, ctx)
    joined = jr.natural_join(js)
    att_r = [v.name for v in variables_of(r_atoms)]
    numerator = len(joined.project(att_r)) if att_r else (1 if not joined.is_empty() else 0)
    if numerator == 0:
        return Fraction(0)
    return Fraction(numerator, len(jr))


def confidence(rule: HornRule, db: Database, ctx: "EvaluationContext | None" = None) -> Fraction:
    """``cnf(r) = b(r) ↑ h(r)``: how often a satisfied body implies the head."""
    return fraction(rule.body_atoms, rule.head_atoms, db, ctx)


def cover(rule: HornRule, db: Database, ctx: "EvaluationContext | None" = None) -> Fraction:
    """``cvr(r) = h(r) ↑ b(r)``: the share of head tuples the body implies."""
    return fraction(rule.head_atoms, rule.body_atoms, db, ctx)


def support(rule: HornRule, db: Database, ctx: "EvaluationContext | None" = None) -> Fraction:
    """``sup(r) = max_{a ∈ b(r)} ({a} ↑ b(r))``.

    The best fraction, over the body atoms, of an atom's tuples that take
    part in the body join.
    """
    best = Fraction(0)
    for atom in rule.body_atoms:
        value = fraction([atom], rule.body_atoms, db, ctx)
        if value > best:
            best = value
    return best


def all_indices(rule: HornRule, db: Database, ctx: "EvaluationContext | None" = None) -> dict[str, Fraction]:
    """Support, confidence and cover of a rule, as a dictionary."""
    return {
        "sup": support(rule, db, ctx),
        "cnf": confidence(rule, db, ctx),
        "cvr": cover(rule, db, ctx),
    }


# ----------------------------------------------------------------------
# pluggable index objects
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlausibilityIndex:
    """A named plausibility index: ``(rule, database[, context]) -> [0, 1]``.

    The paper's Definition 2.5 only requires the value to be a rational in
    ``[0, 1]``; user-defined indices may be registered alongside the three
    standard ones.  ``compute`` may accept an optional third argument, the
    :class:`~repro.datalog.context.EvaluationContext`; plain two-argument
    ``(rule, db)`` callables are also supported (they simply cannot share
    the caches).
    """

    name: str
    compute: Callable[..., Fraction]

    def __post_init__(self) -> None:
        # How to hand the context to ``compute``: as a third positional
        # argument, as the ``ctx=`` keyword, or not at all.  Keyword-only
        # ``ctx`` parameters (common on ``functools.partial``-bound
        # callables, whose reported signature turns bound parameters
        # keyword-only) must be detected explicitly: counting positional
        # parameters alone either drops cache sharing or passes a third
        # positional argument the callable rejects with a TypeError.
        try:
            parameters = inspect.signature(self.compute).parameters.values()
        except (TypeError, ValueError):  # builtins/callables without a signature
            ctx_mode = "positional"
        else:
            positional = sum(
                p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in parameters
            )
            if positional >= 3 or any(p.kind == p.VAR_POSITIONAL for p in parameters):
                ctx_mode = "positional"
            elif any(p.name == "ctx" and p.kind == p.KEYWORD_ONLY for p in parameters):
                ctx_mode = "keyword"
            else:
                ctx_mode = "none"
        object.__setattr__(self, "_ctx_mode", ctx_mode)

    def __call__(
        self, rule: HornRule, db: Database, ctx: "EvaluationContext | None" = None
    ) -> Fraction:
        if self._ctx_mode == "positional":
            return self.compute(rule, db, ctx)
        if self._ctx_mode == "keyword":
            return self.compute(rule, db, ctx=ctx)
        return self.compute(rule, db)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


SUPPORT = PlausibilityIndex("sup", support)
CONFIDENCE = PlausibilityIndex("cnf", confidence)
COVER = PlausibilityIndex("cvr", cover)

#: The set ``I = {cnf, cvr, sup}`` of the paper, keyed by short name.
INDICES: dict[str, PlausibilityIndex] = {
    "sup": SUPPORT,
    "cnf": CONFIDENCE,
    "cvr": COVER,
}


def get_index(index: str | PlausibilityIndex) -> PlausibilityIndex:
    """Resolve an index given either its short name or the object itself."""
    if isinstance(index, PlausibilityIndex):
        return index
    try:
        return INDICES[index]
    except KeyError:
        raise IndexError_(f"unknown plausibility index {index!r}; known: {sorted(INDICES)}") from None


# ----------------------------------------------------------------------
# certifying sets (Definition 3.19 / Proposition 3.20)
# ----------------------------------------------------------------------
def certifying_set(rule: HornRule, index: str | PlausibilityIndex) -> tuple[Atom, ...]:
    """The certifying set ``S_I`` of a rule for an index.

    * cover and confidence: the whole atom set (head plus body);
    * support: the body atoms only.

    The defining property (Proposition 3.20): the certifying set has a
    satisfiable ground instance iff the index is strictly positive.
    """
    name = get_index(index).name
    if name == "sup":
        return rule.body_atoms
    if name in ("cvr", "cnf"):
        return rule.atoms
    raise IndexError_(f"no certifying set known for custom index {name!r}")


def index_is_positive(
    rule: HornRule,
    index: str | PlausibilityIndex,
    db: Database,
    ctx: "EvaluationContext | None" = None,
) -> bool:
    """Decide ``I(r) > 0`` via the certifying set, without computing the ratio.

    This is the polynomial-verifiable certificate used in the membership
    proofs of Theorem 3.21: the index is positive iff the certifying set is
    satisfiable as a Boolean conjunctive query.
    """
    atoms = certifying_set(rule, index)
    return is_satisfiable(ConjunctiveQuery(atoms), db, ctx)
