"""Metaquery instantiations of type 0, 1 and 2 (Definitions 2.1-2.4).

An *instantiation* maps every relation pattern of a metaquery to an atom
over a database relation such that the induced mapping from predicate
variables to relation names is functional (two patterns sharing a predicate
variable go to the same relation).  The three types constrain how a
pattern's argument list relates to the atom's:

* **type-0** — the atom has exactly the pattern's argument list (identity);
  requires a pure metaquery and a relation of the same arity;
* **type-1** — the atom's arguments are a permutation of the pattern's;
* **type-2** — the atom may have larger arity; the pattern's arguments are
  placed injectively into some of the atom's positions and the remaining
  positions receive fresh variables not occurring anywhere else in the
  instantiated rule.  The padding at atom position ``j`` of the image of
  the metaquery's ``i``-th relation pattern is named ``_T2_<i>_<j>`` (see
  :data:`~repro.core.metaquery.PADDING_PREFIX`), so the names are fresh by
  construction and both engines give one answer the same text.

The module also implements *agreement* and composition of partial
instantiations (Definition 4.13), which the FindRules algorithm relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.metaquery import PADDING_PREFIX, LiteralScheme, MetaQuery
from repro.datalog.atoms import Atom
from repro.datalog.rules import HornRule
from repro.datalog.terms import Term, Variable
from repro.exceptions import InstantiationError, MetaqueryError
from repro.relational.database import Database

__all__ = [
    "InstantiationType",
    "Instantiation",
    "is_valid_image",
    "enumerate_pattern_images",
    "enumerate_scheme_instantiations",
    "enumerate_instantiations",
    "count_instantiations",
]


class InstantiationType(IntEnum):
    """The three instantiation types of the paper."""

    TYPE_0 = 0
    TYPE_1 = 1
    TYPE_2 = 2

    @classmethod
    def coerce(cls, value: "InstantiationType | int") -> "InstantiationType":
        """Accept either an enum member or a plain 0/1/2 integer."""
        if isinstance(value, InstantiationType):
            return value
        return cls(int(value))


@dataclass(frozen=True)
class Instantiation:
    """A (possibly partial) instantiation: relation patterns -> atoms.

    ``mapping`` covers the relation patterns this instantiation is defined
    on; non-pattern literal schemes are untouched by instantiations.  The
    induced predicate-variable assignment must be functional, which the
    constructor verifies.
    """

    mapping: tuple[tuple[LiteralScheme, Atom], ...]

    def __init__(self, mapping: Mapping[LiteralScheme, Atom] | Iterable[tuple[LiteralScheme, Atom]]) -> None:
        if isinstance(mapping, Mapping):
            items = tuple(mapping.items())
        else:
            items = tuple(mapping)
        seen: dict[LiteralScheme, Atom] = {}
        for scheme, atom in items:
            if not scheme.is_pattern:
                raise InstantiationError(f"{scheme} is not a relation pattern")
            if scheme in seen and seen[scheme] != atom:
                raise InstantiationError(f"pattern {scheme} mapped to two different atoms")
            seen[scheme] = atom
        # functional restriction on predicate variables
        assignment: dict[str, str] = {}
        for scheme, atom in seen.items():
            existing = assignment.get(scheme.predicate)
            if existing is not None and existing != atom.predicate:
                raise InstantiationError(
                    f"predicate variable {scheme.predicate} mapped to both "
                    f"{existing!r} and {atom.predicate!r}"
                )
            assignment[scheme.predicate] = atom.predicate
        object.__setattr__(self, "mapping", tuple(sorted(seen.items(), key=lambda kv: str(kv[0]))))

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[LiteralScheme, Atom]:
        """The mapping as a plain dictionary."""
        return dict(self.mapping)

    @property
    def patterns(self) -> tuple[LiteralScheme, ...]:
        """The relation patterns this instantiation is defined on."""
        return tuple(scheme for scheme, _ in self.mapping)

    def predicate_assignment(self) -> dict[str, str]:
        """The induced (functional) map from predicate variables to relation names."""
        return {scheme.predicate: atom.predicate for scheme, atom in self.mapping}

    def image(self, scheme: LiteralScheme) -> Atom:
        """The atom a literal scheme is mapped to.

        Non-pattern schemes are returned as their own atom; unmapped
        patterns raise :class:`InstantiationError`.
        """
        if not scheme.is_pattern:
            return scheme.as_atom()
        for candidate, atom in self.mapping:
            if candidate == scheme:
                return atom
        raise InstantiationError(f"instantiation is not defined on pattern {scheme}")

    def covers(self, scheme: LiteralScheme) -> bool:
        """True when the instantiation is defined on the scheme (or it is an atom)."""
        if not scheme.is_pattern:
            return True
        return any(candidate == scheme for candidate, _ in self.mapping)

    # ------------------------------------------------------------------
    def apply(self, mq: MetaQuery) -> HornRule:
        """Apply the instantiation to a metaquery, producing a Horn rule."""
        head = self.image(mq.head)
        body = [self.image(scheme) for scheme in mq.body]
        return HornRule(head, body)

    def apply_to_schemes(self, schemes: Sequence[LiteralScheme]) -> list[Atom]:
        """Apply to an arbitrary sequence of literal schemes."""
        return [self.image(scheme) for scheme in schemes]

    # ------------------------------------------------------------------
    def agrees_with(self, other: "Instantiation") -> bool:
        """Definition 4.13: shared patterns and shared predicate variables coincide."""
        mine = self.as_dict()
        theirs = other.as_dict()
        for scheme in set(mine) & set(theirs):
            if mine[scheme] != theirs[scheme]:
                return False
        my_assignment = self.predicate_assignment()
        their_assignment = other.predicate_assignment()
        for pv in set(my_assignment) & set(their_assignment):
            if my_assignment[pv] != their_assignment[pv]:
                return False
        return True

    def compose(self, other: "Instantiation") -> "Instantiation":
        """Union of two agreeing instantiations (``σ ∘ μ`` in the paper).

        Padding names depend only on the pattern and the position they fill,
        so the union of two agreeing instantiations keeps them fresh.
        """
        if not self.agrees_with(other):
            raise InstantiationError("cannot compose instantiations that do not agree")
        return Instantiation(self.mapping + other.mapping)

    def fresh_variables(self) -> frozenset[Variable]:
        """All padding variables introduced by type-2 images (named ``_T2_*``)."""
        result: set[Variable] = set()
        for _, atom in self.mapping:
            for t in atom.terms:
                if isinstance(t, Variable) and t.name.startswith(PADDING_PREFIX):
                    result.add(t)
        return frozenset(result)

    def __len__(self) -> int:
        return len(self.mapping)

    def __str__(self) -> str:
        parts = ", ".join(f"{scheme} -> {atom}" for scheme, atom in self.mapping)
        return "{" + parts + "}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Instantiation({self!s})"


# ----------------------------------------------------------------------
# type validation
# ----------------------------------------------------------------------
def _argument_positions(pattern: LiteralScheme, atom: Atom) -> list[int] | None:
    """Try to find an injective placement of the pattern's argument list in the atom.

    Returns, for each pattern position, the atom position carrying that
    argument occurrence, or None when no injective placement exists.
    """
    used: set[int] = set()
    placement: list[int] = []
    for t in pattern.terms:
        found = None
        for pos, atom_term in enumerate(atom.terms):
            if pos in used:
                continue
            if atom_term == t:
                found = pos
                break
        if found is None:
            return None
        used.add(found)
        placement.append(found)
    return placement


def _padding_terms(atom: Atom, placement: Sequence[int]) -> list[Term]:
    return [t for pos, t in enumerate(atom.terms) if pos not in set(placement)]


def is_valid_image(
    pattern: LiteralScheme,
    atom: Atom,
    itype: InstantiationType,
    rule_variables: frozenset[str] = frozenset(),
) -> bool:
    """Check whether ``atom`` is a legal type-T image of ``pattern``.

    ``rule_variables`` holds the names of the ordinary variables occurring
    elsewhere in the instantiated rule; type-2 padding variables must avoid
    them (Definition 2.4, third bullet).
    """
    itype = InstantiationType.coerce(itype)
    if itype is InstantiationType.TYPE_0:
        return atom.arity == pattern.arity and tuple(atom.terms) == tuple(pattern.terms)
    if itype is InstantiationType.TYPE_1:
        if atom.arity != pattern.arity:
            return False
        return sorted(map(str, atom.terms)) == sorted(map(str, pattern.terms)) and (
            _argument_positions(pattern, atom) is not None
        )
    # type-2
    if atom.arity < pattern.arity:
        return False
    placement = _argument_positions(pattern, atom)
    if placement is None:
        return False
    padding = _padding_terms(atom, placement)
    pattern_term_strings = {str(t) for t in pattern.terms}
    for t in padding:
        if not isinstance(t, Variable):
            return False
        if t.name in rule_variables or t.name in pattern_term_strings:
            return False
    return True


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
def _candidate_atoms_for_pattern(
    pattern: LiteralScheme,
    number: int,
    relation_name: str,
    relation_arity: int,
    itype: InstantiationType,
) -> Iterator[Atom]:
    """All atoms over ``relation_name`` that are valid images of ``pattern``.

    ``number`` is the pattern's index in the metaquery's relation patterns;
    type-2 padding at atom position ``j`` is named ``_T2_<number>_<j>``.
    """
    k = pattern.arity
    if itype is InstantiationType.TYPE_0:
        if relation_arity == k:
            yield Atom(relation_name, pattern.terms)
        return
    if itype is InstantiationType.TYPE_1:
        if relation_arity != k:
            return
        seen: set[tuple[str, ...]] = set()
        for permuted in itertools.permutations(pattern.terms):
            key = tuple(map(str, permuted))
            if key in seen:
                continue
            seen.add(key)
            yield Atom(relation_name, permuted)
        return
    # type-2: choose an injective placement of the k pattern arguments into
    # the relation's positions; remaining positions get padding variables.
    if relation_arity < k:
        return
    positions = range(relation_arity)
    seen_signatures: set[tuple[tuple[int, str], ...]] = set()
    for placement in itertools.permutations(positions, k):
        signature = tuple(sorted(zip(placement, map(str, pattern.terms))))
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        terms: list[Term | None] = [None] * relation_arity
        for pattern_pos, atom_pos in enumerate(placement):
            terms[atom_pos] = pattern.terms[pattern_pos]
        if relation_arity > k:
            terms = [
                t if t is not None else Variable(f"{PADDING_PREFIX}{number}_{pos}")
                for pos, t in enumerate(terms)
            ]
        yield Atom(relation_name, terms)


def enumerate_pattern_images(
    pattern: LiteralScheme,
    db: Database,
    itype: InstantiationType | int,
    number: int,
    relation_name: str | None = None,
) -> Iterator[Atom]:
    """All valid images of one relation pattern over the database's relations.

    ``number`` is the pattern's index in the metaquery's
    :attr:`~repro.core.metaquery.MetaQuery.relation_patterns`; it names the
    type-2 padding.  When ``relation_name`` is given, only that relation is
    considered (used when a predicate variable's relation is already fixed).
    """
    itype = InstantiationType.coerce(itype)
    if relation_name is not None:
        names: Sequence[str] = (relation_name,)
    else:
        names = db.relation_names
    for name in names:
        if name not in db:
            continue
        arity = db[name].arity
        yield from _candidate_atoms_for_pattern(pattern, number, name, arity, itype)


def enumerate_scheme_instantiations(
    schemes: Sequence[LiteralScheme],
    db: Database,
    itype: InstantiationType | int,
    numbering: Mapping[LiteralScheme, int],
    base: Instantiation | None = None,
) -> Iterator[Instantiation]:
    """All instantiations of the patterns occurring in ``schemes``.

    The result instantiations are defined exactly on the distinct patterns
    of ``schemes`` and agree with ``base`` (patterns already covered by
    ``base`` keep their image; predicate variables fixed by ``base`` keep
    their relation).  ``numbering`` is the whole metaquery's
    :attr:`~repro.core.metaquery.MetaQuery.pattern_numbers` (never a
    numbering of ``schemes`` alone), so padding names differ between
    patterns and composing a result with ``base`` keeps them fresh
    (Definition 2.4).
    """
    itype = InstantiationType.coerce(itype)
    base_dict = base.as_dict() if base is not None else {}
    base_assignment = base.predicate_assignment() if base is not None else {}

    patterns: list[LiteralScheme] = []
    for scheme in schemes:
        if scheme.is_pattern and scheme not in patterns:
            patterns.append(scheme)
    numbers = [numbering[pattern] for pattern in patterns]

    def backtrack(index: int, current: dict[LiteralScheme, Atom], assignment: dict[str, str]) -> Iterator[Instantiation]:
        if index == len(patterns):
            yield Instantiation(dict(current))
            return
        pattern = patterns[index]
        if pattern in base_dict:
            atom = base_dict[pattern]
            current[pattern] = atom
            yield from backtrack(index + 1, current, assignment)
            del current[pattern]
            return
        fixed_relation = assignment.get(pattern.predicate)
        for atom in enumerate_pattern_images(
            pattern, db, itype, numbers[index], relation_name=fixed_relation
        ):
            current[pattern] = atom
            previous = assignment.get(pattern.predicate)
            assignment[pattern.predicate] = atom.predicate
            yield from backtrack(index + 1, current, assignment)
            if previous is None:
                del assignment[pattern.predicate]
            else:
                assignment[pattern.predicate] = previous
            del current[pattern]

    yield from backtrack(0, {}, dict(base_assignment))


def enumerate_instantiations(
    mq: MetaQuery,
    db: Database,
    itype: InstantiationType | int = InstantiationType.TYPE_0,
) -> Iterator[Instantiation]:
    """All type-T instantiations of a metaquery over a database.

    Type-0 and type-1 instantiations require the metaquery to be pure
    (Definitions 2.2 and 2.3); a :class:`MetaqueryError` is raised otherwise.
    Ordinary (non-pattern) literal schemes do not constrain the enumeration,
    but their relations must exist in the database for the resulting rule to
    be evaluable; this is checked lazily by the engines, not here.
    """
    itype = InstantiationType.coerce(itype)
    if itype in (InstantiationType.TYPE_0, InstantiationType.TYPE_1) and not mq.is_pure():
        raise MetaqueryError(f"type-{int(itype)} instantiations require a pure metaquery")
    yield from enumerate_scheme_instantiations(
        mq.literal_schemes, db, itype, mq.pattern_numbers
    )


def count_instantiations(mq: MetaQuery, db: Database, itype: InstantiationType | int) -> int:
    """Number of type-T instantiations (used by the scaling benchmarks)."""
    return sum(1 for _ in enumerate_instantiations(mq, db, itype))
