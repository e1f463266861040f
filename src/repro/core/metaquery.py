"""Metaquery syntax: literal schemes, relation patterns and metaqueries.

Section 2.1 of the paper.  A metaquery has the form ``T <- L1, ..., Lm``
where ``T`` and the ``Li`` are *literal schemes* ``Q(Y1, ..., Yn)``: ``Q`` is
either an ordinary relation name or a *predicate (second-order) variable*
and the ``Yj`` are ordinary (first-order) variables.  A literal scheme whose
predicate symbol is a predicate variable is a *relation pattern*; otherwise
it is an ordinary atom.  A metaquery is *pure* if any two relation patterns
sharing a predicate variable have the same arity.

Textual convention (mirroring the paper's examples): identifiers starting
with an upper-case letter denote predicate variables in predicate position
and ordinary variables in argument position; lower-case identifiers denote
relation names and constants respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.datalog.atoms import Atom
from repro.datalog.parser import _Parser  # shared tokenizer / term parsing
from repro.datalog.terms import Term, Variable, term
from repro.exceptions import MetaqueryError, ParseError

__all__ = ["PADDING_PREFIX", "LiteralScheme", "MetaQuery", "parse_metaquery"]

#: Prefix of type-2 padding variables (Definition 2.4).  The padding at atom
#: position ``j`` of the image of relation pattern ``i`` is named
#: ``_T2_<i>_<j>``, both indices 0-based, ``i`` counting
#: :attr:`MetaQuery.relation_patterns`.  :class:`MetaQuery` rejects ordinary
#: variables with this prefix, so padding is fresh in every instantiated
#: rule by construction.
PADDING_PREFIX = "_T2_"


@dataclass(frozen=True)
class LiteralScheme:
    """A literal scheme ``Q(Y1, ..., Yn)``.

    Attributes
    ----------
    predicate:
        The predicate symbol: either a relation name or a predicate-variable
        name, depending on ``is_pattern``.
    terms:
        The argument terms (ordinary variables, possibly constants).
    is_pattern:
        True when the predicate symbol is a predicate (second-order)
        variable, i.e. when this scheme is a *relation pattern*.
    """

    predicate: str
    terms: tuple[Term, ...]
    is_pattern: bool

    def __init__(self, predicate: str, terms: Sequence[object], is_pattern: bool) -> None:
        if not predicate:
            raise MetaqueryError("literal scheme predicate must be non-empty")
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "terms", tuple(term(t) for t in terms))
        object.__setattr__(self, "is_pattern", bool(is_pattern))

    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.terms)

    @property
    def ordinary_variables(self) -> tuple[Variable, ...]:
        """``varo``: the distinct ordinary variables, in first-occurrence order."""
        seen: list[Variable] = []
        for t in self.terms:
            if isinstance(t, Variable) and t not in seen:
                seen.append(t)
        return tuple(seen)

    @property
    def all_variables(self) -> tuple[str, ...]:
        """``var``: predicate variable (if a pattern) plus ordinary variable names."""
        names = [v.name for v in self.ordinary_variables]
        if self.is_pattern:
            return (self.predicate,) + tuple(names)
        return tuple(names)

    def as_atom(self) -> Atom:
        """Convert a non-pattern literal scheme into an ordinary atom."""
        if self.is_pattern:
            raise MetaqueryError(f"relation pattern {self} cannot be converted to an atom")
        return Atom(self.predicate, self.terms)

    @classmethod
    def from_atom(cls, atom: Atom) -> "LiteralScheme":
        """Wrap an ordinary atom as a (non-pattern) literal scheme."""
        return cls(atom.predicate, atom.terms, is_pattern=False)

    @classmethod
    def pattern(cls, predicate_variable: str, terms: Sequence[object]) -> "LiteralScheme":
        """Construct a relation pattern."""
        return cls(predicate_variable, terms, is_pattern=True)

    @classmethod
    def atom(cls, relation_name: str, terms: Sequence[object]) -> "LiteralScheme":
        """Construct an ordinary-atom literal scheme."""
        return cls(relation_name, terms, is_pattern=False)

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate}({args})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "pattern" if self.is_pattern else "atom"
        return f"LiteralScheme[{kind}]({self!s})"


class MetaQuery:
    """A metaquery ``head <- body`` over literal schemes.

    Parameters
    ----------
    head:
        The head literal scheme ``T``.
    body:
        The non-empty body ``L1, ..., Lm``.
    name:
        Optional label used in reports.
    """

    def __init__(self, head: LiteralScheme, body: Iterable[LiteralScheme], name: str | None = None) -> None:
        self.head = head
        self.body = tuple(body)
        self.name = name or "MQ"
        if not self.body:
            raise MetaqueryError("a metaquery must have a non-empty body")
        for variable in self.ordinary_variables:
            if variable.name.startswith(PADDING_PREFIX):
                raise MetaqueryError(
                    f"variable {variable} uses the prefix {PADDING_PREFIX!r} "
                    "reserved for type-2 padding"
                )

    # ------------------------------------------------------------------
    @property
    def literal_schemes(self) -> tuple[LiteralScheme, ...]:
        """``ls(MQ)``: head followed by body literal schemes."""
        return (self.head,) + self.body

    @property
    def relation_patterns(self) -> tuple[LiteralScheme, ...]:
        """``rep(MQ)``: the distinct relation patterns, in occurrence order."""
        seen: list[LiteralScheme] = []
        for scheme in self.literal_schemes:
            if scheme.is_pattern and scheme not in seen:
                seen.append(scheme)
        return tuple(seen)

    @property
    def pattern_numbers(self) -> dict[LiteralScheme, int]:
        """Each relation pattern's index in :attr:`relation_patterns`: the
        ``i`` of its padding names ``_T2_<i>_<j>``."""
        return {pattern: i for i, pattern in enumerate(self.relation_patterns)}

    @property
    def predicate_variables(self) -> tuple[str, ...]:
        """``pv(MQ)``: the distinct predicate-variable names."""
        seen: list[str] = []
        for scheme in self.literal_schemes:
            if scheme.is_pattern and scheme.predicate not in seen:
                seen.append(scheme.predicate)
        return tuple(seen)

    @property
    def ordinary_variables(self) -> tuple[Variable, ...]:
        """``varo(MQ)``: the distinct ordinary variables of the whole metaquery."""
        seen: list[Variable] = []
        for scheme in self.literal_schemes:
            for variable in scheme.ordinary_variables:
                if variable not in seen:
                    seen.append(variable)
        return tuple(seen)

    @property
    def body_ordinary_variables(self) -> tuple[Variable, ...]:
        """Distinct ordinary variables of the body only."""
        seen: list[Variable] = []
        for scheme in self.body:
            for variable in scheme.ordinary_variables:
                if variable not in seen:
                    seen.append(variable)
        return tuple(seen)

    def is_pure(self) -> bool:
        """True when patterns sharing a predicate variable share an arity."""
        arities: dict[str, int] = {}
        for scheme in self.literal_schemes:
            if not scheme.is_pattern:
                continue
            known = arities.get(scheme.predicate)
            if known is None:
                arities[scheme.predicate] = scheme.arity
            elif known != scheme.arity:
                return False
        return True

    def pattern_arities(self) -> Mapping[str, int]:
        """For a pure metaquery, the arity of each predicate variable."""
        if not self.is_pure():
            raise MetaqueryError("pattern_arities is only defined for pure metaqueries")
        arities: dict[str, int] = {}
        for scheme in self.literal_schemes:
            if scheme.is_pattern:
                arities.setdefault(scheme.predicate, scheme.arity)
        return arities

    def is_second_order(self) -> bool:
        """True when the metaquery contains at least one relation pattern."""
        return bool(self.relation_patterns)

    def __str__(self) -> str:
        body = ", ".join(str(s) for s in self.body)
        return f"{self.head} <- {body}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetaQuery({self!s})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetaQuery):
            return NotImplemented
        return self.head == other.head and self.body == other.body

    def __hash__(self) -> int:
        return hash((self.head, self.body))


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
def _scheme_from_parsed(predicate: str, terms: Sequence[Term], relation_names: frozenset[str]) -> LiteralScheme:
    """Decide whether a parsed literal is a pattern or an atom.

    A predicate symbol is a predicate variable when it starts with an
    upper-case letter or an underscore *and* is not a declared relation
    name; otherwise it is a relation name.
    """
    looks_second_order = predicate[0].isupper() or predicate[0] == "_"
    is_pattern = looks_second_order and predicate not in relation_names
    return LiteralScheme(predicate, terms, is_pattern=is_pattern)


def parse_metaquery(text: str, relation_names: Iterable[str] = (), name: str | None = None) -> MetaQuery:
    """Parse a metaquery such as ``"R(X,Z) <- P(X,Y), Q(Y,Z)"``.

    ``relation_names`` lists identifiers that must be treated as relation
    names even if they start with an upper-case letter (useful when a schema
    uses capitalised relation names).
    """
    known = frozenset(relation_names)
    parser = _Parser(text)

    def parse_scheme() -> LiteralScheme:
        predicate = parser.expect("ident").value
        parser.expect("lparen")
        terms: list[Term] = []
        if not parser.accept("rparen"):
            terms.append(parser.parse_term())
            while parser.accept("comma"):
                terms.append(parser.parse_term())
            parser.expect("rparen")
        return _scheme_from_parsed(predicate, terms, known)

    head = parse_scheme()
    parser.expect("arrow")
    body = [parse_scheme()]
    while parser.accept("comma"):
        body.append(parse_scheme())
    parser.accept("dot")
    if not parser.at_end():
        raise ParseError("trailing input after metaquery", text)
    return MetaQuery(head, body, name=name)
