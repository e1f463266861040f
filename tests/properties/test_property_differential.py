"""Differential properties over random metaqueries and databases.

The other property suites mine two fixed metaqueries.  This one draws the
metaquery too, in the sense of Section 2.1, so every acceleration layer
is checked against the reference on shapes nobody wrote down:

* bodies of 1–3 literal schemes, about 15% of them triangles (the cyclic
  ``P(X,Y), Q(Y,Z), S(Z,X)``);
* relation patterns and ordinary atoms, constants, repeated ordinary
  variables and repeated predicate variables;
* relations of arity 1–3;
* types 0, 1 and 2 (0 and 1 only for pure metaqueries);
* four threshold sets: none, ``support > 0``, the Figure-4 set, and
  ``support > 1/10`` with ``confidence > 0``.

Properties:

* the production defaults ``MetaqueryEngine(db)`` equal the reference
  engine (serial, no memo cache, no batching, no columnar kernels, no
  request cache) byte for byte — every encoded answer line, in order — for
  ``naive``, ``findrules`` and ``auto``, and for ``decide``/``witness`` on
  sup/cnf/cvr at ``k`` in {0, 1/4};
* FindRules equals naive as sorted lines (FindRules emits in
  decomposition order, naive in enumeration order);
* every rule either engine answers has fresh type-2 padding
  (Definition 2.4), checked from the atoms without reading padding names —
  the reference shares the enumerator, so this is the independent check;
* the same byte-identity holds at ``workers=2``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.answers import MetaqueryAnswer, Thresholds
from repro.core.engine import MetaqueryEngine
from repro.core.instantiation import enumerate_instantiations
from repro.core.metaquery import LiteralScheme, MetaQuery
from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, Term, Variable
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.server.service import encode_answer

#: The reference engine: every acceleration switch off.
REFERENCE = {
    "workers": 1,
    "cache": False,
    "batch": False,
    "columnar": False,
    "request_cache": None,
}

ALGORITHMS = ("naive", "findrules", "auto")
INDICES = ("sup", "cnf", "cvr")
KS = (Fraction(0), Fraction(1, 4))
THRESHOLD_SETS = (
    None,
    Thresholds(support=Fraction(0)),
    Thresholds(support=Fraction(1, 5), confidence=Fraction(3, 10), cover=Fraction(1, 10)),
    Thresholds(support=Fraction(1, 10), confidence=Fraction(0)),
)

VARIABLES = tuple(Variable(name) for name in ("X", "Y", "Z", "W"))
PREDICATE_VARIABLES = ("P", "Q", "S")

#: Cases with more instantiations are rejected: a type-2 triangle over
#: three ternary relations has tens of thousands, and the uncached
#: reference needs seconds for it.
MAX_INSTANTIATIONS = 400


@st.composite
def databases(draw):
    """2–3 relations of arity 1–3 over a domain of 2–3 values."""
    domain = st.integers(min_value=0, max_value=draw(st.integers(min_value=1, max_value=2)))
    relations = []
    for i in range(draw(st.integers(min_value=2, max_value=3))):
        arity = draw(st.integers(min_value=1, max_value=3))
        rows = draw(st.frozensets(st.tuples(*[domain] * arity), max_size=5))
        relations.append(Relation.from_rows(f"r{i}", ("a", "b", "c")[:arity], rows))
    return Database(relations, name="differential")


@st.composite
def cases(draw):
    """``(db, mq, itype, thresholds)``: a database and a metaquery over it."""
    db = draw(databases())
    constants = sorted(db.active_domain()) or [0]
    # One arity per predicate variable keeps most metaqueries pure; a few
    # schemes break it, so type 2 also meets impure metaqueries.
    arity_of = {
        name: draw(st.integers(min_value=1, max_value=3)) for name in PREDICATE_VARIABLES
    }

    def terms(arity):
        return [
            Constant(draw(st.sampled_from(constants)))
            if draw(st.integers(min_value=0, max_value=99)) < 15
            else draw(st.sampled_from(VARIABLES))
            for _ in range(arity)
        ]

    def scheme():
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            relation = draw(st.sampled_from(list(db)))
            return LiteralScheme.atom(relation.name, terms(relation.arity))
        name = draw(st.sampled_from(PREDICATE_VARIABLES))
        arity = arity_of[name]
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            arity = draw(st.integers(min_value=1, max_value=3))
        return LiteralScheme.pattern(name, terms(arity))

    if draw(st.integers(min_value=0, max_value=19)) < 3:
        x, y, z = VARIABLES[:3]
        names = [draw(st.sampled_from(PREDICATE_VARIABLES)) for _ in range(3)]
        body = [
            LiteralScheme.pattern(names[0], [x, y]),
            LiteralScheme.pattern(names[1], [y, z]),
            LiteralScheme.pattern(names[2], [z, x]),
        ]
    else:
        body = [scheme() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    mq = MetaQuery(scheme(), body)
    itype = draw(st.sampled_from([0, 1, 2])) if mq.is_pure() else 2
    instantiations = enumerate_instantiations(mq, db, itype)
    assume(sum(1 for _ in islice(instantiations, MAX_INSTANTIATIONS + 1)) <= MAX_INSTANTIATIONS)
    return db, mq, itype, draw(st.sampled_from(THRESHOLD_SETS))


def lines(answers: Iterable[MetaqueryAnswer]) -> list[str]:
    return [encode_answer(answer) for answer in answers]


def transcript(engine: MetaqueryEngine, mq, itype, thresholds) -> list[list[str]]:
    """Every call the property compares, as encoded lines in emission order."""
    out = [lines(engine.stream(mq, thresholds, itype, algorithm)) for algorithm in ALGORITHMS]
    for index in INDICES:
        for k in KS:
            witness = engine.witness(mq, index, k, itype)
            out.append([
                str(engine.decide(mq, index, k, itype)).lower(),
                "null" if witness is None else encode_answer(witness),
            ])
    return out


def padding(pattern: LiteralScheme, atom: Atom) -> list[Term]:
    """The image's terms left once each pattern argument is matched once."""
    rest = list(atom.terms)
    for t in pattern.terms:
        rest.remove(t)
    return rest


@settings(max_examples=80, deadline=None)
@given(case=cases())
def test_production_defaults_match_the_reference(case):
    db, mq, itype, thresholds = case
    expected = transcript(MetaqueryEngine(db, **REFERENCE), mq, itype, thresholds)
    assert transcript(MetaqueryEngine(db), mq, itype, thresholds) == expected


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_findrules_equals_naive_as_sorted_lines(case):
    db, mq, itype, thresholds = case
    engine = MetaqueryEngine(db)
    naive = lines(engine.stream(mq, thresholds, itype, "naive"))
    findrules = lines(engine.stream(mq, thresholds, itype, "findrules"))
    assert sorted(findrules) == sorted(naive)


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_padding_is_fresh_in_every_answer(case):
    """Each padding position holds its own variable, no two patterns share
    one, and none is an ordinary variable of the rule."""
    db, mq, itype, _ = case
    ordinary = set(mq.ordinary_variables)
    engine = MetaqueryEngine(db)
    for algorithm in ("naive", "findrules"):
        for answer in engine.stream(mq, None, itype, algorithm):
            used: set[Term] = set()
            for pattern, atom in answer.instantiation.mapping:
                pads = padding(pattern, atom)
                assert all(isinstance(t, Variable) for t in pads), answer.rule
                assert len(set(pads)) == len(pads), answer.rule
                assert not set(pads) & (ordinary | used), answer.rule
                used.update(pads)


@settings(max_examples=5, deadline=None)
@given(case=cases())
def test_pooled_engine_matches_the_reference(case):
    db, mq, itype, thresholds = case
    expected = transcript(MetaqueryEngine(db, **REFERENCE), mq, itype, thresholds)
    with MetaqueryEngine(db, workers=2) as engine:
        assert transcript(engine, mq, itype, thresholds) == expected
