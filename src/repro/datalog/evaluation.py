"""Evaluation of conjunctive queries over a relational database.

The central operator is :func:`atom_relation`, which turns an atom into a
relation over its *variables* (applying equality selections for repeated
variables and constants), and :func:`join_atoms`, which computes the paper's
``J(R)`` — the natural join of the relations corresponding to a set of atoms
(Section 2.2).  The columns of ``J(R)`` are exactly ``att(R)``, the distinct
variables of the atom set (in first-occurrence order), so ``|J(R)|`` counts
satisfying substitutions for those variables.

Every evaluation function accepts an optional
:class:`~repro.datalog.context.EvaluationContext` that memoizes atom
relations and joins across calls.  ``join_atoms`` evaluates an acyclic atom
set by the Yannakakis full-reducer pipeline (the paper's Section 4), which
keeps intermediate results bounded by input plus output size; cyclic sets
fall back to the greedy left-deep join.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.datalog.atoms import Atom, variables_of
from repro.datalog.rules import ConjunctiveQuery
from repro.datalog.terms import Constant, Variable
from repro.exceptions import DatalogError, UnknownRelationError
from repro.hypergraph.jointree import join_tree_for_variable_sets
from repro.hypergraph.semijoin import yannakakis_join
from repro.relational import columnar
from repro.relational.algebra import natural_join_all
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

__all__ = [
    "atom_relation",
    "join_atoms",
    "evaluate_query",
    "substitutions",
    "is_satisfiable",
    "ground_atom_holds",
    "ground_instance_holds",
    "project_join_onto",
    "query_answers",
    "apply_substitution_to_query",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.datalog.context import EvaluationContext


def _usable(ctx: "EvaluationContext | None", db: Database) -> "EvaluationContext | None":
    """The context if it is valid for ``db``, else None (silent bypass)."""
    if ctx is not None and ctx.applies_to(db):
        return ctx
    return None


def atom_relation(atom: Atom, db: Database, ctx: "EvaluationContext | None" = None) -> Relation:
    """The relation over ``atom``'s variables induced by the database.

    For an atom ``p(X, a, X)`` the result is the projection onto the distinct
    variables (here ``X``) of the tuples of ``p`` whose second column is the
    constant ``a`` and whose first and third column agree.

    For a fully ground atom the result is a zero-column relation that is
    non-empty iff the corresponding tuple is in the database (a boolean).
    """
    usable = _usable(ctx, db)
    if usable is not None:
        return usable.atom_relation(atom, lambda a: _atom_relation_direct(a, db))
    return _atom_relation_direct(atom, db)


def _atom_relation_direct(atom: Atom, db: Database) -> Relation:
    relation = db[atom.predicate]
    if relation.arity != atom.arity:
        raise DatalogError(
            f"atom {atom} has arity {atom.arity}, relation {atom.predicate!r} "
            f"has arity {relation.arity}"
        )
    var_first_pos: dict[Variable, int] = {}
    keep_positions: list[int] = []
    keep_names: list[str] = []
    for pos, t in enumerate(atom.terms):
        if isinstance(t, Variable) and t not in var_first_pos:
            var_first_pos[t] = pos
            keep_positions.append(pos)
            keep_names.append(t.name)
    schema = RelationSchema(f"[{atom}]", keep_names)

    if relation._kernels_apply():
        # Vectorized path: one fused constants + repeated-variable filter
        # plus first-occurrence projection over the encoded columns.  The
        # kept positions and the filters together determine the whole
        # input row, so the kernel output needs no deduplication.
        constants: list[tuple[int, object]] = []
        repeats: list[tuple[int, int]] = []
        for pos, t in enumerate(atom.terms):
            if isinstance(t, Constant):
                constants.append((pos, t.value))
            else:
                first = var_first_pos[t]
                if pos != first:
                    repeats.append((pos, first))
        store = columnar.atom_select_store(
            relation._ensure_columnar(db.dictionary),
            constants,
            repeats,
            keep_positions,
        )
        return Relation._from_columnar(schema, store)

    rows = []
    for row in relation:
        ok = True
        for pos, t in enumerate(atom.terms):
            if isinstance(t, Constant):
                if row[pos] != t.value:
                    ok = False
                    break
            else:
                first = var_first_pos[t]
                if row[pos] != row[first]:
                    ok = False
                    break
        if ok:
            rows.append(tuple(row[p] for p in keep_positions))
    return Relation._from_frozen(schema, frozenset(rows))


def _acyclic_join(atoms: Sequence[Atom], relations: Sequence[Relation]) -> Relation | None:
    """Join via the Yannakakis full reducer, or None when the set is cyclic.

    The hypergraph has one edge per atom (labelled by position, so repeated
    variable sets stay distinct) over the atoms' variable names.  Ground
    atoms contribute empty edges; the machinery treats them as isolated
    components, and their zero-column relations act as booleans in the
    semijoins and joins — exactly the paper's semantics.
    """
    edges = {i: frozenset(v.name for v in atom.variables) for i, atom in enumerate(atoms)}
    tree = join_tree_for_variable_sets(edges)
    if tree is None:
        return None
    return yannakakis_join(tree, {i: relations[i] for i in range(len(relations))})


def join_atoms(
    atoms: Iterable[Atom],
    db: Database,
    ctx: "EvaluationContext | None" = None,
) -> Relation:
    """``J(R)``: the natural join of the atom relations of ``atoms``.

    The result's columns are the distinct variable names of the atom set in
    first-occurrence order.  An empty atom collection is rejected (the paper
    never joins zero atoms).
    """
    atoms = list(atoms)
    if not atoms:
        raise DatalogError("join_atoms requires at least one atom")
    usable = _usable(ctx, db)
    if usable is not None:
        return usable.join_atoms(atoms, lambda: _join_atoms_direct(atoms, db, usable))
    return _join_atoms_direct(atoms, db, None)


def _join_atoms_direct(
    atoms: Sequence[Atom],
    db: Database,
    ctx: "EvaluationContext | None",
) -> Relation:
    relations = [atom_relation(atom, db, ctx) for atom in atoms]
    joined: Relation | None = None
    if len(relations) > 1:
        joined = _acyclic_join(atoms, relations)
    if joined is None:
        joined = natural_join_all(relations)
    wanted = tuple(v.name for v in variables_of(atoms))
    if joined.columns != wanted:
        joined = joined.project(wanted)
    return joined


def evaluate_query(
    query: ConjunctiveQuery, db: Database, ctx: "EvaluationContext | None" = None
) -> Relation:
    """Evaluate a conjunctive query, returning the relation over its variables."""
    return join_atoms(query.atoms, db, ctx)


def substitutions(
    query: ConjunctiveQuery, db: Database, ctx: "EvaluationContext | None" = None
) -> Iterator[dict[Variable, object]]:
    """Iterate over satisfying substitutions of the query's variables.

    Each substitution is a ``{Variable: value}`` dict covering every variable
    of the query.  The order of iteration is unspecified but deterministic
    for a fixed database.
    """
    result = evaluate_query(query, db, ctx)
    variables = [Variable(name) for name in result.columns]
    for row in result.to_rows():
        yield dict(zip(variables, row))


def is_satisfiable(
    query: ConjunctiveQuery, db: Database, ctx: "EvaluationContext | None" = None
) -> bool:
    """The Boolean Conjunctive Query problem (Definition 3.2).

    True iff there exists a substitution making every atom a database fact.
    """
    return not evaluate_query(query, db, ctx).is_empty()


def ground_atom_holds(atom: Atom, db: Database) -> bool:
    """True when a ground atom's tuple belongs to the corresponding relation."""
    if not atom.is_ground():
        raise DatalogError(f"atom {atom} is not ground")
    try:
        relation = db[atom.predicate]
    except UnknownRelationError:
        return False
    if relation.arity != atom.arity:
        return False
    return atom.as_row() in relation


def ground_instance_holds(atoms: Sequence[Atom], db: Database) -> bool:
    """True when every ground atom of the sequence is a database fact.

    This is the "ground instance ... satisfied in DB" notion used by
    certifying sets (Definition 3.19).
    """
    return all(ground_atom_holds(atom, db) for atom in atoms)


def project_join_onto(
    atoms: Sequence[Atom],
    onto: Sequence[Atom],
    db: Database,
    ctx: "EvaluationContext | None" = None,
) -> Relation:
    """``π_att(onto)(J(atoms))`` restricted to the variables of ``onto``.

    Only variables of ``onto`` that actually occur in ``atoms`` are kept; any
    other variable of ``onto`` cannot constrain the join.
    """
    joined = join_atoms(atoms, db, ctx)
    wanted = [v.name for v in variables_of(onto) if v.name in joined.columns]
    return joined.project(wanted)


def query_answers(
    query: ConjunctiveQuery,
    db: Database,
    answer_variables: Sequence[Variable] | None = None,
    ctx: "EvaluationContext | None" = None,
) -> Relation:
    """Evaluate a query and project onto the requested answer variables.

    When ``answer_variables`` is None the full variable set is returned
    (i.e. the same as :func:`evaluate_query`).
    """
    result = evaluate_query(query, db, ctx)
    if answer_variables is None:
        return result
    names = [v.name for v in answer_variables]
    missing = [n for n in names if n not in result.columns]
    if missing:
        raise DatalogError(f"answer variables {missing} do not occur in the query")
    return result.project(names)


def apply_substitution_to_query(
    query: ConjunctiveQuery, substitution: Mapping[Variable, object]
) -> ConjunctiveQuery:
    """Ground (part of) a query using a ``{Variable: value}`` mapping."""
    mapping = {
        var: (value if isinstance(value, (Variable, Constant)) else Constant(value))
        for var, value in substitution.items()
    }
    return query.substitute(mapping)
