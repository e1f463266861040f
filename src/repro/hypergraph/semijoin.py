"""Semijoin programs, full reducers and Yannakakis-style acyclic evaluation.

Definitions 4.1 and 4.4 of the paper: a *semijoin step* is ``ri := ri ⋉ rj``;
a *full reducer* is a semijoin program that leaves every relation reduced
w.r.t. the others, and it exists exactly for semi-acyclic atom sets.  For a
rooted join tree, the full reducer is the concatenation of a bottom-up
*first half* and its reversed/flipped *second half* (Example 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.exceptions import DecompositionError
from repro.hypergraph.jointree import JoinTree
from repro.hypergraph.hypergraph import Label
from repro.relational.algebra import natural_join_all
from repro.relational.relation import Relation

__all__ = [
    "SemijoinStep",
    "first_half",
    "second_half",
    "full_reducer",
    "execute_semijoin_program",
    "execute_full_reducer",
    "is_reduced",
    "yannakakis_join",
]


@dataclass(frozen=True)
class SemijoinStep:
    """One step ``target := target ⋉ source`` of a semijoin program."""

    target: Label
    source: Label

    def __str__(self) -> str:
        return f"{self.target} := {self.target} ⋉ {self.source}"


def first_half(tree: JoinTree) -> list[SemijoinStep]:
    """The bottom-up half of the full reducer for a rooted join tree.

    Visiting nodes leaves-first, each node absorbs a semijoin from every one
    of its children: ``parent := parent ⋉ child``.
    """
    steps: list[SemijoinStep] = []
    for node in tree.bottom_up():
        for child in tree.children(node):
            steps.append(SemijoinStep(target=node, source=child))
    return steps


def second_half(tree: JoinTree) -> list[SemijoinStep]:
    """The top-down half: reverse the first half and swap the roles."""
    return [SemijoinStep(target=step.source, source=step.target) for step in reversed(first_half(tree))]


def full_reducer(tree: JoinTree) -> list[SemijoinStep]:
    """The full reducer: first half followed by second half (Example 4.5)."""
    return first_half(tree) + second_half(tree)


def execute_semijoin_program(
    steps: Sequence[SemijoinStep], relations: Mapping[Label, Relation]
) -> dict[Label, Relation]:
    """Run a semijoin program over a ``{label: relation}`` dictionary.

    The input mapping is not modified; a new mapping with the (possibly)
    reduced relations is returned.
    """
    state: dict[Label, Relation] = dict(relations)
    for step in steps:
        if step.target not in state or step.source not in state:
            raise DecompositionError(f"semijoin step {step} references an unknown relation")
        state[step.target] = state[step.target].semijoin(state[step.source])
    return state


def execute_full_reducer(
    tree: JoinTree, relations: Mapping[Label, Relation]
) -> dict[Label, Relation]:
    """Fully reduce the relations attached to a join tree's nodes."""
    missing = [label for label in tree.nodes if label not in relations]
    if missing:
        raise DecompositionError(f"relations missing for join tree nodes: {missing}")
    return execute_semijoin_program(full_reducer(tree), relations)


def is_reduced(relations: Mapping[Label, Relation]) -> bool:
    """Check Definition 4.1: every relation equals the projection of the full join.

    Quadratic in the join size; used by tests, not by the engine itself.
    """
    rels = list(relations.values())
    if not rels:
        return True
    joined = natural_join_all(rels)
    for relation in rels:
        projected = joined.project([c for c in relation.columns if c in joined.columns])
        reduced = {tuple(row) for row in projected}
        original = {
            tuple(row[relation.columns.index(c)] for c in relation.columns if c in joined.columns)
            for row in relation
        }
        if original != reduced:
            return False
    return True


def yannakakis_join(tree: JoinTree, relations: Mapping[Label, Relation]) -> Relation:
    """Compute the full natural join of the node relations via Yannakakis.

    After running the full reducer, joining bottom-up never produces
    dangling tuples, so intermediate results stay bounded by the output plus
    input size — the hallmark of acyclic-query evaluation (and the engine
    behind the LOGCFL membership of Theorem 3.32 in the sequential world).
    """
    reduced = execute_full_reducer(tree, relations)
    # Join children into parents bottom-up.
    accumulated: dict[Label, Relation] = dict(reduced)
    for node in tree.bottom_up():
        for child in tree.children(node):
            accumulated[node] = accumulated[node].natural_join(accumulated[child])
    return accumulated[tree.root]
