"""A size-parameterised chain database for data-complexity measurements.

:func:`scaled_chain_database` takes the *total* tuple budget ``d`` as its
parameter while the metaquery shape stays fixed, so a measurement's x-axis
is the database size itself.  The ``join_cold`` workload of
``perfbench/workloads.py`` loads one at 3·10^4 tuples.

The generator delegates to :mod:`repro.workloads.synthetic` — it adds the
"budget" parameterisation, not new structure.
"""

from __future__ import annotations

from repro.relational.database import Database
from repro.workloads.synthetic import chain_database

__all__ = ["scaled_chain_database"]


def scaled_chain_database(
    total_tuples: int,
    relations: int = 5,
    planted_fraction: float = 0.3,
    seed: int = 0,
) -> Database:
    """A join-chain database holding ``total_tuples`` tuples overall.

    The budget is split evenly across ``relations`` binary relations; the
    domain grows with the per-relation size so selectivity stays roughly
    constant as ``d`` grows (doubling ``d`` should roughly double join
    input *and* output, which is the regime where the paper's ``d^c log d``
    body-phase cost is visible).
    """
    if total_tuples < relations:
        raise ValueError("total_tuples must be at least the relation count")
    per_relation = total_tuples // relations
    domain_size = max(4, per_relation // 2)
    return chain_database(
        relations=relations,
        tuples_per_relation=per_relation,
        domain_size=domain_size,
        planted_fraction=planted_fraction,
        seed=seed,
        name=f"scaled-chain-{total_tuples}",
    )
