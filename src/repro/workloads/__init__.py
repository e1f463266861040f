"""Workload generators used by examples, tests and benchmarks.

* :mod:`~repro.workloads.telecom` — the paper's running example: the
  relations ``UsCa``, ``CaTe`` and ``UsPT`` of Figures 1 and 2, plus a
  scalable synthetic generator that preserves the same dependencies;
* :mod:`~repro.workloads.synthetic` — random databases with planted rules,
  chain/star-join databases for the scaling experiments;
* :mod:`~repro.workloads.scaling` — a chain database parameterised by its
  total tuple budget, the data-complexity benchmark's input;
* :mod:`~repro.workloads.graphs` — random graphs, guaranteed-3-colorable
  graphs, path/cycle graphs and Hamiltonian-path gadgets used by the
  hardness-reduction experiments;
* :mod:`~repro.workloads.university` — a second realistic scenario
  (students, courses, enrolments, prerequisites) used by the
  schema-driven-discovery example.
"""

from repro.workloads import graphs, scaling, synthetic, telecom, university

__all__ = ["telecom", "synthetic", "scaling", "graphs", "university"]
