"""Answers to metaqueries: instantiated rules together with their indices."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.instantiation import Instantiation
from repro.datalog.rules import HornRule

__all__ = [
    "exact_fraction",
    "validate_threshold",
    "Thresholds",
    "MetaqueryAnswer",
    "AnswerSet",
]


def exact_fraction(value: float | int | str | Fraction) -> Fraction:
    """Coerce a threshold to an *exact* :class:`Fraction`.

    Floats are converted through their shortest round-trip decimal
    representation (``Fraction(str(value))``), so ``0.3`` becomes exactly
    ``3/10`` and ``1e-10`` exactly ``1/10**10``.  Never use
    ``limit_denominator``: rounding a threshold can silently flip the
    paper's strict ``I(σ(MQ)) > k`` comparisons (e.g. a denominator cap of
    ``10**9`` collapses ``1e-10`` to ``0``, turning a ``> 1e-10`` test into
    ``> 0``).  Fractions pass through unchanged; ints and numeric strings go
    straight to :class:`Fraction`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def validate_threshold(
    value: float | int | str | Fraction, exc: type[Exception] = ValueError
) -> Fraction:
    """Exactly coerce a decision threshold and enforce the paper's ``0 <= k < 1``.

    ``exc`` lets callers raise their domain-specific exception type.
    """
    k = exact_fraction(value)
    if not 0 <= k < 1:
        raise exc(f"threshold must satisfy 0 <= k < 1, got {k}")
    return k


def _as_fraction(value: float | int | str | Fraction | None) -> Fraction | None:
    if value is None:
        return None
    return exact_fraction(value)


@dataclass(frozen=True)
class Thresholds:
    """User-provided admissibility thresholds for the three indices.

    Each threshold ``k`` filters answers by the *strict* comparison
    ``index > k`` (matching the decision problems of Section 3.2).  A value
    of ``None`` disables filtering on that index; note that ``None`` and
    ``0`` differ: ``0`` still excludes rules whose index is exactly zero.
    Floats are coerced to exact fractions through their shortest decimal
    representation (see :func:`exact_fraction`), so ``support=0.2`` means
    exactly ``sup > 1/5`` — never a rounded binary float.

    Thresholds also steer :meth:`MetaqueryEngine.find_rules`'s
    ``algorithm="auto"`` dispatch: with at least one threshold enabled the
    engine runs FindRules (whose pruning needs a threshold to be sound),
    with ``Thresholds.none()`` it falls back to the naive engine.

    Examples
    --------
    >>> t = Thresholds(support=0.2, confidence=0.5)
    >>> t.support
    Fraction(1, 5)
    >>> t.accepts(Fraction(1, 4), Fraction(3, 4), Fraction(0))
    True
    >>> t.accepts(Fraction(1, 5), Fraction(3, 4), Fraction(0))  # strict >
    False
    """

    support: Fraction | None = None
    confidence: Fraction | None = None
    cover: Fraction | None = None

    def __init__(
        self,
        support: float | Fraction | None = None,
        confidence: float | Fraction | None = None,
        cover: float | Fraction | None = None,
    ) -> None:
        object.__setattr__(self, "support", _as_fraction(support))
        object.__setattr__(self, "confidence", _as_fraction(confidence))
        object.__setattr__(self, "cover", _as_fraction(cover))

    @classmethod
    def none(cls) -> "Thresholds":
        """No filtering at all (every instantiation is reported)."""
        return cls(None, None, None)

    @classmethod
    def positive(cls) -> "Thresholds":
        """All three indices strictly positive (the threshold-0 problems)."""
        return cls(0, 0, 0)

    def accepts(self, support: Fraction, confidence: Fraction, cover: Fraction) -> bool:
        """True when the given index values pass every enabled threshold."""
        if self.support is not None and not support > self.support:
            return False
        if self.confidence is not None and not confidence > self.confidence:
            return False
        if self.cover is not None and not cover > self.cover:
            return False
        return True

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for label, value in (("sup", self.support), ("cnf", self.confidence), ("cvr", self.cover)):
            if value is not None:
                parts.append(f"{label}>{value}")
        return ", ".join(parts) or "no thresholds"


@dataclass(frozen=True)
class MetaqueryAnswer:
    """One answer: an instantiation, the induced Horn rule, and its indices."""

    instantiation: Instantiation
    rule: HornRule
    support: Fraction
    confidence: Fraction
    cover: Fraction

    def indices(self) -> dict[str, Fraction]:
        """The three index values as a dictionary keyed by short name."""
        return {"sup": self.support, "cnf": self.confidence, "cvr": self.cover}

    def index(self, name: str) -> Fraction:
        """Look up one index value by its short name (``sup``/``cnf``/``cvr``)."""
        return self.indices()[name]

    def __str__(self) -> str:
        return (
            f"{self.rule}   [sup={float(self.support):.3f}, "
            f"cnf={float(self.confidence):.3f}, cvr={float(self.cover):.3f}]"
        )


class AnswerSet:
    """A collection of metaquery answers with convenience filters and reports.

    ``algorithm`` records which engine actually produced the answers
    (``"naive"`` or ``"findrules"``); :meth:`MetaqueryEngine.find_rules`
    sets it so that ``algorithm="auto"`` runs cannot be mislabelled in
    benchmark ablations.  It is ``None`` for hand-built sets.

    Answers keep the engine's emission order, which is deterministic for a
    given database/metaquery/type — identical across the ``cache``,
    ``batch``, ``columnar`` and ``workers`` ablation arms — so two answer
    sets from equivalent runs compare byte-for-byte; the benchmark's
    reference check and the differential property tests rely on exactly
    that.

    Examples
    --------
    >>> answers = engine.find_rules(mq, Thresholds(support=0.2))  # doctest: +SKIP
    >>> answers.sorted_by("cnf").best("cnf")                      # doctest: +SKIP
    >>> print(answers.above(Thresholds.positive()).to_table())    # doctest: +SKIP
    """

    def __init__(
        self, answers: Iterable[MetaqueryAnswer] = (), algorithm: str | None = None
    ) -> None:
        self._answers = list(answers)
        self.algorithm = algorithm

    @classmethod
    def collect(
        cls, stream: Iterable[MetaqueryAnswer], algorithm: str | None = None
    ) -> "AnswerSet":
        """Materialize a (possibly streaming) answer iterator into a set.

        The inverse of streaming: ``AnswerSet.collect(prepared.stream())``
        is byte-identical to the one-shot ``find_rules`` result, because the
        streaming paths emit in exactly the materialized order.  Spelled as
        a named constructor so call sites read as the request lifecycle's
        final step (request → prepare → stream → *collect*).
        """
        return cls(stream, algorithm=algorithm)

    def __len__(self) -> int:
        return len(self._answers)

    def __iter__(self) -> Iterator[MetaqueryAnswer]:
        return iter(self._answers)

    def __getitem__(self, index: int) -> MetaqueryAnswer:
        return self._answers[index]

    def __bool__(self) -> bool:
        return bool(self._answers)

    def append(self, answer: MetaqueryAnswer) -> None:
        """Add one answer."""
        self._answers.append(answer)

    def rules(self) -> list[HornRule]:
        """The instantiated Horn rules, in answer order."""
        return [answer.rule for answer in self._answers]

    def filter(self, predicate: Callable[[MetaqueryAnswer], bool]) -> "AnswerSet":
        """A new answer set keeping only answers satisfying the predicate."""
        return AnswerSet((a for a in self._answers if predicate(a)), algorithm=self.algorithm)

    def above(self, thresholds: Thresholds) -> "AnswerSet":
        """Answers passing the given thresholds."""
        return self.filter(lambda a: thresholds.accepts(a.support, a.confidence, a.cover))

    def sorted_by(self, index_name: str, descending: bool = True) -> "AnswerSet":
        """Answers sorted by one index (``sup``/``cnf``/``cvr``)."""
        return AnswerSet(
            sorted(self._answers, key=lambda a: a.index(index_name), reverse=descending),
            algorithm=self.algorithm,
        )

    def best(self, index_name: str) -> MetaqueryAnswer | None:
        """The single best answer for an index, or None when empty."""
        ordered = self.sorted_by(index_name)
        return ordered[0] if ordered else None

    def contains_rule(self, rule: HornRule) -> bool:
        """True when an answer's rule equals the given rule (atom-set equality)."""
        target = (rule.head, frozenset(rule.body))
        return any((a.rule.head, frozenset(a.rule.body)) == target for a in self._answers)

    def to_table(self, max_rows: int | None = None) -> str:
        """A plain-text table of the answers (used by examples and benches)."""
        lines = [f"{'rule':<60} {'sup':>7} {'cnf':>7} {'cvr':>7}"]
        rows = self._answers if max_rows is None else self._answers[:max_rows]
        for answer in rows:
            # Display-only rounding; the stored indexes stay exact Fractions.
            sup, cnf, cvr = float(answer.support), float(answer.confidence), float(answer.cover)  # repro-lint: disable=exact-arithmetic
            lines.append(
                f"{str(answer.rule):<60} {sup:>7.3f} {cnf:>7.3f} {cvr:>7.3f}"
            )
        if max_rows is not None and len(self._answers) > max_rows:
            lines.append(f"... ({len(self._answers) - max_rows} more answers)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AnswerSet({len(self._answers)} answers)"
