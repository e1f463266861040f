"""Tests for type-0/1/2 instantiations (Definitions 2.1-2.4, 4.13)."""

import pytest

from repro.core.instantiation import (
    Instantiation,
    InstantiationType,
    count_instantiations,
    enumerate_instantiations,
    enumerate_pattern_images,
    enumerate_scheme_instantiations,
    is_valid_image,
)
from repro.core.metaquery import LiteralScheme, parse_metaquery
from repro.datalog.atoms import Atom
from repro.exceptions import InstantiationError, MetaqueryError

MQ = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")


class TestInstantiationObject:
    def test_functional_restriction_enforced(self):
        p1 = LiteralScheme.pattern("P", ["X", "Y"])
        p2 = LiteralScheme.pattern("P", ["Y", "Z"])
        with pytest.raises(InstantiationError):
            Instantiation({p1: Atom("r1", ["X", "Y"]), p2: Atom("r2", ["Y", "Z"])})

    def test_same_predicate_variable_same_relation_ok(self):
        p1 = LiteralScheme.pattern("P", ["X", "Y"])
        p2 = LiteralScheme.pattern("P", ["Y", "Z"])
        sigma = Instantiation({p1: Atom("r", ["X", "Y"]), p2: Atom("r", ["Y", "Z"])})
        assert sigma.predicate_assignment() == {"P": "r"}

    def test_non_pattern_rejected(self):
        with pytest.raises(InstantiationError):
            Instantiation({LiteralScheme.atom("edge", ["X"]): Atom("edge", ["X"])})

    def test_image_of_atom_scheme_is_itself(self):
        sigma = Instantiation({})
        scheme = LiteralScheme.atom("edge", ["X", "Y"])
        assert sigma.image(scheme) == Atom("edge", ["X", "Y"])

    def test_image_of_unmapped_pattern_raises(self):
        sigma = Instantiation({})
        with pytest.raises(InstantiationError):
            sigma.image(LiteralScheme.pattern("P", ["X"]))

    def test_apply_produces_horn_rule(self, telecom_db):
        sigma = next(enumerate_instantiations(MQ, telecom_db, 0))
        rule = sigma.apply(MQ)
        assert rule.head.arity == 2
        assert len(rule.body) == 2

    def test_agreement_and_composition(self):
        p = LiteralScheme.pattern("P", ["X", "Y"])
        q = LiteralScheme.pattern("Q", ["Y", "Z"])
        sigma = Instantiation({p: Atom("r1", ["X", "Y"])})
        mu = Instantiation({q: Atom("r2", ["Y", "Z"])})
        assert sigma.agrees_with(mu)
        combined = sigma.compose(mu)
        assert combined.covers(p) and combined.covers(q)

    def test_disagreement_on_shared_pattern(self):
        p = LiteralScheme.pattern("P", ["X", "Y"])
        sigma = Instantiation({p: Atom("r1", ["X", "Y"])})
        mu = Instantiation({p: Atom("r2", ["X", "Y"])})
        assert not sigma.agrees_with(mu)
        with pytest.raises(InstantiationError):
            sigma.compose(mu)

    def test_disagreement_on_shared_predicate_variable(self):
        p1 = LiteralScheme.pattern("P", ["X", "Y"])
        p2 = LiteralScheme.pattern("P", ["Z", "W"])
        sigma = Instantiation({p1: Atom("r1", ["X", "Y"])})
        mu = Instantiation({p2: Atom("r2", ["Z", "W"])})
        assert not sigma.agrees_with(mu)


class TestTypeValidation:
    pattern = LiteralScheme.pattern("P", ["X", "Y"])

    def test_type0_requires_identical_arguments(self):
        assert is_valid_image(self.pattern, Atom("r", ["X", "Y"]), 0)
        assert not is_valid_image(self.pattern, Atom("r", ["Y", "X"]), 0)
        assert not is_valid_image(self.pattern, Atom("r", ["X", "Y", "Z"]), 0)

    def test_type1_allows_permutation(self):
        assert is_valid_image(self.pattern, Atom("r", ["Y", "X"]), 1)
        assert not is_valid_image(self.pattern, Atom("r", ["X", "Z"]), 1)
        assert not is_valid_image(self.pattern, Atom("r", ["X", "Y", "W"]), 1)

    def test_type2_allows_padding(self):
        assert is_valid_image(self.pattern, Atom("r", ["Y", "F", "X"]), 2)
        assert not is_valid_image(self.pattern, Atom("r", ["X"]), 2)

    def test_type2_padding_must_be_fresh_variable(self):
        # padding with a constant is not allowed
        assert not is_valid_image(self.pattern, Atom("r", ["X", "Y", 5]), 2)
        # padding with a variable occurring elsewhere in the rule is not allowed
        assert not is_valid_image(
            self.pattern, Atom("r", ["X", "Y", "Z"]), 2, rule_variables=frozenset({"Z"})
        )
        # padding reusing a pattern variable is not allowed
        assert not is_valid_image(self.pattern, Atom("r", ["X", "Y", "X"]), 2)

    def test_type_hierarchy(self):
        """Every type-0 image is type-1, every type-1 image is type-2 (Section 2.1)."""
        images = [Atom("r", ["X", "Y"]), Atom("r", ["Y", "X"])]
        for atom in images:
            if is_valid_image(self.pattern, atom, 0):
                assert is_valid_image(self.pattern, atom, 1)
            if is_valid_image(self.pattern, atom, 1):
                assert is_valid_image(self.pattern, atom, 2)


class TestEnumeration:
    def test_type0_image_count(self, telecom_db):
        pattern = LiteralScheme.pattern("P", ["X", "Y"])
        images = list(enumerate_pattern_images(pattern, telecom_db, 0, number=0))
        # binary relations: usca, cate, uspt
        assert len(images) == 3
        assert all(tuple(map(str, a.terms)) == ("X", "Y") for a in images)

    def test_type1_image_count(self, telecom_db):
        pattern = LiteralScheme.pattern("P", ["X", "Y"])
        images = list(enumerate_pattern_images(pattern, telecom_db, 1, number=0))
        assert len(images) == 6  # 3 relations x 2 permutations

    def test_type2_image_count(self, telecom_db_prime):
        pattern = LiteralScheme.pattern("P", ["X", "Y"])
        images = list(enumerate_pattern_images(pattern, telecom_db_prime, 2, number=0))
        # usca, cate: arity 2 -> 2 placements each; uspt: arity 3 -> 3*2 = 6 placements
        assert len(images) == 2 + 2 + 6

    def test_type1_with_repeated_variable_deduplicates(self, telecom_db):
        pattern = LiteralScheme.pattern("P", ["X", "X"])
        images = list(enumerate_pattern_images(pattern, telecom_db, 1, number=0))
        assert len(images) == 3  # both permutations coincide

    def test_full_enumeration_counts(self, telecom_db):
        assert count_instantiations(MQ, telecom_db, 0) == 27
        assert count_instantiations(MQ, telecom_db, 1) == 27 * 8

    def test_type0_requires_pure(self, telecom_db):
        impure = parse_metaquery("P(X) <- P(X,Y)")
        with pytest.raises(MetaqueryError):
            list(enumerate_instantiations(impure, telecom_db, 0))

    def test_type2_allows_impure(self, telecom_db):
        impure = parse_metaquery("P(X) <- P(X,Y)")
        instantiations = list(enumerate_instantiations(impure, telecom_db, 2))
        assert instantiations
        for sigma in instantiations:
            assignment = sigma.predicate_assignment()
            assert len(assignment) == 1  # still functional on the predicate variable

    def test_enumeration_respects_base(self, telecom_db):
        base = Instantiation(
            {LiteralScheme.pattern("P", ["X", "Y"]): Atom("usca", ["X", "Y"])}
        )
        schemes = [LiteralScheme.pattern("P", ["X", "Y"]), LiteralScheme.pattern("Q", ["Y", "Z"])]
        results = list(
            enumerate_scheme_instantiations(schemes, telecom_db, 0, MQ.pattern_numbers, base=base)
        )
        assert len(results) == 3
        assert all(sigma.image(schemes[0]).predicate == "usca" for sigma in results)

    def test_shared_predicate_variable_consistency(self, telecom_db):
        mq = parse_metaquery("P(X,Z) <- P(X,Y), P(Y,Z)")
        for sigma in enumerate_instantiations(mq, telecom_db, 0):
            names = {atom.predicate for atom in sigma.as_dict().values()}
            assert len(names) == 1
        assert count_instantiations(mq, telecom_db, 0) == 3

    def test_type2_padding_variables_globally_fresh(self, telecom_db_prime):
        mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
        for sigma in enumerate_instantiations(mq, telecom_db_prime, 2):
            # one entry per atom a padding variable occurs in
            fresh = [
                v for atom in sigma.apply(mq).atoms for v in atom.variables
                if v.name.startswith("_T2_")
            ]
            assert len(fresh) == len(set(fresh))

    def test_type2_padding_named_by_pattern_and_position(self, telecom_db_prime):
        pattern = LiteralScheme.pattern("P", ["X", "Y"])
        images = {str(a) for a in enumerate_pattern_images(pattern, telecom_db_prime, 2, number=3)}
        assert {"uspt(X, Y, _T2_3_2)", "uspt(_T2_3_0, Y, X)"} <= images
        assert {"usca(X, Y)", "usca(Y, X)"} <= images

    def test_padding_names_do_not_depend_on_enumeration_order(self, telecom_db_prime):
        """The head's images are the same whether or not a body is fixed first."""
        numbering = MQ.pattern_numbers
        alone = list(enumerate_scheme_instantiations([MQ.head], telecom_db_prime, 2, numbering))
        base = next(enumerate_scheme_instantiations(MQ.body, telecom_db_prime, 2, numbering))
        after = list(
            enumerate_scheme_instantiations([MQ.head], telecom_db_prime, 2, numbering, base=base)
        )
        assert [s.image(MQ.head) for s in after] == [s.image(MQ.head) for s in alone]

    def test_fresh_variables_accessor(self, telecom_db_prime):
        mq = parse_metaquery("I(X) <- O(X)")
        sigmas = list(enumerate_instantiations(mq, telecom_db_prime, 2))
        padded = [s for s in sigmas if s.fresh_variables()]
        assert padded  # uspt has arity 3, so padding must occur


class TestInstantiationTypeEnum:
    def test_coerce(self):
        assert InstantiationType.coerce(0) is InstantiationType.TYPE_0
        assert InstantiationType.coerce(InstantiationType.TYPE_2) is InstantiationType.TYPE_2

    def test_coerce_invalid(self):
        with pytest.raises(ValueError):
            InstantiationType.coerce(7)
