"""Tests for metaquery syntax, parsing and purity."""

import pytest

from repro.core.metaquery import LiteralScheme, MetaQuery, parse_metaquery
from repro.datalog.atoms import Atom
from repro.datalog.terms import Variable
from repro.exceptions import MetaqueryError, ParseError


class TestLiteralScheme:
    def test_pattern_and_atom_constructors(self):
        pattern = LiteralScheme.pattern("P", ["X", "Y"])
        atom = LiteralScheme.atom("edge", ["X", "Y"])
        assert pattern.is_pattern
        assert not atom.is_pattern
        assert pattern.arity == atom.arity == 2

    def test_ordinary_variables_deduplicated(self):
        scheme = LiteralScheme.pattern("P", ["X", "Y", "X"])
        assert [v.name for v in scheme.ordinary_variables] == ["X", "Y"]

    def test_all_variables_includes_predicate_variable(self):
        scheme = LiteralScheme.pattern("P", ["X"])
        assert scheme.all_variables == ("P", "X")
        atom = LiteralScheme.atom("edge", ["X"])
        assert atom.all_variables == ("X",)

    def test_as_atom(self):
        scheme = LiteralScheme.atom("edge", ["X", 3])
        assert scheme.as_atom() == Atom("edge", ["X", 3])

    def test_as_atom_on_pattern_raises(self):
        with pytest.raises(MetaqueryError):
            LiteralScheme.pattern("P", ["X"]).as_atom()

    def test_from_atom_roundtrip(self):
        atom = Atom("edge", ["X", "Y"])
        assert LiteralScheme.from_atom(atom).as_atom() == atom

    def test_empty_predicate_rejected(self):
        with pytest.raises(MetaqueryError):
            LiteralScheme("", ["X"], is_pattern=True)

    def test_str(self):
        assert str(LiteralScheme.pattern("P", ["X", "Y"])) == "P(X, Y)"


class TestMetaQuery:
    def test_paper_metaquery_4(self):
        mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
        assert mq.predicate_variables == ("R", "P", "Q")
        assert len(mq.relation_patterns) == 3
        assert len(mq.literal_schemes) == 3
        assert [v.name for v in mq.ordinary_variables] == ["X", "Z", "Y"]
        assert mq.is_pure()

    def test_empty_body_rejected(self):
        with pytest.raises(MetaqueryError):
            MetaQuery(LiteralScheme.pattern("P", ["X"]), [])

    def test_purity_violation(self):
        mq = MetaQuery(
            LiteralScheme.pattern("P", ["X"]),
            [LiteralScheme.pattern("P", ["X", "Y"])],
        )
        assert not mq.is_pure()
        with pytest.raises(MetaqueryError):
            mq.pattern_arities()

    def test_pattern_arities(self):
        mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
        assert mq.pattern_arities() == {"R": 2, "P": 2, "Q": 2}

    def test_mixed_patterns_and_atoms(self):
        mq = parse_metaquery("N(X) <- N(Y), edge(X, Y)")
        assert mq.predicate_variables == ("N",)
        assert [s.predicate for s in mq.body] == ["N", "edge"]
        assert mq.body[1].is_pattern is False
        assert mq.is_second_order()

    def test_relation_names_override_capitalisation(self):
        mq = parse_metaquery("Edge(X,Y) <- Edge(Y,X)", relation_names=["Edge"])
        assert not mq.is_second_order()

    def test_duplicate_patterns_deduplicated_in_rep(self):
        mq = parse_metaquery("E(X,Y) <- E(X,Y), E(Y,Z)")
        assert len(mq.relation_patterns) == 2  # E(X,Y) appears twice but is one pattern
        assert mq.predicate_variables == ("E",)

    def test_body_ordinary_variables(self):
        mq = parse_metaquery("R(W,Z) <- P(X,Y), Q(Y,Z)")
        assert [v.name for v in mq.body_ordinary_variables] == ["X", "Y", "Z"]

    def test_equality_and_hash(self):
        a = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
        b = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
        c = parse_metaquery("R(X,Z) <- Q(X,Y), P(Y,Z)")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_str_roundtrip(self):
        mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
        assert parse_metaquery(str(mq)) == mq

    def test_parse_error_on_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_metaquery("R(X) <- P(X) P(Y)")

    def test_parse_with_constants(self):
        mq = parse_metaquery("R(X) <- P(X, gold), Q(X, 5)")
        terms = mq.body[0].terms
        assert terms[1].is_constant
        assert mq.body[1].terms[1].is_constant

    def test_first_order_metaquery(self):
        mq = parse_metaquery("reach(X,Z) <- edge(X,Y), edge(Y,Z)")
        assert not mq.is_second_order()
        assert mq.relation_patterns == ()
        assert mq.is_pure()

    def test_variable_named_with_underscore_prefix(self):
        mq = parse_metaquery("R(X) <- P(X, _pad)")
        assert Variable("_pad") in mq.body[0].ordinary_variables

    def test_padding_prefix_is_reserved(self):
        """An ordinary variable named like type-2 padding could turn into a
        join with the padding the enumerator adds (Definition 2.4)."""
        with pytest.raises(MetaqueryError, match="_T2_"):
            parse_metaquery("R(X,_T2_1) <- P(X,_T2_1)")
        with pytest.raises(MetaqueryError):
            parse_metaquery("R(X) <- P(X), edge(X, _T2_0_1)")

    def test_pattern_numbers_follow_relation_patterns(self):
        mq = parse_metaquery("R(X,Z) <- P(X,Y), R(X,Z), Q(Y,Z)")
        assert mq.pattern_numbers == {
            LiteralScheme.pattern("R", ["X", "Z"]): 0,
            LiteralScheme.pattern("P", ["X", "Y"]): 1,
            LiteralScheme.pattern("Q", ["Y", "Z"]): 2,
        }
