"""Tests for terms, atoms and the term coercion convention."""

import pytest

from repro.datalog.atoms import Atom, variables_of
from repro.datalog.terms import Constant, Variable, term
from repro.exceptions import DatalogError


class TestTerms:
    def test_term_coercion_uppercase_is_variable(self):
        assert term("X") == Variable("X")
        assert term("_anon") == Variable("_anon")

    def test_term_coercion_lowercase_is_constant(self):
        assert term("rome") == Constant("rome")

    def test_term_coercion_numbers_and_passthrough(self):
        assert term(42) == Constant(42)
        assert term(Variable("Y")) == Variable("Y")
        assert term(Constant("a")) == Constant("a")

    def test_variable_flags(self):
        assert Variable("X").is_variable
        assert not Variable("X").is_constant
        assert Constant(1).is_constant


class TestAtoms:
    def test_basic_properties(self):
        atom = Atom("edge", ["X", "Y"])
        assert atom.predicate == "edge"
        assert atom.arity == 2
        assert atom.variables == (Variable("X"), Variable("Y"))

    def test_variables_deduplicated_in_order(self):
        atom = Atom("r", ["X", "Y", "X"])
        assert atom.variables == (Variable("X"), Variable("Y"))

    def test_constants(self):
        atom = Atom("r", ["X", 1, "rome"])
        assert atom.constants == (Constant(1), Constant("rome"))

    def test_is_ground_and_as_row(self):
        atom = Atom("r", [1, "a"])
        assert atom.is_ground()
        assert atom.as_row() == (1, "a")

    def test_as_row_on_nonground_raises(self):
        with pytest.raises(DatalogError):
            Atom("r", ["X"]).as_row()

    def test_substitute(self):
        atom = Atom("r", ["X", "Y"])
        result = atom.substitute({Variable("X"): Constant(5)})
        assert result == Atom("r", [5, "Y"])

    def test_ground(self):
        atom = Atom("r", ["X", "Y"])
        grounded = atom.ground({Variable("X"): 1, Variable("Y"): 2})
        assert grounded.is_ground()
        assert grounded.as_row() == (1, 2)

    def test_ground_missing_variable_raises(self):
        with pytest.raises(DatalogError):
            Atom("r", ["X"]).ground({})

    def test_empty_predicate_rejected(self):
        with pytest.raises(DatalogError):
            Atom("", ["X"])

    def test_str(self):
        assert str(Atom("edge", ["X", 1])) == "edge(X, 1)"

    def test_variables_of_multiple_atoms(self):
        atoms = [Atom("r", ["X", "Y"]), Atom("s", ["Y", "Z"])]
        assert variables_of(atoms) == (Variable("X"), Variable("Y"), Variable("Z"))
