"""Group actions, closure checks, orbit sums, shift criteria."""

import subprocess
import sys
from pathlib import Path

import pytest

from pgl3chow import intlinalg as la
from pgl3chow.checks import (
    SHIFT_DIRECTION,
    a3_on_u,
    gamma_generators,
    s3_on_u,
    s3_on_x,
    s3_on_xy,
    theta_torus,
    u_variables,
)
from pgl3chow.groups import MatrixGroup, literally_shift_invariant
from pgl3chow.poly import (
    INTEGERS,
    ContextMismatchError,
    Polynomial,
    RingMap,
    context,
    parse,
)
from pgl3chow.repcalc import T_PGL3_XY


class TestClosure:
    def test_two_variable_weyl_group(self):
        group = s3_on_xy()
        violations = group.closure_check()
        assert not violations
        assert len(group) == 6

    def test_trivial_group(self):
        ctx = context(("x", "y"))
        group = MatrixGroup(ctx, (("e", ((1, 0), (0, 1))),))
        violations = group.closure_check()
        assert not violations and len(group) == 1

    def test_constructed_violation(self):
        ctx = context(("x", "y"))
        # The shear has infinite order, so {e, M} cannot be closed.
        group = MatrixGroup(ctx, (
            ("e", ((1, 0), (0, 1))),
            ("m", ((1, 1), (0, 1))),
        ))
        violations = group.closure_check()
        assert violations
        assert any("escapes" in v for v in violations)

    def test_non_invertible_detected(self):
        ctx = context(("x", "y"))
        group = MatrixGroup(ctx, (
            ("e", ((1, 0), (0, 1))),
            ("m", ((2, 0), (0, 1))),
        ))
        violations = group.closure_check()
        assert violations
        assert any("determinant" in v for v in violations)


class TestAction:
    def test_transposition_on_x(self):
        group = s3_on_xy()
        x = Polynomial.variable(T_PGL3_XY.ctx, "x")
        y = Polynomial.variable(T_PGL3_XY.ctx, "y")
        assert group.act("(12)", x) == y

    def test_identity_action(self):
        group = s3_on_xy()
        g3_xy = parse("2*x^3 - 3*x^2*y - 3*x*y^2 + 2*y^3", T_PGL3_XY.ctx, INTEGERS)
        assert group.act("e", g3_xy) == g3_xy

    def test_three_cycle_fixes_gamma3(self):
        group = s3_on_xy()
        g3_xy = parse("2*x^3 - 3*x^2*y - 3*x*y^2 + 2*y^3", T_PGL3_XY.ctx, INTEGERS)
        assert group.act("(123)", g3_xy) == g3_xy

    def test_composition_law_full_enumeration(self):
        group = s3_on_u()
        u1, u2, _ = u_variables()
        sample = u1 ** 2 - 2 * u1 * u2 + 3 * u2 ** 2
        matrices = dict(group.elements)
        by_matrix = {m: label for label, m in group.elements}
        for la_, ma in group.elements:
            for lb, mb in group.elements:
                prod = tuple(tuple(r) for r in la.matmul(
                    [list(r) for r in ma], [list(r) for r in mb]))
                label = by_matrix[prod]
                assert group.act(label, sample) == group.act(
                    la_, group.act(lb, sample))


class TestElementMaps:
    def test_unknown_label_and_foreign_polynomial_rejected(self):
        group = s3_on_xy()
        x = Polynomial.variable(group.ctx, "x")
        with pytest.raises(KeyError, match="no element labeled"):
            group.act("(45)", x)
        foreign = Polynomial.variable(s3_on_x().ctx, "x1")
        with pytest.raises(ContextMismatchError):
            group.act("e", foreign)
        with pytest.raises(ContextMismatchError):
            group.orbit_sum(foreign)

    def test_groups_and_maps_built_once(self):
        for build in (s3_on_x, s3_on_xy, s3_on_u, a3_on_u):
            group = build()
            assert build() is group
            assert group._ring_maps is group._ring_maps
            assert len(group._ring_maps) == len(group)
        # A fresh group with the same elements acts the same way.
        group = s3_on_x()
        fresh = MatrixGroup(group.ctx, group.elements)
        g = gamma_generators()["gamma3"] + Polynomial.variable(group.ctx, "x1")
        for label in group.labels():
            assert group.act(label, g) == fresh.act(label, g)

    def test_nothing_built_at_import(self):
        probe = ("import pgl3chow.cli, pgl3chow.checks as c; "
                 "print(sum(f.cache_info().currsize for f in "
                 "(c.s3_on_x, c.s3_on_xy, c.s3_on_u, c.a3_on_u)))")
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", probe], check=True, timeout=60,
                             capture_output=True, text=True,
                             env={"PYTHONPATH": str(src)}).stdout
        assert out.strip() == "0"


def count_substitutions(monkeypatch):
    """A list that grows by one entry, the ring map, per ``RingMap.apply``."""
    calls = []
    real = RingMap.apply

    def spy(self, p):
        calls.append(self)
        return real(self, p)
    monkeypatch.setattr(RingMap, "apply", spy)
    return calls


class TestMovers:
    def test_weyl_groups_have_certified_generators(self):
        # Picked greedily in element order: the identity is a product of
        # none, (13) is not a power of (12), and the rest follow.
        for build, generators in ((s3_on_x, ("(12)", "(13)")),
                                  (s3_on_xy, ("(12)", "(13)")),
                                  (s3_on_u, ("(12)", "(13)")),
                                  (a3_on_u, ("(123)",))):
            group = build()
            assert tuple(group.labels()[i] for i in group._generators) == \
                generators

    def test_invariant_is_tested_by_the_generators_alone(self, monkeypatch):
        group = s3_on_x()
        gamma6 = gamma_generators()["gamma6"]
        group._generators  # certified before counting
        calls = count_substitutions(monkeypatch)
        assert group.movers(gamma6) == {}
        assert calls == [group._ring_maps[1], group._ring_maps[2]]

    def test_a_moved_polynomial_is_acted_on_by_every_element(self, monkeypatch):
        group = s3_on_x()
        x1 = Polynomial.variable(group.ctx, "x1")
        group._generators
        calls = count_substitutions(monkeypatch)
        movers = group.movers(x1)
        assert list(movers) == ["(12)", "(13)", "(123)", "(132)"]
        assert movers["(13)"] == Polynomial.variable(group.ctx, "x3")
        # The first generator moves x1, so every element acts.
        assert calls[1:] == list(group._ring_maps)

    def test_an_element_list_that_is_not_closed_acts_with_every_element(
            self, monkeypatch):
        full = s3_on_x()
        for labels in (("e", "(123)"), ("(12)",), ("(12)", "(13)")):
            group = MatrixGroup(full.ctx, tuple(
                (label, full.matrix(label)) for label in labels))
            assert group._generators is None, labels
            calls = count_substitutions(monkeypatch)
            assert group.movers(gamma_generators()["gamma2"]) == {}
            assert calls == list(group._ring_maps), labels
            monkeypatch.undo()
        # A shear has infinite order: its closure leaves the element set at
        # the first product, and the search stops there.
        ctx = context(("x", "y"))
        shear = MatrixGroup(ctx, (("e", ((1, 0), (0, 1))), ("s", ((1, 1), (0, 1)))))
        assert shear._generators is None
        y = Polynomial.variable(ctx, "y")
        assert list(shear.movers(y)) == [label for label in shear.labels()
                                         if shear.act(label, y) != y]

    def test_foreign_polynomial_rejected(self):
        with pytest.raises(ContextMismatchError):
            s3_on_xy().movers(Polynomial.variable(s3_on_x().ctx, "x1"))


class TestOrbitSum:
    def test_theta_orbit(self):
        u1, u2, u3 = u_variables()
        expected = u2 ** 2 * u3 + u3 ** 2 * u1 + u1 ** 2 * u2
        assert theta_torus() == expected

    def test_invariant_scales_by_order(self):
        gammas = gamma_generators()
        group = s3_on_x()
        assert group.orbit_sum(gammas["gamma2"]) == 6 * gammas["gamma2"]

    def test_torus_characters_die(self):
        group = a3_on_u()
        for u in u_variables():
            assert not group.orbit_sum(u)

    def test_output_is_invariant(self):
        group = a3_on_u()
        u1, u2, _ = u_variables()
        s = group.orbit_sum(u1 ** 3 * u2)
        for label in group.labels():
            assert group.act(label, s) == s


class TestShiftCriteria:
    def test_derivative_agrees_with_literal_substitution(self):
        gammas = gamma_generators()
        for g in gammas.values():
            assert literally_shift_invariant(g, SHIFT_DIRECTION)
            assert not g.directional_derivative(SHIFT_DIRECTION)
        x1 = Polynomial.variable(gammas["gamma2"].context, "x1")
        assert not literally_shift_invariant(x1, SHIFT_DIRECTION)
        assert x1.directional_derivative(SHIFT_DIRECTION)


class TestDerivedTwistedAction:
    def test_epsilon_has_signs(self):
        group = s3_on_u()
        u1, u2, u3 = u_variables()
        assert group.act("(12)", u1) == -u2
        assert group.act("(12)", u2) == -u1
        assert group.act("(12)", u3) == -u3

    def test_three_cycle_permutes(self):
        group = s3_on_u()
        u1, u2, u3 = u_variables()
        assert group.act("(123)", u1) == u3
        assert group.act("(123)", u2) == u1
        assert group.act("(123)", u3) == u2

    def test_literal_shift_with_a_variable_named_t(self):
        # The parameter becomes t_shift; x - t is shift invariant along
        # (1, 1) and so is a constant, while x is not.
        ctx = context(("x", "t"))
        x = Polynomial.variable(ctx, "x")
        t = Polynomial.variable(ctx, "t")
        assert literally_shift_invariant(x - t, (1, 1))
        assert literally_shift_invariant(Polynomial.constant(ctx, 7), (1, 1))
        assert not literally_shift_invariant(x, (1, 1))
