"""The check registry: verdicts, witnesses, the gamma-generation certificate,
determinism, degree monotonicity."""

import pytest

from pgl3chow import checks, presented
from pgl3chow.config import MAX_DEGREE, ConfigError
from pgl3chow.groups import MatrixGroup, alternating_subgroup
from pgl3chow.intlinalg import invariant_factors
from pgl3chow.poly import NotHomogeneousError, Polynomial, context, power_product_rows
from pgl3chow.repcalc import TO_XY, restrict_poly
from test_groups import count_substitutions

EXPECTED_NAMES = [
    "gamma-invariance",
    "gamma-generation",
    "gamma-syzygy",
    "two-variable-gammas",
    "twistaction-group",
    "hsurj-restrictions",
    "transfer-laws",
    "chi-underline-vanishes",
    "theta-epsilon",
    "delta-discriminant",
    "point-class",
    "a3mu3-chern",
    "rho-squared",
    "alphabeta-nonmembership",
    "sl3-restriction",
    "repring-generators",
    "regular-rep-vanishing",
    "rstar-structure",
]


RSTAR_GENERATORS = list(presented.rstar_presentation().generators)


class TestRegistry:
    def test_registry_size(self):
        assert len(checks.list_checks()) == 18

    def test_registry_order_and_names(self):
        assert [s.name for s in checks.list_checks()] == EXPECTED_NAMES

    def test_contains_gamma_generation(self):
        assert any(s.name == "gamma-generation" for s in checks.list_checks())

    def test_descriptions_and_anchors_non_empty(self):
        for spec in checks.list_checks():
            assert spec.description
            assert spec.paper_anchor

    def test_unknown_name_rejected(self):
        with pytest.raises(checks.UnknownCheckError):
            checks.run_check("no-such-check")

    def test_negative_degree_rejected(self):
        # Both ends of the one bound check, before any work starts.
        for bad in (-1, MAX_DEGREE + 1):
            with pytest.raises(ConfigError, match=f"between 0 and {MAX_DEGREE}"):
                checks.run_check("gamma-generation", bad)


class TestVerdicts:
    def test_all_pass_except_hsurj(self):
        report = checks.run_all()
        verdicts = {r.name: r.verdict for r in report.results}
        for name in EXPECTED_NAMES:
            if name == "hsurj-restrictions":
                assert verdicts[name] == "fail"
            else:
                assert verdicts[name] == "pass", (name, verdicts[name])
        assert report.counts == {"pass": 17, "fail": 1, "error": 0}
        assert not report.all_passed

    def test_hsurj_counterexample_witness(self):
        result = checks.run_check("hsurj-restrictions")
        assert result.verdict == "fail"
        wit = result.witness_dict()
        assert wit["c2_sl3 in gammas"] == "-2*gamma2"
        assert wit["c2_sym3 in gammas"] == "-5*gamma2"
        assert wit["c3_sym3 in gammas"] == "gamma3"
        assert wit["c6_sl3 in gammas"] == "-gamma6"
        assert "counterexample c6_sl3" in wit

    def test_point_class_witnesses(self):
        result = checks.run_check("point-class")
        assert result.verdict == "pass"
        wit = result.witness_dict()
        assert wit["(l - u2)*(l - u3)"] == wit["l^2 + l*u1 + u2*u3"]

    def test_delta_sign_recorded(self):
        result = checks.run_check("delta-discriminant")
        assert result.verdict == "pass"
        wit = result.witness_dict()
        assert wit["sign of (2*theta + 3*c3(W)) / delta"] in ("+1", "-1")

    def test_sl3_restriction_records_lambda(self):
        result = checks.run_check("sl3-restriction")
        assert result.verdict == "pass"
        wit = result.witness_dict()
        assert wit["image of 2*c2(sl3) - c2(Sym3E)"] == "-3*a2"
        assert "informational sign discrepancy" in wit
        assert wit["27*c6(sl3) - c3(Sym3E)^2 - 4*lam^3 restricted"] == "0"

    def test_theta_epsilon_records_derived_matrices(self):
        result = checks.run_check("theta-epsilon")
        wit = result.witness_dict()
        assert wit["derived (12) on u"] == "u1 -> -u2, u2 -> -u1"
        assert wit["derived (123) on u"] == "u1 -> -u1 - u2, u2 -> u1"

    def test_rstar_structure_table(self):
        result = checks.run_check("rstar-structure")
        assert result.verdict == "pass"
        wit = result.witness_dict()
        assert "4: Z ⊕ Z/3" in wit["graded components"]

    def test_rstar_torsion_table_mismatch(self, monkeypatch):
        # With 9*chi in place of 3*chi, chi spans a Z/9 in degree 6, where
        # the mod-3 count predicts (Z/3)^3.
        real = presented.rstar_presentation()
        texts = [r.render() for r in real.relations]
        changed = presented.RingPresentation.from_strings(
            real.generators, ["9*chi" if t == "3*chi" else t for t in texts])
        assert changed.relations != real.relations
        monkeypatch.setattr(checks, "rstar_presentation", lambda: changed)
        result = checks.run_check("rstar-structure", 8)
        assert result.verdict == "fail"
        wit = result.witness_dict()
        failures = [key for key in wit if key.startswith("counterexample")]
        # Free ranks are untouched; degrees below 6 still match; 9*chi has
        # content 9, so the every-degree proof fails after the degree loop.
        assert failures == ["counterexample torsion at degree 6",
                            "counterexample torsion at degree 8",
                            "counterexample every-degree proof"]
        assert wit[failures[0]] == \
            "invariant factors (3, 3, 9), expected 3 factors equal to 3"
        assert wit[failures[2]] == \
            "hypothesis fails: every relation has the same content"

    def test_rstar_implied_relation_fails_only_the_proof(self, monkeypatch):
        # 3*rho*lam + 3*chi lies in the ideal, so every component keeps its
        # table, but it is no monomial multiple of one relation, so it stays
        # and breaks the shape the every-degree proof needs.
        real = presented.rstar_presentation()
        changed = presented.RingPresentation.from_strings(
            real.generators,
            [r.render() for r in real.relations] + ["3*rho*lam + 3*chi"])
        monkeypatch.setattr(checks, "rstar_presentation", lambda: changed)
        result = checks.run_check("rstar-structure", 8)
        assert result.verdict == "fail"
        wit = result.witness_dict()
        failures = [key for key in wit if key.startswith("counterexample")]
        assert failures == ["counterexample every-degree proof"]
        assert wit[failures[0]] == (
            "hypothesis fails: in such an order the leading monomials are "
            "pairwise coprime")
        assert wit["graded components"] == \
            checks.run_check("rstar-structure", 8).witness_dict()[
                "graded components"]

    @pytest.mark.parametrize("generators, relations, failure", [
        # Content 9: every component has Z/9 where the table has Z/3.
        (RSTAR_GENERATORS,
         ["9*rho", "9*chi", "9*c8", "243*c6 - 9*c3^2 - 36*lam^3",
          "rho^2 - c8"], "the content is 3"),
        # With chi free, the leading degrees are 4, 6 and not 4, 6, 6.
        (RSTAR_GENERATORS, ["3*rho", "3*c8", "81*c6 - 3*c3^2 - 12*lam^3",
                            "rho^2 - c8"],
         "the leading degrees plus 2, 3 and the generator degrees are both 2, 3, 4, 6, 6"),
        # A degree-5 c5 in place of c6, with a relation of degree 5, keeps
        # the free ranks but not the mod-3 table.
        ([("c5", 5) if g == ("c6", 6) else g for g in RSTAR_GENERATORS],
         ["3*rho", "3*chi", "3*c8", "3*c5 - 3*lam*c3", "rho^2 - c8"],
         "the leading degrees plus 2, 3 and the generator degrees are both 2, 3, 4, 6, 6"),
    ])
    def test_rstar_proof_needs_content_3_and_the_table_degrees(
            self, monkeypatch, generators, relations, failure):
        changed = presented.RingPresentation.from_strings(generators, relations)
        assert not isinstance(presented.free_summand_certificate(
            presented.eliminate_unit_generators(changed)), str)
        monkeypatch.setattr(checks, "rstar_presentation", lambda: changed)
        result = checks.run_check("rstar-structure", 8)
        assert result.verdict == "fail"
        failures = [key for key in result.witness_dict()
                    if key.startswith("counterexample")]
        assert failures[-1] == "counterexample every-degree proof"
        assert result.witness_dict()[failures[-1]] == \
            f"hypothesis fails: {failure}"


def _series(numerator, weights, bound):
    """Coefficients through t^bound of numerator / prod(1 - t^w), one pass
    of c[n] += c[n - w] per weight."""
    coeffs = [numerator.get(n, 0) for n in range(bound + 1)]
    for w in weights:
        for n in range(w, bound + 1):
            coeffs[n] += coeffs[n - w]
    return coeffs


def polynomial_gamma_span_vectors(gammas, bound):
    """The gamma span rows with one tuple-keyed ``Polynomial`` per product:
    the loop the packed ``poly.power_product_rows`` replaced, kept as its
    oracle."""
    gen_ctx = context(("g2", "g3", "g6"), (2, 3, 6))
    factors = (gammas["gamma2"], gammas["gamma3"], gammas["gamma6"])
    for g, w in zip(factors, gen_ctx.weights):
        if not g.is_homogeneous(w):
            raise NotHomogeneousError(f"not homogeneous of degree {w}: {g.render()}")
    ctx = factors[0].context
    products = {(0, 0, 0): Polynomial.constant(ctx, 1)}
    out = []
    for d in range(bound + 1):
        index = {e: i for i, e in enumerate(ctx.monomials_of_degree(d))}
        rows = []
        for exp in gen_ctx.monomials_of_degree(d):
            if exp not in products:
                i = next(i for i, e in enumerate(exp) if e)
                lower = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
                products[exp] = products[lower] * factors[i]
            rows.append({index[e]: c for e, c in products[exp].terms.items()})
        out.append((len(index), rows))
    return out


def gamma_span_rows(gammas, bound):
    """Every gamma product of each degree 0..bound: the full span."""
    gen_ctx = context(("g2", "g3", "g6"), (2, 3, 6))
    return list(power_product_rows(
        [gammas[n] for n in ("gamma2", "gamma3", "gamma6")], gen_ctx.weights,
        {d: gen_ctx.monomials_of_degree(d) for d in range(bound + 1)}).values())


class TestGammaCertificate:
    def test_molien_ranks_of_the_weyl_group(self):
        assert checks._molien_ranks(checks.s3_on_xy(), 40) == \
            _series({0: 1}, (2, 3), 40)

    def test_molien_ranks_of_the_alternating_subgroup(self):
        group = alternating_subgroup(checks.s3_on_xy())
        assert checks._molien_ranks(group, 40) == \
            _series({0: 1, 3: 1}, (2, 3), 40)

    def test_molien_sum_of_a_non_group_raises(self):
        full = checks.s3_on_xy()
        group = MatrixGroup(full.ctx, tuple(
            (label, full.matrix(label)) for label in ("e", "(123)")))
        with pytest.raises(ArithmeticError, match="not divisible"):
            checks._molien_ranks(group, 4)

    def test_gamma_spans_are_saturated(self):
        # Cross-check of the reduction to x, y: for shift-invariant gammas the
        # span in x1, x2, x3 and the span of the TO_XY images have the same
        # nonzero invariant factors, also when those are not all 1.
        real = checks.gamma_generators()
        variants = (real, {**real, "gamma2": 2 * real["gamma2"]},
                    {**real, "gamma6": real["gamma2"] ** 3})
        bound = 16
        ranks = checks._molien_ranks(checks.s3_on_xy(), bound)
        for gammas in variants:
            in_xy = {name: restrict_poly(g, TO_XY) for name, g in gammas.items()}
            spans = zip(gamma_span_rows(gammas, bound), gamma_span_rows(in_xy, bound))
            for d, ((width, span), (width_xy, span_xy)) in enumerate(spans):
                assert width_xy == d + 1
                nonzero = [f for f in invariant_factors(span, width) if f]
                assert [f for f in invariant_factors(span_xy, width_xy) if f] \
                    == nonzero, d
                if gammas is real:
                    assert nonzero == [1] * ranks[d], d

    def test_packed_spans_match_the_polynomial_products(self):
        real = checks.gamma_generators()
        variants = (real, {**real, "gamma2": 2 * real["gamma2"]},
                    {**real, "gamma6": real["gamma2"] ** 3})
        top = 24
        for gammas in variants:
            in_xy = {name: restrict_poly(g, TO_XY) for name, g in gammas.items()}
            for gens in (gammas, in_xy):
                expected = polynomial_gamma_span_vectors(gens, top)
                for bound in range(top + 1):
                    assert gamma_span_rows(gens, bound) == expected[:bound + 1], bound

    def test_failure_witnesses(self, monkeypatch):
        real = checks.gamma_generators()
        cases = (
            # Full rank but index 2: saturation fails.
            ({**real, "gamma2": 2 * real["gamma2"]}, 2, "1", "1", "2"),
            # Degree 6 is then spanned by g2^3 and g3^2 = 4*g2^3 - 27*g6:
            # the Molien rank 2 is reached, yet the index is 27.
            ({**real, "gamma6": real["gamma2"] ** 3}, 6, "2", "2", "27"),
            # Saturated but short of the Molien rank.
            ({**real, "gamma3": 0 * real["gamma3"]}, 3, "1", "0", "none"),
        )
        for gammas, degree, molien, span, factors in cases:
            monkeypatch.setattr(checks, "gamma_generators", lambda g=gammas: g)
            result = checks.run_check("gamma-generation", 8)
            assert result.verdict == "fail"
            wit = result.witness_dict()
            assert f"counterexample at degree {degree}" in wit
            assert wit[f"Molien rank at degree {degree}"] == molien
            assert wit[f"span rank at degree {degree}"] == span
            assert wit[f"non-unit factors at degree {degree}"] == factors
            assert "lattice ranks by degree" not in wit

    def test_inhomogeneous_gamma_is_an_error(self, monkeypatch):
        # gamma2 + gamma3 is invariant, so only the homogeneity check of
        # power_product_rows stops it.
        real = checks.gamma_generators()
        fake = {**real, "gamma2": real["gamma2"] + real["gamma3"]}
        monkeypatch.setattr(checks, "gamma_generators", lambda: fake)
        result = checks.run_check("gamma-generation", 8)
        assert result.verdict == "error"
        assert result.witness_dict()["error"].startswith(
            "NotHomogeneousError: not homogeneous of degree 2: 2*x^3 ")

    def test_non_invariant_generator_fails_before_ranks(self, monkeypatch):
        real = checks.gamma_generators()
        x1 = Polynomial.variable(real["gamma2"].context, "x1")
        fake = {**real, "gamma2": x1 ** 2}
        monkeypatch.setattr(checks, "gamma_generators", lambda: fake)
        result = checks.run_check("gamma-generation", 4)
        assert result.verdict == "fail"
        wit = result.witness_dict()
        assert "counterexample gamma2 under (12)" in wit
        assert "counterexample shift derivative of gamma2" in wit
        assert not any(key.startswith("Molien rank") for key in wit)

    def test_shift_variant_generator_fails_before_span(self, monkeypatch):
        # s1^2 is S3-invariant and homogeneous but not shift-invariant, so it
        # lies outside the forms on which restriction to x, y is injective.
        real = checks.gamma_generators()
        ctx = real["gamma2"].context
        s1 = sum((Polynomial.variable(ctx, n) for n in ctx.names),
                 Polynomial.zero(ctx))
        fake = {**real, "gamma2": s1 ** 2}
        monkeypatch.setattr(checks, "gamma_generators", lambda: fake)
        result = checks.run_check("gamma-generation", 8)
        assert result.verdict == "fail"
        wit = result.witness_dict()
        assert "counterexample shift derivative of gamma2" in wit
        assert not any(key.startswith("counterexample gamma2 under")
                       for key in wit)
        assert not any(key.startswith("counterexample at degree") for key in wit)


def nonzero_factors(width, rows):
    return [f for f in invariant_factors(rows, width) if f]


class TestGammaGenerationWork:
    """What ``gamma-generation`` forms: its S3 substitutions, and a table on
    the gamma products with ``gamma3`` exponent at most 1 when ``gamma3^2``
    is integral in ``gamma2, gamma6``, else on the full span, which stays the
    oracle here."""

    BOUND = 24

    @staticmethod
    def variants():
        """(planted change, gammas, whether gamma3^2 is integral in gamma2,
        gamma6 on the x, y images)."""
        real = checks.gamma_generators()
        return (
            ("none", real, True),
            ("gamma3 -> 2*gamma3", {**real, "gamma3": 2 * real["gamma3"]}, True),
            ("gamma6 -> 3*gamma6", {**real, "gamma6": 3 * real["gamma6"]}, True),
            ("gamma6 -> 2*gamma6", {**real, "gamma6": 2 * real["gamma6"]}, False),
            ("gamma2 -> 2*gamma2", {**real, "gamma2": 2 * real["gamma2"]}, False),
            ("gamma6 -> gamma2^3", {**real, "gamma6": real["gamma2"] ** 3}, False),
        )

    def test_s3_substitutions(self, monkeypatch):
        # Two generators of S3 per gamma, where acting with all six elements
        # made 18.
        maps = {id(m) for m in checks.s3_on_x()._ring_maps}
        calls = count_substitutions(monkeypatch)
        assert checks.run_check("gamma-generation", 16).verdict == "pass"
        assert sum(id(m) in maps for m in calls) == 6

    def test_table_on_f_d_rows_or_the_full_span(self, monkeypatch):
        gen_ctx = context(("gamma2", "gamma3", "gamma6"), (2, 3, 6))
        asked = []  # per power_product_rows call of the check: (wanted, rows)
        real_rows = checks.power_product_rows

        def spy(factors, weights, wanted):
            out = real_rows(factors, weights, wanted)
            asked.append((wanted, out))
            return out
        monkeypatch.setattr(checks, "power_product_rows", spy)
        ranks = checks._molien_ranks(checks.s3_on_xy(), self.BOUND)
        for planted, gammas, integral in self.variants():
            in_xy = {name: restrict_poly(g, TO_XY) for name, g in gammas.items()}
            oracle = [nonzero_factors(width, rows)
                      for width, rows in gamma_span_rows(in_xy, self.BOUND)]
            monkeypatch.setattr(checks, "gamma_generators", lambda g=gammas: g)
            for bound in range(self.BOUND + 1):
                asked.clear()
                result = checks.run_check("gamma-generation", bound)
                assert result.verdict in ("pass", "fail"), planted
                f_d_rows = {d: [e for e in gen_ctx.monomials_of_degree(d) if e[1] <= 1]
                            for d in range(bound + 1)}
                if integral:
                    assert [wanted for wanted, _ in asked] == [f_d_rows], planted
                else:
                    every = {d: gen_ctx.monomials_of_degree(d)
                             for d in range(bound + 1)}
                    assert [wanted for wanted, _ in asked] == [f_d_rows, every], \
                        planted
                table = asked[-1][1]
                for d, (width, rows) in table.items():
                    assert nonzero_factors(width, rows) == oracle[d], (planted, d)
                    if planted == "none":
                        # The f_d rows number exactly the Molien rank.
                        assert len(rows) == ranks[d], d

    def test_planted_f_d_path_verdicts(self, monkeypatch):
        # With gamma3^2 still integral in gamma2, gamma6, the f_d table finds
        # the same index as the full span: 2 in degree 3, and 3 in degree 6.
        for planted, gammas, _ in self.variants()[1:3]:
            monkeypatch.setattr(checks, "gamma_generators", lambda g=gammas: g)
            wit = checks.run_check("gamma-generation", 8).witness_dict()
            degree, factor = (3, "2") if "gamma3" in planted else (6, "3")
            assert wit[f"non-unit factors at degree {degree}"] == factor, planted


class TestSharedRun:
    """``run_all`` shares one ``_Run`` among its checks; ``run_check`` builds
    its own.  Each producer is counted through the module attribute the run
    reads it by."""

    @staticmethod
    def spy(monkeypatch):
        from pgl3chow import repcalc
        catalogue = {id(rep): name for name, rep in repcalc.REPRESENTATIONS.items()}
        calls = {"gamma_generators": 0, "theta_torus": 0, "w_chern_torus": 0}
        chern = []  # (catalogue name or None, top) per chern_classes call

        def counted(name):
            real = getattr(checks, name)

            def wrapper():
                calls[name] += 1
                return real()
            monkeypatch.setattr(checks, name, wrapper)

        for name in calls:
            counted(name)
        real_chern = checks.chern_classes

        def chern_spy(rep, top=None):
            chern.append((catalogue.get(id(rep)), top))
            return real_chern(rep, top)
        monkeypatch.setattr(checks, "chern_classes", chern_spy)
        return calls, chern

    def test_run_all_forms_each_shared_input_once(self, monkeypatch):
        calls, chern = self.spy(monkeypatch)
        checks.run_all()
        assert calls == {"gamma_generators": 1, "theta_torus": 1,
                         "w_chern_torus": 1}
        catalogued = sorted(c for c in chern if c[0] is not None)
        assert catalogued == sorted([
            ("sl3", 6), ("Sym3E_PGL3", 3), ("W_A3T", None),
            ("W_A3mu3", None), ("sl3_A3mu3", None), ("Sym3E_A3mu3", 4)])

    def test_run_check_forms_each_producer_at_most_once(self, monkeypatch):
        calls, chern = self.spy(monkeypatch)
        for name in EXPECTED_NAMES:
            for key in calls:
                calls[key] = 0
            chern.clear()
            checks.run_check(name)
            assert max(calls.values()) <= 1, (name, calls)
            names = [n for n, _ in chern if n is not None]
            assert len(names) == len(set(names)), (name, chern)

    def test_run_check_witnesses_match_run_all(self):
        for shared in checks.run_all().results:
            alone = checks.run_check(shared.name)
            assert (alone.verdict, alone.witnesses) == \
                (shared.verdict, shared.witnesses), shared.name

    def test_planted_non_invariant_gamma_fails_both_readers(self, monkeypatch):
        real = checks.gamma_generators()
        x1 = Polynomial.variable(real["gamma2"].context, "x1")
        fake = {**real, "gamma2": x1 ** 2}
        calls = []
        monkeypatch.setattr(checks, "gamma_generators",
                            lambda: calls.append(1) or fake)
        results = {r.name: r for r in checks.run_all().results}
        assert len(calls) == 1
        for name in ("gamma-invariance", "gamma-generation"):
            wit = results[name].witness_dict()
            assert results[name].verdict == "fail", name
            assert "counterexample gamma2 under (12)" in wit, name
            assert "counterexample shift derivative of gamma2" in wit, name
        assert not any(key.startswith("Molien rank")
                       for key in results["gamma-generation"].witness_dict())

    def test_shared_mappings_are_read_only(self):
        run = checks._Run()
        for mapping in (run.gammas, run.invariance, run.gammas_xy, run.sl3_chern):
            with pytest.raises(TypeError):
                mapping["gamma2"] = None
        assert run.chern("sl3", 2) == run.chern("sl3")[:3]


class TestWitnessRoundTrip:
    def test_polynomial_witnesses_parse_back(self):
        from pgl3chow.checks import chi_torus, theta_torus, w_chern_torus
        from pgl3chow.poly import INTEGERS, context, parse
        from pgl3chow.repcalc import A3MU3_AB, T_SL3_U

        wit = checks.run_check("chi-underline-vanishes").witness_dict()
        assert parse(wit["theta on the torus"], T_SL3_U.ctx, INTEGERS) == \
            theta_torus()
        assert parse(wit["chi on the torus"], T_SL3_U.ctx, INTEGERS) == \
            chi_torus(theta_torus(), *w_chern_torus())

        wit = checks.run_check("a3mu3-chern").witness_dict()
        ring = A3MU3_AB.ring
        for label in ("c2(W)", "c3(W)", "c8(sl3)"):
            text = wit[label]
            assert parse(text, A3MU3_AB.ctx, ring).render() == text

        wit = checks.run_check("hsurj-restrictions").witness_dict()
        gen_ctx = context(("gamma2", "gamma3", "gamma6"), (2, 3, 6))
        for label in ("c2_sl3 in gammas", "c6_sl3 in gammas"):
            text = wit[label]
            assert parse(text, gen_ctx, INTEGERS).render() == text

    def test_chi_summands_homogeneous_of_degree_six(self):
        from pgl3chow.checks import chi_torus, theta_torus, w_chern_torus

        theta = theta_torus()
        c2w, c3w = w_chern_torus()
        for part in ((2 * theta + 3 * c3w) ** 2, 4 * c2w ** 3, 27 * c3w ** 2):
            assert part.is_homogeneous(6)
        chi = chi_torus(theta, c2w, c3w)
        assert chi.is_homogeneous(6)


class TestReportContainer:
    def test_empty_report_counts(self):
        report = checks.Report(())
        assert report.counts == {"pass": 0, "fail": 0, "error": 0}
        assert report.all_passed


class TestDeterminism:
    def test_repeat_runs_identical(self):
        for name in ("gamma-syzygy", "hsurj-restrictions", "sl3-restriction",
                     "rstar-structure"):
            first = checks.run_check(name)
            second = checks.run_check(name)
            assert first.verdict == second.verdict
            assert first.witnesses == second.witnesses

    def test_run_all_order_is_registry_order(self):
        report = checks.run_all()
        assert [r.name for r in report.results] == EXPECTED_NAMES


def decomposed_by_recombination(bound):
    """The decomposition loop that ``repring-generators`` once ran, kept as
    the oracle of its count: each admissible ``s1^a*s2^b`` counts when
    ``(a, b) = i*(3,0) + j*(1,1) + k*(0,3)`` recombines with ``j = a mod 3``
    and ``i, j, k >= 0``."""
    decomposed = 0
    for a in range(bound + 1):
        for b in range(bound + 1 - a):
            if (a + 2 * b) % 3 != 0:
                continue
            j = a % 3
            i, k = (a - j) // 3, (b - j) // 3
            if 3 * i + j == a and j + 3 * k == b and min(i, j, k) >= 0:
                decomposed += 1
    return decomposed


class TestDegreeMonotonicity:
    def test_gamma_generation_lower_degrees(self):
        for bound in (4, 8, 12):
            assert checks.run_check("gamma-generation", bound).verdict == "pass"

    def test_repring_lower_degrees(self):
        for bound in (3, 6, 9):
            assert checks.run_check("repring-generators", bound).verdict == "pass"

    def test_monoid_count_matches_the_decomposition_loop(self):
        label = "admissible monomials decomposed"
        for bound in range(MAX_DEGREE + 1):
            witnesses = checks.run_check("repring-generators", bound).witness_dict()
            assert witnesses[label] == (f"{decomposed_by_recombination(bound)} "
                                        f"up to total degree {bound}")
        default = checks.run_check("repring-generators").witness_dict()
        assert default[label] == "19 up to total degree 9"

    def test_rstar_lower_degrees(self):
        for bound in (8, 12, 16):
            assert checks.run_check("rstar-structure", bound).verdict == "pass"

    def test_run_all_with_overrides(self):
        report = checks.run_all({"gamma-generation": 4})
        verdicts = {r.name: r.verdict for r in report.results}
        assert verdicts["gamma-generation"] == "pass"

    def test_run_all_unknown_override_rejected(self):
        with pytest.raises(checks.UnknownCheckError):
            checks.run_all({"bogus": 4})
