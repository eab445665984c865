"""Self-tests of the benchmark: answer keys, self-time arithmetic, wrapping.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import keys  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class AnswerKeyTest(unittest.TestCase):
    def test_molien_series_matches_hand_counts(self):
        # #{(a, b) : 2a + 3b = d}, counted by hand for d = 0..12.
        self.assertEqual(keys.molien_series(12),
                         [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3])

    def test_molien_series_counts_pairs(self):
        for d, r in enumerate(keys.molien_series(40)):
            pairs = sum(1 for a in range(d + 1) for b in range(d + 1)
                        if 2 * a + 3 * b == d)
            self.assertEqual(r, pairs, d)

    def test_lattice_rank_line(self):
        self.assertEqual(keys.lattice_rank_line(6), "0:1 1:0 2:1 3:1 4:1 5:1 6:2")

    def test_admissible_pairs_by_hand(self):
        # a + 2b = 0 mod 3 with a + b <= 3: (0,0) (3,0) (1,1) (0,3).
        self.assertEqual(keys.admissible_pairs(3), 4)
        self.assertEqual(keys.admissible_pairs(1), 1)

    def test_parse_components(self):
        comps = keys.parse_components("0: Z; 1: 0; 4: Z ⊕ Z/3; 6: Z ⊕ Z ⊕ Z/3 ⊕ Z/3")
        self.assertEqual(comps, {0: (1, ()), 1: (0, ()), 4: (1, (3,)),
                                 6: (2, (3, 3))})
        with self.assertRaises(ValueError):
            keys.parse_components("4: Q")

    def test_red_check_is_expected_to_fail(self):
        self.assertEqual(keys.expected_verdict("hsurj-restrictions"), "fail")
        self.assertEqual(sum(keys.expected_verdict(n) == "pass"
                             for n in keys.LIGHT_CHECKS), 15)
        self.assertEqual(keys.check_errors("gamma-syzygy", "fail", {}, None)[0],
                         "gamma-syzygy: verdict fail, expected pass")

    def test_rstar_keys_flag_wrong_rank_and_torsion(self):
        good = "0: Z; 1: 0; 2: Z; 3: Z; 4: Z ⊕ Z/3"
        self.assertEqual(keys.check_errors("rstar-structure", "pass",
                                           {"graded components": good}, 4), [])
        bad = "0: Z; 1: 0; 2: Z; 3: Z ⊕ Z; 4: Z"
        self.assertEqual(len(keys.check_errors("rstar-structure", "pass",
                                               {"graded components": bad}, 4)), 2)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        t = tracing.Tracer()
        # root [0, 100) with children a [10, 40) and b [50, 90);
        # a has child c [15, 25); a second root d [100, 105).
        root = t.record("root", 0, 100)
        a = t.record("a", 10, 40, root)
        t.record("c", 15, 25, a)
        t.record("b", 50, 90, root)
        t.record("a", 100, 105)
        agg = t.aggregate()
        self.assertEqual(agg["root"], {"calls": 1, "total_ns": 100, "self_ns": 30})
        self.assertEqual(agg["a"], {"calls": 2, "total_ns": 35, "self_ns": 25})
        self.assertEqual(agg["b"]["self_ns"], 40)
        self.assertEqual(agg["c"]["self_ns"], 10)

    def test_wrapper_records_nested_spans(self):
        ticks = iter(range(1000))
        t = tracing.Tracer(clock=lambda: next(ticks))
        inner = t.wrap("inner", lambda x: x + 1)
        outer = t.wrap("outer", lambda x: inner(x) * 2)
        self.assertEqual(outer(1), 4)
        self.assertEqual(list(t.span_parent), [-1, 0])
        agg = t.aggregate()
        self.assertEqual(agg["outer"]["total_ns"], 3)
        self.assertEqual(agg["outer"]["self_ns"], 2)
        self.assertEqual(agg["inner"]["self_ns"], 1)

    def test_span_closes_when_the_call_raises(self):
        t = tracing.Tracer()

        def boom():
            raise KeyError("x")
        with self.assertRaises(KeyError):
            t.wrap("boom", boom)()
        self.assertEqual(t.aggregate()["boom"]["calls"], 1)
        self.assertEqual(t._stack, [])


class InstallTest(unittest.TestCase):
    def test_wraps_every_binding_site_and_restores(self):
        from pgl3chow import checks, groups, poly, repcalc
        originals = {
            "invariant_basis": groups.invariant_basis,
            "chern_class": repcalc.chern_class,
            "init": vars(poly.Polynomial)["__init__"],
            "run_check": checks.run_check,
        }
        self.assertIs(checks.invariant_basis, originals["invariant_basis"])
        t = tracing.Tracer()
        with t:
            self.assertIsNot(checks.invariant_basis, originals["invariant_basis"])
            self.assertIs(checks.invariant_basis, groups.invariant_basis)
            self.assertIs(checks.chern_class, repcalc.chern_class)
            self.assertIs(checks.chern_class.__wrapped__, originals["chern_class"])
            import pgl3chow
            self.assertIs(pgl3chow.run_check, checks.run_check)
            result = checks.run_check("gamma-syzygy")
        self.assertEqual(result.verdict, "pass")
        self.assertIs(checks.invariant_basis, originals["invariant_basis"])
        self.assertIs(groups.invariant_basis, originals["invariant_basis"])
        self.assertIs(checks.chern_class, originals["chern_class"])
        self.assertIs(vars(poly.Polynomial)["__init__"], originals["init"])
        self.assertIs(checks.run_check, originals["run_check"])
        agg = t.aggregate()
        self.assertEqual(agg["checks.run_check[gamma-syzygy]"]["calls"], 1)
        self.assertGreater(agg["poly.Polynomial.__mul__"]["calls"], 0)

    def test_traced_result_equals_untraced(self):
        from pgl3chow import checks
        plain = checks.run_check("alphabeta-nonmembership")
        with tracing.Tracer() as t:
            traced = checks.run_check("alphabeta-nonmembership")
        self.assertEqual(plain.witnesses, traced.witnesses)
        self.assertEqual(t.aggregate()["intlinalg.membership"]["calls"], 1)

    def test_patches_a_synthetic_package(self):
        pkg = types.ModuleType("fakepkg")
        mods = {}
        for short in tracing.MODULES:
            m = types.ModuleType(f"fakepkg.{short}")
            mods[short] = m
        # Classes named by METHODS, with plain methods.
        for short, cls_name, meth in tracing.METHODS:
            cls = vars(mods[short]).get(cls_name) or type(cls_name, (), {})
            setattr(cls, meth, lambda self, *a: None)
            setattr(mods[short], cls_name, cls)

        def helper():
            return 7
        helper.__module__ = "fakepkg.intlinalg"
        mods["intlinalg"].helper = helper
        mods["checks"].helper_alias = helper
        saved = {n: sys.modules.get(n) for n in ["fakepkg", *map("fakepkg.{}".format,
                                                                tracing.MODULES)]}
        sys.modules["fakepkg"] = pkg
        sys.modules.update({f"fakepkg.{s}": m for s, m in mods.items()})
        try:
            t = tracing.Tracer()
            t.install("fakepkg")
            self.assertIs(mods["checks"].helper_alias, mods["intlinalg"].helper)
            self.assertEqual(mods["checks"].helper_alias(), 7)
            t.uninstall()
            self.assertIs(mods["checks"].helper_alias, helper)
            self.assertIs(mods["intlinalg"].helper, helper)
            self.assertEqual(t.aggregate()["intlinalg.helper"]["calls"], 1)
        finally:
            for n, m in saved.items():
                if m is None:
                    sys.modules.pop(n, None)
                else:
                    sys.modules[n] = m


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_run_py_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
