"""Report bytes pinned against files in tests/data.

``check_all.json`` is the output of ``check --all --format json`` and
``check_all.txt`` that of ``check --all`` (the text report),
``gamma_generation_N.json`` that of ``check --name gamma-generation
--max-degree N --format json`` for N = 24 and 64 (the input limit, pinning
the Molien ranks of all 65 degrees) and ``rstar_structure_N.json`` that of
``check --name rstar-structure --max-degree N --format json`` for N = 32 and
64 (the input limit, pinning the torsion table of all 65 degrees), each with
every result's ``elapsed_ms`` key (in text, each ``(N.N ms)``) removed,
the one field that varies between runs; ``hilbert_rstar_N.txt`` is
``hilbert --spec builtin:Rstar --max-degree N`` for N = 20, 32, 48 and 64,
the last three pinning the torsion of degrees 21-32, 33-48 and 49-64; 64 is
the input limit and the widest basis the enumerator builds.
``check_all_planted.json`` holds, for each fault of ``PLANTS`` planted on
its own, the exit code and the ``check --all --format json`` report without
``elapsed_ms``: the counterexample witnesses that a passing run never
prints.  Rewrite it with ``PYTHONPATH=src python
tests/test_golden_reports.py`` only when a witness is meant to change.
A change to the arithmetic that alters a verdict, a witness or the layout of
a report shows up here as a byte difference.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from pgl3chow import checks, cli
from pgl3chow.groups import MatrixGroup

DATA = Path(__file__).resolve().parent / "data"
ELAPSED = re.compile(r',\n\s*"elapsed_ms": [-0-9.eE+]+')
ELAPSED_TEXT = re.compile(r" \(\d+\.\d ms\)$", re.M)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_check_all_json_bytes(capsys):
    cases = (
        # hsurj-restrictions fails by design, so --all exits 1.
        (("--all",), 1, "check_all.json"),
        (("--name", "gamma-generation", "--max-degree", "24"), 0,
         "gamma_generation_24.json"),
        (("--name", "gamma-generation", "--max-degree", "64"), 0,
         "gamma_generation_64.json"),
        (("--name", "rstar-structure", "--max-degree", "32"), 0,
         "rstar_structure_32.json"),
        (("--name", "rstar-structure", "--max-degree", "64"), 0,
         "rstar_structure_64.json"),
    )
    for selection, exit_code, name in cases:
        code, out = run_cli(capsys, "check", *selection, "--format", "json")
        assert code == exit_code, name
        expected = (DATA / name).read_text(encoding="utf-8")
        assert ELAPSED.sub("", out) == expected, name


def test_check_all_text_bytes(capsys):
    code, out = run_cli(capsys, "check", "--all")
    assert code == 1
    expected = (DATA / "check_all.txt").read_text(encoding="utf-8")
    assert ELAPSED_TEXT.sub("", out) == expected


def test_hilbert_rstar_bytes(capsys):
    for bound in (20, 32, 48, 64):
        code, out = run_cli(capsys, "hilbert", "--spec", "builtin:Rstar",
                            "--max-degree", str(bound))
        assert code == 0
        expected = (DATA / f"hilbert_rstar_{bound}.txt").read_text(encoding="utf-8")
        assert out == expected, bound


def _double_gamma3(mp):
    gammas = checks.gamma_generators()
    gammas["gamma3"] = 2 * gammas["gamma3"]
    mp.setattr(checks, "gamma_generators", lambda: dict(gammas))


def _four_element_s3_on_xy(mp):
    # The two elements twistaction-group derives, so that it reaches its
    # closure witnesses, with e and (132): not closed under products.
    group = checks.s3_on_xy()
    kept = tuple(e for e in group.elements if e[0] in ("e", "(12)", "(123)", "(132)"))
    mp.setattr(checks, "s3_on_xy", lambda: MatrixGroup(group.ctx, kept))


def _double_c2(mp):
    chern_classes = checks.chern_classes

    def doubled(rep, top=None):
        c = chern_classes(rep, top)
        return c[:2] + tuple(2 * x for x in c[2:3]) + c[3:]
    mp.setattr(checks, "chern_classes", doubled)


# Each fault reaches counterexample branches of several checks: the
# non-integral expressions of hsurj-restrictions and sl3-restriction, the
# expected-value mismatches of two-variable-gammas, sl3-restriction and
# a3mu3-chern, and the closure and mover witnesses of twistaction-group.
PLANTS = {
    "gamma3 -> 2*gamma3": _double_gamma3,
    "wrong _SL3_EXPECTED c2_sym3":
        lambda mp: mp.setitem(checks._SL3_EXPECTED, "c2_sym3", "16*a2"),
    "wrong _TWO_VARIABLE_EXPECTED gamma2":
        lambda mp: mp.setitem(checks._TWO_VARIABLE_EXPECTED, "gamma2",
                              "x^2 + x*y + y^2"),
    "4-element s3_on_xy": _four_element_s3_on_xy,
    "c2 doubled": _double_c2,
}


def planted_reports() -> str:
    """The text of ``check_all_planted.json`` as the code gives it now."""
    reports = {}
    for name, plant in PLANTS.items():
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
            plant(mp)
            code = cli.main(["check", "--all", "--format", "json"])
        reports[name] = {"exit_code": code,
                         "report": json.loads(ELAPSED.sub("", out.getvalue()))}
    return json.dumps(reports, indent=2) + "\n"


def test_planted_fault_witnesses():
    expected = (DATA / "check_all_planted.json").read_text(encoding="utf-8")
    assert planted_reports() == expected


if __name__ == "__main__":
    (DATA / "check_all_planted.json").write_text(planted_reports(),
                                                 encoding="utf-8")
