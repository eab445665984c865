"""Report bytes pinned against files in tests/data.

``check_all.json`` is the output of ``check --all --format json``,
``gamma_generation_N.json`` that of ``check --name gamma-generation
--max-degree N --format json`` for N = 24 and 64 (the input limit, pinning
the Molien ranks of all 65 degrees) and ``rstar_structure_N.json`` that of
``check --name rstar-structure --max-degree N --format json`` for N = 32 and
64 (the input limit, pinning the torsion table of all 65 degrees), each with
every result's ``elapsed_ms`` key removed, the one field that varies between
runs; ``hilbert_rstar_N.txt`` is ``hilbert --spec builtin:Rstar
--max-degree N`` for N = 20, 32 and 48, the last two pinning the torsion of
degrees 21-32 and 33-48.
A change to the arithmetic that alters a verdict, a witness or the layout of
a report shows up here as a byte difference.
"""

import re
from pathlib import Path

from pgl3chow import cli

DATA = Path(__file__).resolve().parent / "data"
ELAPSED = re.compile(r',\n\s*"elapsed_ms": [-0-9.eE+]+')


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


def test_hilbert_rstar_bytes(capsys):
    for bound in (20, 32, 48):
        code, out = run_cli(capsys, "hilbert", "--spec", "builtin:Rstar",
                            "--max-degree", str(bound))
        assert code == 0
        expected = (DATA / f"hilbert_rstar_{bound}.txt").read_text(encoding="utf-8")
        assert out == expected, bound
