"""Command line interface: flags, exit codes, report formats, config files."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from pgl3chow import cli, intlinalg, poly, presented
from pgl3chow.config import (
    MAX_BASIS_WIDTH,
    MAX_DEGREE,
    MAX_DENSE_WIDTH,
    ConfigError,
    check_basis_width,
    check_degree_bound,
    parse_config,
)
from pgl3chow.poly import VariableContext
from pgl3chow.presented import rstar_presentation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_all_checks_with_anchors(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) >= 18
        assert all("anchor:" in line for line in lines)


class TestCheck:
    def test_single_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--name", "point-class")
        assert code == 0
        assert "point-class: pass" in out

    def test_unknown_check_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--name", "bogus")
        assert code == 2
        assert "unknown check" in err

    def test_all_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--all", "--format", "json")
        # hsurj-restrictions fails by design: the published c6 coefficient is
        # contradicted by the computation, so --all exits nonzero.
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, cli.REPORT_SCHEMA)
        assert len(payload["results"]) == 18
        assert payload["summary"] == {"pass": 17, "fail": 1, "error": 0}
        failing = [r for r in payload["results"] if r["verdict"] == "fail"]
        assert [r["name"] for r in failing] == ["hsurj-restrictions"]

    def test_text_and_json_agree(self, capsys):
        code_t, text_out, _ = run_cli(capsys, "check", "--name",
                                      "a3mu3-chern", "--format", "text")
        code_j, json_out, _ = run_cli(capsys, "check", "--name",
                                      "a3mu3-chern", "--format", "json")
        assert code_t == code_j == 0
        payload = json.loads(json_out)
        result = payload["results"][0]
        assert f"a3mu3-chern: {result['verdict']}" in text_out
        for label, value in result["witnesses"].items():
            assert f"{label}: {value}" in text_out

    def test_json_deterministic_up_to_timing(self, capsys):
        _, first, _ = run_cli(capsys, "check", "--name", "gamma-syzygy",
                              "--format", "json")
        _, second, _ = run_cli(capsys, "check", "--name", "gamma-syzygy",
                               "--format", "json")

        def strip(doc):
            payload = json.loads(doc)
            for result in payload["results"]:
                result.pop("elapsed_ms")
            return payload

        assert strip(first) == strip(second)

    def test_max_degree_override(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--name", "gamma-generation",
                               "--max-degree", "4")
        assert code == 0
        assert "0..4" in out

    def test_negative_max_degree_rejected(self, capsys):
        code, _, err = run_cli(capsys, "check", "--name", "gamma-generation",
                               "--max-degree", "-1")
        assert code == 2

    def test_degree_limit(self, capsys, tmp_path):
        # Only the limit check sees MAX_DEGREE; nothing runs at that bound.
        assert check_degree_bound(MAX_DEGREE, "--max-degree") == MAX_DEGREE
        assert check_degree_bound(0, "--max-degree") == 0
        for bad in (-1, MAX_DEGREE + 1):
            with pytest.raises(ConfigError, match=f"between 0 and {MAX_DEGREE}"):
                check_degree_bound(bad, "--max-degree")
        text = "[options]\nmax-degree gamma-generation = {}\n"
        assert parse_config(text.format(MAX_DEGREE)).max_degree_overrides == {
            "gamma-generation": MAX_DEGREE}
        with pytest.raises(ConfigError, match="line 2: max-degree must be between"):
            parse_config(text.format(MAX_DEGREE + 1))
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(text.format(MAX_DEGREE + 1))
        over = str(MAX_DEGREE + 1)
        for argv in (("check", "--name", "gamma-generation", "--max-degree", over),
                     ("check", "--all", "--max-degree", over),
                     ("hilbert", "--spec", "builtin:Rstar", "--max-degree", over),
                     ("--config", str(cfg), "check", "--name", "gamma-generation")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert f"must be between 0 and {MAX_DEGREE}, got {over}" in err

    def test_missing_selection_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "check")
        assert code == 2


    def test_reader_closing_early_keeps_the_verdict_status(self):
        # At --max-degree 64 the report is far larger than a pipe's buffer,
        # so the writer is still writing when the reader leaves after one
        # line; hsurj-restrictions fails, so the status is 1.
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "pgl3chow", "check", "--all", "--max-degree", "64"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first == b"# check report (selection: --all)\n"
        assert err == b""


class TestParser:
    """One parser, built at the first ``main`` call, serves every call of
    the process; no call's flags or config reach the next."""

    def test_built_once_and_not_at_import(self):
        assert cli.build_parser() is cli.build_parser()
        src = Path(cli.__file__).resolve().parents[1]
        probe = ("import contextlib, io\n"
                 "from pgl3chow import cli\n"
                 "print(cli.build_parser.cache_info().misses)\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    cli.main(['list']); cli.main(['check', '--name', 'bogus'])\n"
                 "print(cli.build_parser.cache_info().misses)\n")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "0\n1\n")

    def test_no_state_carries_between_calls(self, capsys, tmp_path):
        cfg = tmp_path / "bound.cfg"
        cfg.write_text("[options]\nformat = json\nmax-degree gamma-generation = 4\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "check", "--name",
                               "gamma-generation", "--format", "json",
                               "--max-degree", "2")
        assert code == 0
        assert json.loads(out)["config_echo"]["max_degree"] == 2
        code, out, err = run_cli(capsys, "check", "--name", "gamma-generation",
                                 "--max-degree", "two")
        assert (code, out) == (2, "")
        assert "invalid int value: 'two'" in err
        code, out, err = run_cli(capsys, "check", "--name", "gamma-generation")
        assert (code, err) == (0, "")
        assert out.startswith("# check report (selection: gamma-generation)\n")
        assert "    checked degrees: 0..12\n" in out

    def test_identical_calls_print_identical_bytes(self, capsys):
        elapsed = re.compile(r" \(\d+\.\d ms\)$", re.M)
        first, second = ((code, elapsed.sub("", out), err) for code, out, err
                         in (run_cli(capsys, "check", "--all") for _ in range(2)))
        assert first == second
        assert (first[0], first[2]) == (1, "")


class TestHilbert:
    def test_builtin_rstar_rows(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "--spec", "builtin:Rstar",
                               "--max-degree", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0: Z"
        assert lines[3] == "3: Z"
        assert lines[4] == "4: Z ⊕ Z/3"

    def test_unknown_builtin_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "hilbert", "--spec", "builtin:nope",
                               "--max-degree", "2")
        assert code == 2
        assert "unknown builtin" in err

    def test_presentation_from_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "pres.cfg"
        cfg.write_text(
            "[presentation torsion-line]\n"
            "generators = g:1\n"
            "relation = 3*g\n")
        code, out, _ = run_cli(capsys, "hilbert", "--spec", str(cfg),
                               "--max-degree", "3")
        assert code == 0
        assert out.splitlines() == ["0: Z", "1: Z/3", "2: Z/3", "3: Z/3"]

    def test_redundant_unit_generator_prints_the_same_table(self, capsys,
                                                            tmp_path):
        # g - a^2 defines g by a, so the ring is Z[a]/(2*a^2) either way.
        outputs = []
        for gens, rels in (("a:1 g:2", ("g - a^2", "2*a^2")),
                           ("a:1", ("2*a^2",))):
            cfg = tmp_path / "pres.cfg"
            cfg.write_text("[presentation p]\ngenerators = " + gens + "\n"
                           + "".join(f"relation = {r}\n" for r in rels))
            outputs.append(run_cli(capsys, "hilbert", "--spec", str(cfg),
                                   "--max-degree", "6"))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0
        assert outputs[0][1].splitlines() == ["0: Z", "1: Z"] + [
            f"{d}: Z/2" for d in range(2, 7)]

    def test_wide_basis_exits_2_before_any_monomial(self, capsys, tmp_path,
                                                    monkeypatch):
        # Twelve generators of degree 1 have C(75, 11), about 4.9e12,
        # monomials in degree 64; the count from the degrees alone stops the
        # run at degree 5, before a single monomial is enumerated: the one
        # enumerator is refused where it is bound, and so is the memoised
        # tuple basis, which a cached degree would answer without it.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("[presentation wide]\ngenerators = "
                       + " ".join(f"g{i}:1" for i in range(12))
                       + "\nrelation = g0\n")

        def refuse(*args):
            raise AssertionError("monomials enumerated")

        monkeypatch.setattr(VariableContext, "monomials_of_degree", refuse)
        monkeypatch.setattr(poly, "graded_bases", refuse)
        monkeypatch.setattr(presented, "graded_bases", refuse)
        code, out, err = run_cli(capsys, "hilbert", "--spec", str(cfg),
                                 "--max-degree", "64")
        assert code == 2
        assert out == ""
        assert err == (f"error: degree 5 has 4368 basis monomials, over the "
                       f"limit of {MAX_BASIS_WIDTH}; lower --max-degree\n")

    def test_wide_dense_remainder_exits_2_before_eliminating(
            self, capsys, tmp_path, monkeypatch):
        # One relation on all 276 monomials of degree 22 in a, b, c, with
        # coefficients 2 and one 3: no unit and content 1, so its one row
        # in degree 22 is all dense remainder, wider than the limit.
        terms = [f"{2 + (i == 0)}*a^{i}*b^{j}*c^{22 - i - j}"
                 for i in range(23) for j in range(23 - i)]
        assert len(terms) == 276 > MAX_DENSE_WIDTH
        cfg = tmp_path / "dense.cfg"
        cfg.write_text("[presentation dense]\ngenerators = a:1 b:1 c:1\n"
                       "relation = " + " + ".join(terms) + "\n")

        def refuse(*args):
            raise AssertionError("dense elimination started")

        monkeypatch.setattr(intlinalg, "_smith_reduce", refuse)
        code, out, err = run_cli(capsys, "hilbert", "--spec", str(cfg),
                                 "--max-degree", "30")
        assert code == 2
        assert out == ""
        assert err == (f"error: degree 22 leaves 276 columns for the dense "
                       f"elimination, over the limit of {MAX_DENSE_WIDTH}; "
                       f"lower --max-degree\n")

    def test_relations_above_the_bound_skip_the_elimination(
            self, capsys, tmp_path, monkeypatch):
        # a - b - c eliminates a, and substituting it into a^400 - b^400
        # would expand (b + c)^400; degrees 0..2 never read that relation.
        cfg = tmp_path / "high.cfg"
        cfg.write_text("[presentation p]\ngenerators = a:1 b:1 c:1\n"
                       "relation = a - b - c\nrelation = a^400 - b^400\n")
        degrees = []
        real = cli.eliminate_unit_generators

        def spy(pres):
            ctx = pres.context
            degrees.extend(ctx.weighted_degree(e)
                           for rel in pres.relations for e in rel.terms)
            return real(pres)

        monkeypatch.setattr(cli, "eliminate_unit_generators", spy)
        code, out, _ = run_cli(capsys, "hilbert", "--spec", str(cfg),
                               "--max-degree", "2")
        assert code == 0
        assert out.splitlines() == ["0: Z", "1: Z ⊕ Z", "2: Z ⊕ Z ⊕ Z"]
        assert degrees and max(degrees) <= 2

    def test_rstar_admitted_at_the_degree_limit(self):
        check_basis_width(rstar_presentation(), MAX_DEGREE)

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[presentation p]\ngenerators = g:one\n")
        code, _, err = run_cli(capsys, "hilbert", "--spec", str(cfg),
                               "--max-degree", "2")
        assert code == 2


class TestConfigFile:
    def test_options_section(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(
            "[options]\n"
            "format = json\n"
            "max-degree gamma-generation = 4\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg),
                               "check", "--name", "gamma-generation")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["witnesses"]["checked degrees"] == "0..4"

    def test_flag_beats_config_bound_for_both_selections(self, capsys, tmp_path):
        # The config file's bound holds unless --max-degree is given, for
        # --all and --name alike.
        cfg = tmp_path / "bound.cfg"
        cfg.write_text("[options]\nformat = json\nmax-degree gamma-generation = 4\n")
        for flag, degrees in ((["--max-degree", "2"], "0..2"), ([], "0..4")):
            for selection in (["--all"], ["--name", "gamma-generation"]):
                _, out, _ = run_cli(capsys, "--config", str(cfg), "check",
                                    *selection, *flag)
                payload = json.loads(out)
                results = {r["name"]: r for r in payload["results"]}
                witnesses = results["gamma-generation"]["witnesses"]
                assert witnesses["checked degrees"] == degrees, (selection, flag)
                assert payload["config_echo"] == {
                    "selection": selection[-1],
                    "format": "json",
                    "max_degree": 2 if flag else None,
                    "max_degree_overrides": {"gamma-generation": 4},
                }, (selection, flag)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown options key"):
            parse_config("[options]\ncolour = green\n")

    def test_named_options_section_rejected(self, capsys, tmp_path):
        # A name would suggest that the keys are scoped to something.
        text = "[presentation p]\ngenerators = g:1\n[options extra]\nformat = json\n"
        message = "line 3: section [options] takes no name, got 'extra'"
        with pytest.raises(ConfigError, match=message.replace("[", r"\[")):
            parse_config(text)
        cfg = tmp_path / "named.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "--config", str(cfg), "check",
                                 "--name", "point-class")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_duplicates_rejected_with_their_line(self, capsys, tmp_path):
        # A later section or key never silently replaces an earlier one.
        cases = (
            ("[options]\nformat = json\n[options]\nformat = text\n",
             "line 3: duplicate section [options]"),
            ("[presentation p]\ngenerators = g:1\n"
             "[presentation p]\ngenerators = h:1\n",
             "line 3: duplicate section [presentation p]"),
            ("[options]\nformat = json\nformat = text\n",
             "line 3: duplicate options key 'format'"),
            ("[options]\nmax-degree point-class = 2\n"
             "max-degree point-class = 3\n",
             "line 3: duplicate options key 'max-degree point-class'"),
            ("[presentation p]\ngenerators = g:1\ngenerators = h:1\n",
             "line 3: duplicate 'generators' in [presentation p]"),
        )
        cfg = tmp_path / "twice.cfg"
        for text, message in cases:
            with pytest.raises(ConfigError, match=message.replace("[", r"\[")):
                parse_config(text)
            cfg.write_text(text)
            code, out, err = run_cli(capsys, "--config", str(cfg), "list")
            assert (code, out, err) == (2, "", f"error: {message}\n")
        # Two differently named presentations are two sections.
        assert len(parse_config("[presentation p]\ngenerators = g:1\n"
                                "[presentation q]\ngenerators = h:1\n"
                                ).presentations) == 2

    def test_unknown_section_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "section.cfg"
        for text in (
            "[widgets w]\n",
            "[group swap]\ncontext = x y\nelement e = 1 0 / 0 1\n",
            "[constraint shift]\ncontext = x1 x2 x3\nshift = 1 1 1\n",
            "[rep pair]\nlattice = T_SL3_u\nweight = 1 0\n",
        ):
            with pytest.raises(ConfigError, match="unknown section kind"):
                parse_config(text)
            cfg.write_text(text)
            code, _, err = run_cli(capsys, "--config", str(cfg), "list")
            assert code == 2
            assert "unknown section kind" in err
            code, _, err = run_cli(capsys, "hilbert", "--spec", str(cfg),
                                   "--max-degree", "2")
            assert code == 2
            assert "unknown section kind" in err

    def test_unknown_override_name_exits_2_for_both_selections(self, capsys,
                                                               tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("[options]\nmax-degree gamma-generatoin = 4\n")
        for selection in (["--all"], ["--name", "point-class"]):
            code, out, err = run_cli(capsys, "--config", str(cfg),
                                     "check", *selection)
            assert code == 2
            assert out == ""
            assert err == ("error: unknown check 'gamma-generatoin'; "
                           "run 'pgl3chow list'\n")

    def test_bad_config_path_exits_2(self, capsys, tmp_path):
        # An empty path is a path given: it is read, and fails.  A UTF-16
        # byte order mark is no UTF-8, so that file cannot be read either.
        utf16 = tmp_path / "utf16.cfg"
        utf16.write_bytes(b"\xff\xfe" + "[options]\n".encode("utf-16-le"))
        for path in (str(tmp_path / "absent.cfg"), "", str(utf16)):
            for argv in (("--config", path, "list"),
                         ("hilbert", "--spec", path, "--max-degree", "2")):
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (2, ""), argv
                assert err.startswith(f"error: cannot read config {path!r}: "), argv
