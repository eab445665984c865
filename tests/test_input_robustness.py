"""Random input text: polynomial text and config files are either accepted or
rejected with their own error type, and the command line answers a bad
config file, under ``--config`` or ``hilbert --spec``, with exit 2, never
with an internal error (exit 3) or a traceback.

The text is drawn from a small alphabet of variable names, digits, the
operators ``+ - * ^ /``, spaces, brackets, ``=``, ``#`` and newlines.
Config files are built line by line from that alphabet plus the section and
key words, so that inputs also reach the option and presentation parsers.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from pgl3chow import cli
from pgl3chow.config import ConfigError, UserConfig, parse_config
from pgl3chow.poly import (
    INTEGERS,
    Polynomial,
    PolynomialParseError,
    context,
    integers_mod,
    parse,
)

FUZZ_SETTINGS = settings(max_examples=150, deadline=None)

CTX = context(("x1", "x2", "x3", "x", "y"))

POLY_TOKENS = ("x1", "x2", "x3", "x", "y", "t", "lam", *"0123456789",
               "+", "-", "*", "^", "/", " ", "(", ")", "[", "]", "=", "#", "\n")

CONFIG_WORDS = ("options", "presentation", "format", "text", "json",
                "max-degree", "point-class", "gamma-generation", "generators",
                "relation", "lam:2", "c3:3", "lam", "c3", ":", "P")


def texts(tokens, max_size):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map("".join)


def config_lines():
    """A section header, a ``key = value`` line, or any text; each part is
    drawn from the config alphabet, with the real words weighted in."""
    words = POLY_TOKENS + CONFIG_WORDS
    inline = tuple(w for w in words if w != "\n")
    key = st.one_of(
        st.sampled_from(("format", "max-degree point-class", "max-degree",
                         "max-degree gamma-generation", "generators", "relation")),
        texts(inline, 4))
    value = st.one_of(
        st.sampled_from(("text", "json", "0", "7", "64", "65", "-1",
                         "lam:2 c3:3", "lam^3 - c3^2", "3*lam")),
        texts(inline, 8))
    headers = st.sampled_from(("[options]", "[presentation P]", "[presentation]",
                               "[options", "[bogus]", "# note", ""))
    assignment = st.builds("{} = {}".format, key, value)
    # Assignments are weighted up: a line of other text is rejected at once.
    return st.one_of(headers, assignment, assignment, assignment, texts(words, 10))


# Most files open with a real section header, so that their later lines
# reach the key parsers instead of all failing as content before a section.
config_texts = st.builds(
    lambda head, lines: "\n".join((head, *lines)),
    st.sampled_from(("[options]", "[presentation P]",
                     "[presentation P]\ngenerators = lam:2 c3:3", "")),
    st.lists(config_lines(), max_size=8))


# Files for ``hilbert --spec FILE``: a ``[presentation p]`` header with a
# generator list, relation lines, and now and then one of the config lines
# above.  Relations are sums of terms in the generator names, or any text.
GENERATOR_NAMES = ("g", "h", "lam", "c3")
generator_lists = st.lists(
    st.tuples(st.sampled_from(GENERATOR_NAMES),
              st.sampled_from(("1", "2", "3", "9", "0", "x"))),
    min_size=1, max_size=3, unique_by=lambda g: g[0],
).map(lambda gens: " ".join(f"{name}:{degree}" for name, degree in gens))
relation_terms = st.builds("{}*{}^{}".format, st.integers(-9, 9),
                           st.sampled_from(GENERATOR_NAMES), st.integers(0, 3))
relation_lines = st.builds(
    "relation = {}".format,
    st.one_of(st.lists(relation_terms, min_size=1, max_size=3).map(" + ".join),
              texts(tuple(t for t in POLY_TOKENS if t != "\n") + GENERATOR_NAMES, 10)))
spec_texts = st.builds(
    lambda gens, rels, extra: "\n".join(("[presentation p]", f"generators = {gens}",
                                         *rels, *extra)),
    generator_lists, st.lists(relation_lines, max_size=4),
    st.lists(config_lines(), max_size=1))


def run_with_file(text, argv):
    """Exit code and stderr of ``cli.main(argv(path))`` with ``text`` at path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv(path))
    return code, err.getvalue()


class TestParsers:
    @FUZZ_SETTINGS
    @given(texts(POLY_TOKENS, 20), st.sampled_from((INTEGERS, integers_mod(3))))
    def test_parse_returns_or_rejects(self, text, ring):
        try:
            p = parse(text, CTX, ring)
        except PolynomialParseError:
            return
        assert isinstance(p, Polynomial)
        assert parse(p.render(), CTX, ring) == p

    @FUZZ_SETTINGS
    @given(config_texts)
    def test_parse_config_returns_or_rejects(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert isinstance(cfg, UserConfig)


class TestCommandLine:
    @settings(max_examples=60, deadline=None)
    @given(config_texts)
    def test_config_file_exits_0_or_2(self, text):
        code, err = run_with_file(
            text, lambda path: ["--config", path, "check", "--name", "point-class"])
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: "), err

    @settings(max_examples=80, deadline=None)
    @given(spec_texts)
    def test_hilbert_spec_exits_0_or_2(self, text):
        code, err = run_with_file(
            text, lambda path: ["hilbert", "--spec", path, "--max-degree", "3"])
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: "), err


class TestOverlongNumbers:
    """A digit run longer than ``int()`` converts is rejected like any other
    bad text, not with a bare ``ValueError`` or an internal error."""

    DIGITS = "9" * 5000

    def test_parse(self):
        for text in (self.DIGITS, f"{self.DIGITS}*x", f"x^{self.DIGITS}"):
            with pytest.raises(PolynomialParseError, match="too long"):
                parse(text, CTX)

    def test_config_and_command_line(self, tmp_path, capsys):
        bad_degree = f"[presentation P]\ngenerators = lam:{self.DIGITS}\nrelation = lam\n"
        bad_power = f"[presentation P]\ngenerators = lam:2\nrelation = lam^{self.DIGITS}\n"
        for text in (bad_degree, bad_power):
            with pytest.raises(ConfigError, match="too long"):
                parse_config(text)
            path = tmp_path / "overlong.cfg"
            path.write_text(text, encoding="utf-8")
            for argv in (["--config", str(path), "check", "--name", "point-class"],
                         ["hilbert", "--spec", str(path), "--max-degree", "3"]):
                assert cli.main(argv) == 2, argv
                assert capsys.readouterr().err.startswith("error: "), argv
