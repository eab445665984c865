"""Every top-level function and class of the package, underscored or not,
and every public method has a caller inside the package.

A name counts as referenced when it appears as code on a line of ``src/``
outside its own definition.  Definition names, docstrings, comments and the
re-exports in ``__init__.py`` do not count, so a helper that only tests reach
is reported as dead.  A private helper needs a caller too: otherwise it
lives on only for the tests.
"""

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

import pgl3chow

SRC = Path(pgl3chow.__file__).resolve().parent

# Public names kept although no line of the package uses them, with the reason.
ALLOWED: dict[str, str] = {}


def _definitions(tree):
    """(qualified name, node) for each top-level def and class and each
    public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def _references(path):
    """(name, (path, line)) for every NAME token of the file that is not the
    name being defined by a ``def`` or ``class`` statement."""
    previous = None
    text = path.read_text(encoding="utf-8")
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            yield tok.string, (path, tok.start[0])
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok.string


def dead_names():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    sites = defaultdict(set)
    for path in files:
        for name, site in _references(path):
            sites[name].add(site)
    dead = set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if all(other == path and line in own
                   for other, line in sites[node.name]):
                dead.add(qualified)
    return dead


def test_every_public_name_has_a_caller_in_src():
    assert sorted(n for n in dead_names() - ALLOWED.keys()
                  if not n.startswith("_")) == []


def test_every_private_top_level_name_has_a_caller_in_src():
    assert sorted(n for n in dead_names() if n.startswith("_")) == []


def test_allowlist_names_only_uncalled_names():
    assert sorted(ALLOWED.keys() - dead_names()) == []
