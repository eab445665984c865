"""The Smith elimination serves the invariant-factor tables alone.

``intlinalg.invariant_factors`` is called only by ``presented`` (graded
components) and ``checks`` (the gamma span); kernels and solves are
certified by the Hermite transform, not by the Smith elimination.  As in
``test_dead_code``, a reference is a NAME token of ``src/``, so docstrings
and comments do not count, and neither does the name being defined.
"""

from test_dead_code import SRC, _references

SMITH_CALLERS = {"presented.py", "checks.py"}


def test_only_the_table_modules_call_invariant_factors():
    sites = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             if path.name not in SMITH_CALLERS
             for name, (_, line) in _references(path)
             if name == "invariant_factors"]
    assert sites == []
