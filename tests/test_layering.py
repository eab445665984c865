"""Each elimination is reached through one module.

The Smith elimination serves the invariant-factor tables alone:
``intlinalg.invariant_factors`` is called only by ``presented`` (graded
components) and ``checks`` (the gamma span).  The Hermite elimination stays
inside ``intlinalg``: every other module reaches kernels and solves through
``solve_left``, ``solve_left_rational`` and ``membership``, which read their
answers off the certified kernel.  As in ``test_dead_code``, a reference is
a NAME token of ``src/``, so docstrings and comments do not count, and
neither does the name being defined.
"""

from test_dead_code import SRC, _references

SMITH_CALLERS = {"presented.py", "checks.py"}
HERMITE_NAMES = {"hermite_normal_form", "left_kernel"}


def _sites(names, allowed_files):
    return [f"{path.name}:{line}:{name}"
            for path in sorted(SRC.glob("*.py"))
            if path.name not in allowed_files
            for name, (_, line) in _references(path)
            if name in names]


def test_only_the_table_modules_call_invariant_factors():
    assert _sites({"invariant_factors"}, SMITH_CALLERS) == []


def test_only_intlinalg_names_the_hermite_elimination():
    assert _sites(HERMITE_NAMES, {"intlinalg.py"}) == []
