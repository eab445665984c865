"""Each elimination is reached through one module, and each shared input
of the checks through the per-run store.

The Smith elimination serves the invariant-factor tables alone:
``intlinalg.invariant_factors`` is called only by ``presented`` (graded
components) and ``checks`` (the gamma span).  The Hermite elimination stays
inside ``intlinalg``: every other module reaches kernels and solves through
``solve_left``, ``solve_left_rational`` and ``membership``, which read their
answers off the certified kernel.  As in ``test_dead_code``, a reference is
a NAME token of ``src/``, so docstrings and comments do not count, and
neither does the name being defined.

The checks read the gammas, theta, c(W), chi and the Chern classes of the
catalogued representations from the ``_Run`` they are given, which forms each
once per run; a ``_check_*`` function that calls one of their producers
itself would form it again.

Which elements of a group move a polynomial is asked through
``MatrixGroup.movers``, which acts with certified generators first; a loop
over ``labels()`` that calls ``act`` would act with every element again.

Monomial bases have one enumerator, ``poly.graded_bases``: no other module
defines a function named for monomials or bases, and in ``poly`` the
memoised ``monomials_of_degree`` unpacks what ``graded_bases`` yields.  The
graded components of a presented ring come from one loop over the degrees,
which packs once for the run and reads each degree's basis from
``graded_bases`` as packed keys: ``presented`` names neither the tuple
basis ``monomials_of_degree`` nor a one-degree ``graded_component``, and
calls ``packing`` in no loop.

The every-degree certificate of a presented ring is the cross-check of its
Smith table, so the two share no algorithm: ``free_summand_certificate``,
and every function of ``presented`` it calls, names neither ``intlinalg``
nor ``invariant_factors``, ``graded_components`` or ``graded_bases``.

Solves hand back integers, so importing the command line front end loads
neither ``fractions`` nor the ``decimal`` that ``fractions`` imports.  The
test asks a fresh interpreter, because the test session may load both.
"""

import ast
import os
import re
import subprocess
import sys

from test_dead_code import SRC, _references

SMITH_CALLERS = {"presented.py", "checks.py"}
HERMITE_NAMES = {"hermite_normal_form", "left_kernel"}


def _sites(names, allowed_files):
    return [f"{path.name}:{line}:{name}"
            for path in sorted(SRC.glob("*.py"))
            if path.name not in allowed_files
            for name, (_, line) in _references(path)
            if name in names]


def test_cli_import_loads_neither_fractions_nor_decimal():
    code = ("import sys, pgl3chow.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out == "[]\n"


def test_only_the_table_modules_call_invariant_factors():
    assert _sites({"invariant_factors"}, SMITH_CALLERS) == []


def test_only_intlinalg_names_the_hermite_elimination():
    assert _sites(HERMITE_NAMES, {"intlinalg.py"}) == []


SHARED_PRODUCERS = {"gamma_generators", "theta_torus", "w_chern_torus", "chi_torus"}


def _producer_calls(function):
    for call in ast.walk(function):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
            continue
        name = call.func.id
        catalogued = name == "chern_classes" and any(
            isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
            and arg.func.id == "standard" for arg in call.args)
        if name in SHARED_PRODUCERS or catalogued:
            yield f"{function.name}:{call.lineno}:{name}"


def test_checks_read_shared_inputs_from_the_run():
    tree = ast.parse((SRC / "checks.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("_check_")]
    assert len(functions) == 18
    assert [site for f in functions for site in _producer_calls(f)] == []


LOOPS = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_method_call(node, name):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name)


def _label_loops_that_act(tree):
    """``name:line`` of each loop over ``X.labels()`` whose body calls
    ``Y.act``, named by the top-level definition it is in."""
    for top in tree.body:
        for loop in ast.walk(top):
            if not isinstance(loop, LOOPS):
                continue
            iters = ([loop.iter] if isinstance(loop, ast.For)
                     else [g.iter for g in loop.generators])
            if (any(_is_method_call(i, "labels") for i in iters)
                    and any(_is_method_call(n, "act") for n in ast.walk(loop))):
                yield f"{top.name}:{loop.lineno}"


def test_checks_ask_movers_not_each_element():
    tree = ast.parse((SRC / "checks.py").read_text(encoding="utf-8"))
    assert list(_label_loops_that_act(tree)) == []


def test_presented_packs_once_and_builds_no_basis_per_degree():
    path = SRC / "presented.py"
    assert [f"{line}:{name}" for name, (_, line) in _references(path)
            if name in {"monomials_of_degree", "graded_component"}] == []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [f"{call.lineno}" for loop in ast.walk(tree)
            if isinstance(loop, (*LOOPS, ast.While))
            for call in ast.walk(loop)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "packing"] == []


ENUMERATOR_NAME = re.compile(r"monomials|bases")


def _functions(path):
    """Every function of the file at any depth, methods and nested helpers
    included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def test_only_poly_defines_a_basis_enumerator():
    assert sorted(f"{path.name}:{f.name}" for path in SRC.glob("*.py")
                  for f in _functions(path) if ENUMERATOR_NAME.search(f.name)) \
        == ["poly.py:graded_bases", "poly.py:monomials_of_degree"]
    (method,) = [f for f in _functions(SRC / "poly.py")
                 if f.name == "monomials_of_degree"]
    assert any(isinstance(node, ast.Name) and node.id == "graded_bases"
               for node in ast.walk(method))


SMITH_TABLE_NAMES = {"intlinalg", "invariant_factors", "graded_components",
                     "graded_bases"}


def test_the_certificate_shares_no_code_with_the_smith_table():
    tree = ast.parse((SRC / "presented.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    reached, todo, names = set(), ["free_summand_certificate"], set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo += [n for n in names & functions.keys() if n not in reached]
    assert names & SMITH_TABLE_NAMES == set()
