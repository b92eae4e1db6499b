"""`theory` states every theorem quantity; `harness` keeps no theorem literal.

Three rules on the source of `harness`, read as a syntax tree, so strings
and docstrings do not count:

1. No power (`**`, `**=`, or a `pow`, `math.pow` or `np.power` call) has an
   exponent that names `alpha`, `beta1`, `beta2`, `l`, `mean_expo` or
   `event_expo`, as a Name or an Attribute, or that holds a float literal.
   Theorem exponents of alpha or d live in `theory`.
2. Inside the sweeps' `one_trial`, `layer_entries` and `summarize`
   closures, no float literal other than 0.0 and 1.0 appears: no Latala
   constant, event threshold or bound factor.
3. `harness` does not name `c2_const`, `mean_expo` or `event_expo`.

The range and overflow checks keep their literals (4.0, 1e-300, the 3-SE
gates): they are safety code, not theorem statements, and sit outside the
sweep closures.
"""

import ast
from pathlib import Path

import prunelab

HARNESS = Path(prunelab.__file__).parent / "harness.py"

EXPONENT_NAMES = {"alpha", "beta1", "beta2", "l", "mean_expo", "event_expo"}
CLOSURES = {
    ("run_fcn_gap_sweep", "one_trial"),
    ("run_fcn_gap_sweep", "summarize"),
    ("run_cnn_gap_sweep", "layer_entries"),
    ("run_cnn_gap_sweep", "one_trial"),
    ("run_cnn_gap_sweep", "summarize"),
}
FORBIDDEN_NAMES = {"c2_const", "mean_expo", "event_expo"}


def _tree() -> ast.Module:
    return ast.parse(HARNESS.read_text(encoding="utf-8"))


def _is_float(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float


def _exponents(tree: ast.AST):
    """Every power's exponent: of `**`, `**=`, and pow/math.pow/np.power calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            yield node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            yield node.value
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in ("pow", "power"):
                yield node.args[1]


def _names(node: ast.AST) -> set:
    """Names a node reads or binds: Names, Attributes, defs, arguments and keywords."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
            found.add(sub.name)
        elif isinstance(sub, ast.arg):
            found.add(sub.arg)
        elif isinstance(sub, ast.keyword) and sub.arg:
            found.add(sub.arg)
    return found


def _closures(tree: ast.Module) -> dict:
    """(runner, closure) -> the closure's def, for the sweeps' closures."""
    found = {}
    for runner in tree.body:
        if isinstance(runner, ast.FunctionDef):
            for node in ast.walk(runner):
                if node is not runner and isinstance(node, ast.FunctionDef) and (runner.name, node.name) in CLOSURES:
                    found[(runner.name, node.name)] = node
    return found


def test_no_power_in_harness_has_a_theorem_exponent():
    bad = [
        ast.unparse(e) for e in _exponents(_tree())
        if _names(e) & EXPONENT_NAMES or any(_is_float(n) for n in ast.walk(e))
    ]
    assert bad == []


def test_the_sweep_closures_hold_no_float_literal_but_zero_and_one():
    closures = _closures(_tree())
    assert set(closures) == CLOSURES
    bad = [
        (key, node.value) for key, fn in sorted(closures.items()) for node in ast.walk(fn)
        if _is_float(node) and node.value not in (0.0, 1.0)
    ]
    assert bad == []


def test_harness_names_no_theorem_constant_or_exponent():
    assert _names(_tree()) & FORBIDDEN_NAMES == set()
