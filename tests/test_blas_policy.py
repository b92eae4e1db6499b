"""The BLAS threading policy lives in `parallel` alone.

`ordered_imap` caps every mapped task at one BLAS thread, so no other module
sets the count: none references `single_threaded_blas` or `_openblas_threads`.
The one exception, `startup_blas_threads`, wraps cnn-sweep's explicit-map
SVD and nothing else.  Every SVD goes through `linalg.top_singular_values`:
no module but `linalg` calls `np.linalg.svd`.  Strings and docstrings do
not count.
"""

import ast
from pathlib import Path

import pytest

import prunelab

SRC = Path(prunelab.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py"))

POLICY_NAMES = {"single_threaded_blas", "_openblas_threads"}
EXCEPTION = "startup_blas_threads"


def _names(node: ast.AST) -> set:
    """Names a node reads, imports or defines, as a Name, an Attribute, an
    import alias or a def."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
        elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
            found.add(sub.name)
    return found


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text(encoding="utf-8"))


def _is_kernel_call(node: ast.AST) -> bool:
    # top_singular_values(...), by its imported name or as an attribute
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        isinstance(func, ast.Name) and func.id == "top_singular_values"
        or isinstance(func, ast.Attribute) and func.attr == "top_singular_values"
    )


def _exception_uses(tree: ast.Module):
    """(top-level function, with-statement or None) for every read of the
    exception's name, as a Name or an Attribute; None when the read is not
    the call that is the whole context expression of a `with` statement."""
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Name) and node.id == EXCEPTION
            or isinstance(node, ast.Attribute) and node.attr == EXCEPTION
        ):
            continue
        call = parents.get(node)
        item = parents.get(call)
        stmt = parents.get(item)
        # the top-level function the read sits in
        fname = None
        up = stmt
        while up is not None:
            if isinstance(up, ast.FunctionDef):
                fname = up.name
            up = parents.get(up)
        if isinstance(call, ast.Call) and isinstance(item, ast.withitem) and isinstance(stmt, ast.With):
            yield fname, stmt
        else:
            yield fname, None


@pytest.mark.parametrize("module", [m for m in MODULES if m != "parallel.py"])
def test_no_module_but_parallel_sets_the_thread_count(module):
    assert _names(_tree(module)) & POLICY_NAMES == set()


def test_the_exception_wraps_only_the_explicit_map_svd():
    uses = [(m, *use) for m in MODULES if m != "parallel.py" for use in _exception_uses(_tree(m))]
    assert [(m, f) for m, f, _ in uses] == [("harness.py", "run_cnn_gap_sweep")]
    (_, _, with_stmt) = uses[0]
    assert with_stmt is not None, "the exception must be entered as a with statement"
    assert len(with_stmt.items) == 1 and len(with_stmt.body) == 1
    kernel_calls = [n for n in ast.walk(with_stmt.body[0]) if _is_kernel_call(n)]
    assert len(kernel_calls) == 1
    # the SVD is of the explicit map
    assert "w_full" in _names(kernel_calls[0])


@pytest.mark.parametrize("module", [m for m in MODULES if m != "linalg.py"])
def test_no_module_but_linalg_calls_the_lapack_svd(module):
    # no np.linalg.svd call, nor a name bound to it
    assert "svd" not in _names(_tree(module))


def test_linalg_calls_the_lapack_svd_in_the_kernel_alone():
    # the top-level statements of linalg that name it
    users = [getattr(n, "name", None) for n in _tree("linalg.py").body if "svd" in _names(n)]
    assert users == ["top_singular_values"]


def test_parallel_calls_the_exception_nowhere():
    tree = _tree("parallel.py")
    calls = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == EXCEPTION
    ]
    assert calls == []
