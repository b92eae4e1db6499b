"""The BLAS threading policy lives in `parallel` alone, as one rule.

`ordered_imap` caps every mapped task at one BLAS thread, so no other module
sets the count: none references `single_threaded_blas` or `_openblas_threads`.
The rule has no exception: no module, `parallel` included, defines or names
a start-up count block or a lock over the count.  Every SVD goes through
`linalg.top_singular_values`: no module but `linalg` calls `np.linalg.svd`.
Strings and docstrings do not count.
"""

import ast
from pathlib import Path

import pytest

import prunelab

SRC = Path(prunelab.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py"))

POLICY_NAMES = {"single_threaded_blas", "_openblas_threads"}
# the exception the rule once had, and the lock it needed
EXCEPTION_NAMES = {"startup_blas_threads", "_BLAS_LOCK"}


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


@pytest.mark.parametrize("module", [m for m in MODULES if m != "parallel.py"])
def test_no_module_but_parallel_sets_the_thread_count(module):
    assert _names(_tree(module)) & POLICY_NAMES == set()


@pytest.mark.parametrize("module", MODULES)
def test_the_rule_has_no_exception(module):
    assert _names(_tree(module)) & EXCEPTION_NAMES == set()


@pytest.mark.parametrize("module", [m for m in MODULES if m != "linalg.py"])
def test_no_module_but_linalg_calls_the_lapack_svd(module):
    # no np.linalg.svd call, nor a name bound to it
    assert "svd" not in _names(_tree(module))


def test_linalg_calls_the_lapack_svd_in_the_kernel_alone():
    # the top-level statements of linalg that name it
    users = [getattr(n, "name", None) for n in _tree("linalg.py").body if "svd" in _names(n)]
    assert users == ["top_singular_values"]

