import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import prunelab

MODULES = sorted(m.name for m in pkgutil.iter_modules(prunelab.__path__))
SRC = Path(prunelab.__file__).parent

# Exported for the tests alone: they are the references that the tests
# compare the fast paths against, so no code in src/ calls them.
TEST_ORACLES = {
    "forward_fcn",  # the masked forward pass estimate_sup_gap must match bit for bit
    "forward_cnn",
    "all_ones_masks",  # one all-ones array per layer: the mask that prunes nothing
    "build_block",  # one doubly block circulant block, against build_full_map
    "circ",  # the circulant matrix the blocks are made of
    "wrap_index",  # the 1-based wrap-around the index conventions are stated in
}


def _references() -> set:
    """The names that code in src/ reads, as a Name or an Attribute, outside
    the top-level function or class of that name.  Strings and docstrings
    do not count."""
    refs = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            found = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                found.discard(stmt.name)
            refs |= found
    return refs


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name deleted from a module must leave its __all__ too."""
    module = importlib.import_module(f"prunelab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_caller(name):
    """Each name in a module's __all__ is used by code in src/ other than
    its own definition, or is one of the test oracles above."""
    module = importlib.import_module(f"prunelab.{name}")
    exported = [n for n in getattr(module, "__all__", ()) if n not in TEST_ORACLES]
    used = _references()
    assert [n for n in exported if n not in used] == []
