"""The package resolves its public names on first use (PEP 562)."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import convex_blockers

PUBLIC_NAMES = [
    "BlockerSpec", "CaterpillarReport", "Edge", "InfeasibilityError", "InputError",
    "OracleResult", "PolygonContext", "RenderSpec", "ResourceLimitError",
    "SpmFamilyIndex", "StructuralViolation", "StructureError", "TriangularSpec",
    "VerificationReport", "are_parallel", "build_family_index", "catalan_number",
    "count_blockers", "count_blockers_by_spine", "edge_class", "edge_order",
    "edges_cross", "enumerate_blockers", "enumerate_spms", "find_minimum_blockers",
    "first_avoiding_spm", "generate_blocker", "is_blocking_set", "is_spm",
    "parallel_class", "parallel_spm", "parse_blocker", "render_figure",
    "restrict_blocker", "spm_pairs", "triangular_spm", "triangular_spm_from_blocks",
    "validate_caterpillar", "verify_theorem",
]


def test_the_public_names_are_unchanged():
    assert convex_blockers.__all__ == PUBLIC_NAMES


def test_no_submodule_lists_public_names_of_its_own():
    # `_EXPORTS` is the one list of public names: a module `__all__` would be
    # a second list to keep in step with it.  Read from the syntax trees, so
    # `__main__` is not run.
    sources = sorted(Path(convex_blockers.__file__).parent.glob("*.py"))
    assert {path.stem for path in sources} == {*convex_blockers._EXPORTS,
                                               "__init__", "__main__"}
    for path in sources:
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert "__all__" not in {node.id for node in ast.walk(tree)
                                     if isinstance(node, ast.Name)}, path.name


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_public_name_is_its_home_modules_object(name):
    value = getattr(convex_blockers, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("convex_blockers.")
    assert getattr(home, name) is value
    # Bound in the package on first read, so later reads are plain lookups.
    assert vars(convex_blockers)[name] is value


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from convex_blockers import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    assert all(namespace[name] is getattr(convex_blockers, name) for name in PUBLIC_NAMES)


def test_submodules_load_on_first_use():
    # A fresh interpreter, since this one has imported every module already.
    probe = (
        "import sys, convex_blockers\n"
        "print(sorted(m for m in sys.modules if m.startswith('convex_blockers.')))\n"
        "print(convex_blockers.cli.__name__, convex_blockers.blockers.__name__)\n"
        "from convex_blockers import cli, verify\n"
        "print(cli.run_cli.__module__, verify.verify_theorem.__module__)\n"
        "print(convex_blockers.verify is verify)\n")
    src = Path(convex_blockers.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env={"PYTHONPATH": str(src)}, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "[]",
        "convex_blockers.cli convex_blockers.blockers",
        "convex_blockers.cli convex_blockers.verify",
        "True",
    ]


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as info:
        convex_blockers.no_such_name
    assert str(info.value) == "module 'convex_blockers' has no attribute 'no_such_name'"
    assert not hasattr(convex_blockers, "no_such_name")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from convex_blockers import no_such_name", {})
