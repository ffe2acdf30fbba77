"""Rules on the package source, read from its syntax tree.

No program logic rests on `assert`, `errors.check_cap` is the only place
that raises ResourceLimitError, and `errors.check_min` is the only place
that refuses m below a lower bound.  Outside `geometry.py` no code projects
an edge to the pair `(e.a, e.b)`: an `Edge` is that pair already.  No code
reads the environment, so no knob can enter through it.  No module imports
`dataclasses`, which would pull `inspect`, `ast` and their kin into every
CLI start; the value types are namedtuples like `Edge`.  A fresh CLI start
imports only what its command uses: no `typing`, `pathlib` or `json`, and
none of `oracle`, `render` and `verify` for `blocker check`.
The naive search in `oracle.py` names no parallel-class fact and not the
pruned search, so it stays a witness from the blocking definition alone,
and no function in `oracle.py` names the blocker generator or
`BlockerSpec`, so neither search can read what it cross-checks.
In the same way the tree test and the structural scan in `blockers.py`
name neither other, the scan and `validate_caterpillar` name no part of the
blocker generator and none of the context's edge tables (the report holds
the input's own edges), and neither the Catalan count nor the blocking
table of `first_avoiding_spm`, which `blocker check` runs and the tests
check against the enumeration, names an enumerator.  Only `_scan` names
its memo slot, so the tree test, the searches and the report never read a
scan's result through it.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import convex_blockers

SOURCES = sorted(Path(convex_blockers.__file__).parent.glob("*.py"))
LOWER_BOUND_TEXT = re.compile(r"\bm (must be )?>= ")
GENERATOR = ("generate_blocker", "_blocker_edges", "enumerate_blockers", "_start_specs",
             "_blockers_by_start")
TABLES = ("edge_of", "edge_table", "edge_rank")
SCAN_MEMO = "_scan_memo"
# (module, top-level function, names it may not use, rule): each witness
# stays independent of the code it cross-checks.  `EVERY_FUNCTION` stands
# for each function of the module.
EVERY_FUNCTION = "*"
WITNESS_RULES = [
    ("oracle.py", EVERY_FUNCTION, (*GENERATOR, "BlockerSpec"), "generator in the oracle"),
    ("oracle.py", "_search_naive",
     ("parallel_class", "edge_class", "are_parallel", "_search_class_pruned"),
     "parallel-class fact in the naive search"),
    ("blockers.py", "_is_tree", ("_scan", "_boundary_runs"),
     "structural scan in the tree test"),
    ("blockers.py", "_scan", ("_is_tree",), "tree test in the structural scan"),
    ("blockers.py", "_scan", GENERATOR, "generator in the structural witness"),
    ("blockers.py", "validate_caterpillar", GENERATOR,
     "generator in the structural witness"),
    ("blockers.py", "_scan", TABLES, "context table in the structural witness"),
    ("blockers.py", "validate_caterpillar", TABLES,
     "context table in the structural witness"),
    ("matchings.py", "catalan_number",
     ("_spm_splits", "spm_pairs", "enumerate_spms", "first_avoiding_spm"),
     "enumerator in the Catalan count"),
    ("matchings.py", "first_avoiding_spm",
     ("_spm_splits", "spm_pairs", "enumerate_spms"),
     "enumerator in the blocking table"),
]


def _is_m(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "m"
            or isinstance(node, ast.Attribute) and node.attr == "m")


def _is_number(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, int)


def _bounds_m_from_below(test: ast.AST) -> bool:
    """True for a test that holds when m is below a number, such as `m < 2`,
    `2 > ctx.m` or `not ctx.m >= 2`; `t > m` bounds t, not m."""
    negated = isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
    if negated:
        test = test.operand
    if not isinstance(test, ast.Compare):
        return False
    below, above = (ast.Lt, ast.LtE), (ast.Gt, ast.GtE)
    if negated:
        below, above = above, below
    sides = [test.left, *test.comparators]
    return any(_is_m(left) and isinstance(op, below) and _is_number(right)
               or _is_m(right) and isinstance(op, above) and _is_number(left)
               for left, op, right in zip(sides, test.ops, sides[1:]))


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def _message_bounds_m(node: ast.Raise) -> bool:
    return any(isinstance(part, ast.Constant) and isinstance(part.value, str)
               and LOWER_BOUND_TEXT.search(part.value)
               for part in ast.walk(node))


def _is_edge_pair(node: ast.AST) -> bool:
    """True for a tuple of exactly `X.a, X.b` on the same X, as a display
    `(e.a, e.b)` or as a subscript `rank[e.a, e.b]`."""
    if not (isinstance(node, ast.Tuple) and len(node.elts) == 2):
        return False
    first, second = node.elts
    return (isinstance(first, ast.Attribute) and first.attr == "a"
            and isinstance(second, ast.Attribute) and second.attr == "b"
            and ast.dump(first.value) == ast.dump(second.value))


def _reads_environment(node: ast.AST) -> bool:
    """True for `os.environ` or `os.getenv`, called, subscripted or bare,
    and for importing either name from `os`."""
    names = ("environ", "getenv")
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name in names for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _imports_dataclasses(node: ast.AST) -> bool:
    """True for `import dataclasses` and `from dataclasses import ...`."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "dataclasses"
    return (isinstance(node, ast.Import)
            and any(a.name == "dataclasses" for a in node.names))


def _names_scan_memo(node: ast.AST) -> bool:
    """True for the memo slot as a name, an attribute or in a `global`."""
    if isinstance(node, ast.Name):
        return node.id == SCAN_MEMO
    if isinstance(node, ast.Attribute):
        return node.attr == SCAN_MEMO
    return isinstance(node, ast.Global) and SCAN_MEMO in node.names


def _witness_rule(node: ast.AST, module: str, top: str | None) -> str | None:
    """The rule a name breaks inside `top`, the outermost function."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    return next((rule for rule_module, function, names, rule in WITNESS_RULES
                 if module == rule_module and name in names
                 and (top == function or top is not None and function == EVERY_FUNCTION)),
                None)


def findings(source: str, module: str = "") -> list[str]:
    """Every breach of the rules in one module's text, as `line: rule`;
    `module` is the file name, since `geometry.py` defines the edge pair.
    `function` is the innermost enclosing function, `top` the outermost."""
    out = []

    def visit(node: ast.AST, function: str | None, top: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
            top = top or node.name
        if isinstance(node, ast.Assert):
            out.append(f"{node.lineno}: assert statement")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            if _raised_name(node) == "ResourceLimitError" and function != "check_cap":
                out.append(f"{node.lineno}: ResourceLimitError outside check_cap")
            if _message_bounds_m(node) and function != "check_min":
                out.append(f"{node.lineno}: lower bound on m outside check_min")
        elif (isinstance(node, ast.If) and _bounds_m_from_below(node.test)
              and any(isinstance(s, ast.Raise) for s in node.body)
              and function != "check_min"):
            out.append(f"{node.lineno}: lower bound on m outside check_min")
        elif _is_edge_pair(node) and module != "geometry.py":
            out.append(f"{node.lineno}: edge projected to its pair")
        elif _reads_environment(node):
            out.append(f"{node.lineno}: environment read")
        elif _imports_dataclasses(node):
            out.append(f"{node.lineno}: dataclasses import")
        elif (_names_scan_memo(node) and top is not None
              and (module, top) != ("blockers.py", "_scan")):
            out.append(f"{node.lineno}: scan memo outside _scan")
        elif rule := _witness_rule(node, module, top):
            out.append(f"{node.lineno}: {rule}")
        for child in ast.iter_child_nodes(node):
            visit(child, function, top)

    visit(ast.parse(source), None, None)
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_source_keeps_the_rules(path):
    assert findings(path.read_text(encoding="utf-8"), path.name) == []


def _imported(*args: str) -> set[str]:
    """The modules a fresh interpreter imports to run `args`.  Without site
    packages, only the package's own imports can load them."""
    src = Path(convex_blockers.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", *args],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("args, unused", [
    (("-c", "import convex_blockers.cli"),
     ("dataclasses", "inspect", "typing", "pathlib", "json", "convex_blockers.oracle",
      "convex_blockers.render", "convex_blockers.verify")),
    (("-m", "convex_blockers", "blocker", "check", "--m", "4",
      "--edges", "0-1,1-2,2-3,3-4"),
     ("convex_blockers.oracle", "convex_blockers.render", "convex_blockers.verify")),
    (("-m", "convex_blockers", "spm", "enumerate", "--m", "3"), ("json",)),
], ids=["import-cli", "blocker-check", "spm-enumerate-lines"])
def test_a_fresh_start_loads_only_what_its_command_uses(args, unused):
    imported = _imported(*args)
    assert "convex_blockers.cli" in imported
    assert imported & set(unused) == set()


def test_geometry_may_read_the_edge_pair():
    assert findings("pair = (e.a, e.b)\n", "geometry.py") == []


MAX_M_BODY = ("def _max_m() -> int:\n"
              "    raw = os.environ.get(ENV_MAX_M, str(DEFAULT_MAX_M))\n")


def test_cli_may_not_read_the_environment():
    # An environment read is flagged in every module, the CLI included.
    for module in ("cli.py", "oracle.py"):
        assert findings(MAX_M_BODY, module) == ["2: environment read"]


def _naive_body(name: str, use: str) -> str:
    return (f"def {name}(index):\n"
            "    def walk(i):\n"
            f"        return {use}\n")


@pytest.mark.parametrize("source, expected", [
    (_naive_body("_search_naive", "parallel_class(ctx, i)"),
     ["3: parallel-class fact in the naive search"]),
    (_naive_body("_search_naive", "geometry.are_parallel(ctx, e, f)"),
     ["3: parallel-class fact in the naive search"]),
    (_naive_body("_search_naive", "_search_class_pruned(index)"),
     ["3: parallel-class fact in the naive search"]),
    ("def _search_naive(index):\n    return edge_class(ctx, e)\n",
     ["2: parallel-class fact in the naive search"]),
    (_naive_body("_search_class_pruned", "parallel_class(ctx, i)"), []),
    (_naive_body("_search_naive", "comp[i]"), []),
], ids=["nested", "attribute", "pruned-search", "direct", "in-pruned-search",
        "definition-only"])
def test_naive_search_names_no_class_fact(source, expected):
    assert findings(source, "oracle.py") == expected
    assert findings(source, "blockers.py") == []


@pytest.mark.parametrize("module, source, expected", [
    ("blockers.py", _naive_body("_is_tree", "_boundary_runs(ctx, positions)"),
     ["3: structural scan in the tree test"]),
    ("blockers.py", _naive_body("_is_tree", "parent.setdefault(i, i)"), []),
    ("blockers.py", "def _scan(ctx, edges):\n    return blockers._is_tree(edges)\n",
     ["2: tree test in the structural scan"]),
    ("blockers.py", "def validate_caterpillar(ctx, edges):\n"
     "    return _scan(ctx, edges), _is_tree(edges)\n", []),
    ("blockers.py", "def validate_caterpillar(ctx, edges):\n"
     "    return edges in enumerate_blockers(ctx)\n",
     ["2: generator in the structural witness"]),
    ("blockers.py", _naive_body("_scan", "blockers.generate_blocker(ctx, spec)"),
     ["3: generator in the structural witness"]),
    ("blockers.py", "def parse_blocker(ctx, edges):\n"
     "    return generate_blocker(ctx, spec) == edges\n", []),
    ("blockers.py", "def validate_caterpillar(ctx, edges):\n"
     "    return _blocker_edges(ctx, start, t, eps) == edges\n",
     ["2: generator in the structural witness"]),
    ("blockers.py", "def validate_caterpillar(ctx, edges):\n"
     "    return tuple(ctx.edge_of[p, p + 1] for p in range(3))\n",
     ["2: context table in the structural witness"]),
    ("blockers.py", "def generate_blocker(ctx, spec):\n"
     "    return frozenset([ctx.edge_of[spec.start, spec.start + 1]])\n", []),
    ("matchings.py", "def catalan_number(n):\n    return len(list(_spm_splits(ctx, u, ())))\n",
     ["2: enumerator in the Catalan count"]),
    ("matchings.py", "def catalan_number(n):\n    return math.comb(2 * n, n) // (n + 1)\n",
     []),
    ("matchings.py", _naive_body("first_avoiding_spm", "next(spm_pairs(ctx))"),
     ["3: enumerator in the blocking table"]),
], ids=["tree-names-scan", "tree-alone", "scan-names-tree", "both-in-validate",
        "validate-names-generator", "scan-names-generator", "parse-regenerates",
        "validate-names-edge-builder",
        "validate-names-table", "generator-uses-table",
        "catalan-names-enumerator", "catalan-closed-form", "table-names-enumerator"])
def test_witnesses_name_nothing_they_check(module, source, expected):
    assert findings(source, module) == expected
    assert findings(source, "render.py") == []


@pytest.mark.parametrize("source, expected", [
    ("def find_minimum_blockers(index, mode):\n"
     "    return enumerate_blockers(index.ctx)\n", ["2: generator in the oracle"]),
    (_naive_body("_search_class_pruned", "blockers._start_specs(ctx, 0)"),
     ["3: generator in the oracle"]),
    (_naive_body("build_family_index", "next(_blockers_by_start(ctx))"),
     ["3: generator in the oracle"]),
    ("def _search_naive(index):\n    return generate_blocker(ctx, spec)\n",
     ["2: generator in the oracle"]),
    ("def oracle_report_json(index, result):\n    return BlockerSpec(0, 2)\n",
     ["2: generator in the oracle"]),
    ("def is_blocking_set(index, edges):\n    return not _unhit(index, edges)\n", []),
], ids=["search-enumerates", "pruned-reads-specs", "index-reads-family",
        "naive-generates", "report-builds-spec", "definition-only"])
def test_oracle_names_no_generator(source, expected):
    assert findings(source, "oracle.py") == expected
    # `verify` compares the two, so it may name both.
    assert findings(source, "verify.py") == []


def test_the_scan_memo_rule_guards_a_real_slot():
    assert hasattr(convex_blockers.blockers, SCAN_MEMO)


@pytest.mark.parametrize("module, source, expected", [
    ("blockers.py", "def validate_caterpillar(ctx, edges):\n"
     "    return _scan_memo[2]\n", ["2: scan memo outside _scan"]),
    ("blockers.py", _naive_body("_is_tree", "blockers._scan_memo"),
     ["3: scan memo outside _scan"]),
    ("oracle.py", "def _search_naive(index):\n    global _scan_memo\n",
     ["2: scan memo outside _scan"]),
    ("matchings.py", "def _scan(ctx, edges):\n    return _scan_memo\n",
     ["2: scan memo outside _scan"]),
    ("blockers.py", "def _scan(ctx, edges):\n    global _scan_memo\n"
     "    _scan_memo = (ctx, edges, ())\n", []),
    ("blockers.py", "_scan_memo = (None, None, None)\n", []),
], ids=["validate-reads-slot", "tree-reads-slot", "search-declares-slot",
        "scan-in-other-module", "scan-owns-slot", "module-level-slot"])
def test_only_the_scan_names_its_memo(module, source, expected):
    assert findings(source, module) == expected


@pytest.mark.parametrize("source, expected", [
    ("assert x\n", ["1: assert statement"]),
    ("def f():\n    raise ResourceLimitError('too big')\n",
     ["2: ResourceLimitError outside check_cap"]),
    ("def f(m):\n    if m < 2:\n        raise InputError('bad')\n",
     ["2: lower bound on m outside check_min"]),
    ("def f(ctx):\n    if 2 > ctx.m:\n        raise ValueError\n",
     ["2: lower bound on m outside check_min"]),
    ("def f(ctx):\n    if not ctx.m >= 2:\n        raise InputError('bad')\n",
     ["2: lower bound on m outside check_min"]),
    ("def f():\n    raise InputError('blockers require m >= 2')\n",
     ["2: lower bound on m outside check_min"]),
    ("def f(m):\n    raise InputError(f'm must be >= 2, got {m}')\n",
     ["2: lower bound on m outside check_min"]),
    ("def check_cap(m, cap, what):\n    if m > cap:\n"
     "        raise ResourceLimitError(f'm={m} exceeds the {what} cap {cap}')\n", []),
    ("def check_min(m, least):\n    if m < least:\n"
     "        raise InputError(f'm must be >= {least}, got {m}')\n", []),
    ("def f(m, k):\n    if m <= 2:\n        run()\n", []),
    ("def f(m, t):\n    if not 2 <= t <= m:\n        raise InputError('bad t')\n", []),
    ("def f(m_min, m_max):\n    if not 2 <= m_min <= m_max:\n"
     "        raise InputError('need 2 <= m_min <= m_max')\n", []),
    ("key = (e.a, e.b)\n", ["1: edge projected to its pair"]),
    ("i = rank[s.e.a, s.e.b]\n", ["1: edge projected to its pair"]),
    ("key = (e.a + 1, e.b)\n", []),
    ("key = (e.a, f.b)\n", []),
    ("ok = e.a < f.a\n", []),
    ("def f():\n    return os.environ.get('X')\n",
     ["2: environment read"]),
    ("def f():\n    return os.getenv('X')\n",
     ["2: environment read"]),
    ("def f():\n    return os.environ['X']\n",
     ["2: environment read"]),
    ("limit = os.getenv('X')\n", ["1: environment read"]),
    ("def f(ctx):\n    return ctx.environ\n", []),
    ("from os import environ\n", ["1: environment read"]),
    ("from os import path\n", []),
    ("import dataclasses\n", ["1: dataclasses import"]),
    ("from dataclasses import dataclass, field\n", ["1: dataclasses import"]),
    ("def f():\n    import dataclasses as dc\n", ["2: dataclasses import"]),
    ("from collections import namedtuple\n", []),
], ids=["assert", "resource-limit", "m-below", "bound-above-m", "negated",
        "message", "f-string", "check_cap", "check_min", "no-raise", "bound-on-t",
        "other-name", "pair-display", "pair-subscript", "shifted-pair",
        "two-edges", "comparison", "environ-get", "getenv", "environ-item",
        "module-level", "other-environ", "import-environ", "import-path",
        "import-dataclasses", "from-dataclasses", "local-dataclasses",
        "import-namedtuple"])
def test_findings_name_each_breach(source, expected):
    assert findings(source) == expected
