"""No function in ``repro`` stores a local it never reads.

CI's ``ruff check src/`` fails on such a dead store too (F841); this scan
keeps the rule in the test suite, where it runs without ruff. It flags a
plain ``name = value`` inside a function when nothing in the function,
nested functions included, reads ``name`` (an augmented assignment
reads its target). Parameters, augmented assignments, tuple targets,
``global``/``nonlocal`` names and names starting with an underscore are
exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func: ast.AST):
    """Every node in ``func``'s own scope: the bodies of nested
    functions, lambdas and classes are their own scopes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _dead_stores(func: ast.AST):
    """(name, line) of each plain store in ``func`` that nothing reads."""
    args = func.args
    exempt = {
        arg.arg
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            args.vararg, args.kwarg,
        )
        if arg is not None
    }
    stores = []
    for node in _own_nodes(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            exempt.update(node.names)
        elif isinstance(node, ast.Assign):
            stores.extend(
                (target.id, target.lineno)
                for target in node.targets
                if isinstance(target, ast.Name)
            )
    read = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            read.add(node.target.id)  # ``n += 1`` reads n first
    return [
        (name, line)
        for name, line in stores
        if name not in read and name not in exempt and not name.startswith("_")
    ]


def find_dead_stores(root: Path) -> list[str]:
    """``path:line name`` of every dead store under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(
                    f"{path.relative_to(root.parent)}:{line} {name}"
                    for name, line in _dead_stores(node)
                )
    return sorted(found)


def test_src_has_no_unused_locals():
    found = find_dead_stores(SRC)
    assert found == [], "unused locals in src/repro:\n" + "\n".join(found)


def test_scan_flags_a_planted_dead_store(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "import time\n"
        "\n"
        "def f(x, y):\n"
        "    t0 = time.perf_counter()\n"
        "    wall = time.perf_counter() - t0\n"
        "    x = 2\n"
        "    a, b = 1, 2\n"
        "    total = 0\n"
        "    total += 1\n"
        "    _ignored = 3\n"
        "    kept = 4\n"
        "    def inner():\n"
        "        return kept\n"
        "    return inner\n"
    )
    assert find_dead_stores(pkg) == ["repro/mod.py:5 wall"]
