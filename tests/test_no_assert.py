"""No runtime check in ``repro`` relies on ``assert``.

``python -O`` strips assert statements, so a check written as one
silently vanishes from optimised runs. Checks raise typed errors from
:mod:`repro.errors` instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_src_has_no_assert_statements():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.relative_to(SRC.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert found == [], "assert statements in src/repro:\n" + "\n".join(found)
