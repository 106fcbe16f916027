import ast
from pathlib import Path

import vflkit


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise.
    root = Path(vflkit.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert {"fuzzer.py", "synthesis.py"} <= {m.name for m in modules}
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(root)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in vflkit: {found}"
