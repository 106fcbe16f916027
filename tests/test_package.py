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


def _modules():
    root = Path(vflkit.__file__).parent
    for path in sorted(root.rglob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            yield path.relative_to(root), tree


def test_no_unused_top_level_imports():
    unused = []
    for rel, tree in _modules():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{rel}:{node.lineno} {name}")
    assert not unused, f"unused imports in vflkit: {unused}"


def test_no_imports_inside_functions():
    found = []
    for rel, tree in _modules():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{rel}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"function-level imports in vflkit: {found}"
