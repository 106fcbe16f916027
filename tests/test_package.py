import ast
import re
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


# Public names that no command, bench script or CI step reaches, each with
# why it stays: a reference that tests compare other code against, a test
# fixture, or the ROADMAP item that gives it a caller.
TEST_ONLY = {
    "assessment.reward_shares": "ROADMAP item 7",
    "data.concat_views": "reference: inverse of partition_vertical",
    "data.partition_vertical": "reference for split_views",
    "data.train_test_split": "reference for split_views",
    "model.GradCheckReport": "reference: grad_check's result",
    "model.grad_check": "reference: finite differences for backward",
    "model.identity_model": "fixture",
    "synthesis.read_candidates": "fixture: reads what write_candidates writes",
    "synthesis.saliency_est": "reference for the whitebox saliency step",
    "synthesis.saliency_est_fdm": "reference for the blackbox saliency step",
    "variance.bounded_existence_check": "ROADMAP item 8",
    "variance.gmm_log_likelihood": "reference: fit_gmm_em's objective",
    "variance.sample_gmm": "reference: draws from a fitted Gmm",
}


def test_public_names_are_reached_or_listed():
    """Each public top-level name is reached from the CLI through the names
    its definitions mention, is named in ``bench/*.py`` or the CI workflow,
    or is listed in ``TEST_ONLY``. Names are matched without their module,
    so a name shared by two modules reaches both."""
    defs, public = {}, []
    for rel, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            mentioned = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node)
                         if isinstance(n, (ast.Name, ast.Attribute))}
            for name in names:
                defs.setdefault(name, set()).update(mentioned)
                if not name.startswith("_"):
                    public.append(f"{rel.stem}.{name}")
    reached, todo = set(), ["main", "_COMMANDS"]
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo += defs[name]
    repo = Path(__file__).resolve().parents[1]
    outside = [*sorted((repo / "bench").glob("*.py")),
               repo / ".github" / "workflows" / "tests.yml"]
    named = {word for path in outside
             for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    used = reached | named
    unlisted = [q for q in public
                if q.split(".")[1] not in used and q not in TEST_ONLY]
    assert not unlisted, f"public names only tests reach: {unlisted}"
    stale = [q for q in TEST_ONLY
             if q not in public or q.split(".")[1] in used]
    assert not stale, f"TEST_ONLY entries to remove: {stale}"
