"""Source hygiene: checks over the text of the package and its tests."""

import ast
import inspect
from pathlib import Path

from kmft import errors
from kmft.runtime import KILL_POINTS
from kmft.simcluster import FailPhase, RankContext

ROOT = Path(__file__).resolve().parent.parent


def _sources() -> list[Path]:
    return sorted(p for d in ("src/kmft", "tests") for p in (ROOT / d).rglob("*.py")
                  if p.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds that the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)     # also the base of every attribute access
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_unused_imports():
    unused = [entry for path in _sources() for entry in _unused_imports(path)]
    assert unused == []


def _private_defs(tree: ast.Module) -> list[tuple[str, int]]:
    """Module- and class-level `def _x` / `class _x` and module-level
    constants `_X = ...`, dunders excluded."""
    found = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)
                  and t.id.startswith("_") and not t.id.endswith("__")]
    scopes = [tree.body]
    while scopes:
        for node in scopes.pop():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") and not node.name.endswith("__"):
                found.append((node.name, node.lineno))
            if isinstance(node, ast.ClassDef):
                scopes.append(node.body)
    return found


def test_no_unreferenced_private_names():
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in sorted((ROOT / "src/kmft").rglob("*.py"))}
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path, tree in trees.items()
              for name, line in _private_defs(tree) if name not in read]
    assert unread == []


def _failure_points(tree: ast.Module) -> list[tuple[FailPhase, int]]:
    """(phase, substep) of every `ctx.failure_point(iteration, FailPhase.X
    [, substep])` call, substep given by position or by name."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "failure_point"):
            continue
        phase = node.args[1]
        assert isinstance(phase, ast.Attribute) and isinstance(phase.value, ast.Name) \
            and phase.value.id == "FailPhase", ast.unparse(node)
        substep = node.args[2:] + [kw.value for kw in node.keywords if kw.arg == "substep"]
        found.append((FailPhase[phase.attr],
                      ast.literal_eval(substep[0]) if substep else 0))
    return found


def test_kill_points_name_every_failure_point_of_the_rank_program():
    """`runtime.KILL_POINTS`, kept by hand, is exactly the set of failure
    points that `runtime.py` calls."""
    path = ROOT / "src/kmft/runtime.py"
    calls = _failure_points(ast.parse(path.read_text(), filename=str(path)))
    assert len(set(KILL_POINTS)) == len(KILL_POINTS)
    assert set(calls) == set(KILL_POINTS)


def test_every_rank_operation_has_a_caller_outside_the_simulator():
    """Each public `RankContext` operation is called as an attribute
    somewhere in the package outside `simcluster.py`, so no op is kept
    that no rank program uses."""
    public = {name for name, value in vars(RankContext).items()
              if not name.startswith("_") and callable(value)}
    called: set[str] = set()
    for path in (ROOT / "src/kmft").rglob("*.py"):
        if path.name == "simcluster.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    assert sorted(public - called) == []


def test_every_error_class_is_raised_or_is_the_base_of_one_that_is():
    """Each exception class in `errors.py` is raised (or built, to be
    raised later) somewhere else in the package, or is a base of one that
    is, so no failure signal is kept that no op reports."""
    classes = {name: cls for name, cls in vars(errors).items()
               if inspect.isclass(cls) and cls.__module__ == errors.__name__}
    raised: set[str] = set()
    for path in (ROOT / "src/kmft").rglob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name):
                raised.add(node.exc.id)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                raised.add(node.func.id)
    unraised = [name for name, cls in classes.items()
                if not any(issubclass(classes[r], cls) for r in raised & classes.keys())]
    assert unraised == []
