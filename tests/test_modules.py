"""Package structure: every module has its own test file, and the imports
between modules form no cycle."""

import ast
from pathlib import Path

import mixlora

SRC = Path(mixlora.__file__).parent


def test_every_module_has_its_own_test_file():
    tests = Path(__file__).parent
    untested = sorted(p.name for p in SRC.glob("*.py")
                      if p.stem not in ("__init__", "errors")
                      and not (tests / f"test_{p.stem}.py").exists())
    assert untested == []


def package_imports() -> dict[str, set[str]]:
    """Module stem -> the stems it imports relatively, at any depth of its body."""
    graph = {}
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {(node.module or alias.name).split(".")[0]
                            for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) and node.level == 1
                            for alias in node.names}
    return graph


def test_module_imports_form_no_cycle_and_tasks_imports_only_errors():
    graph = package_imports()
    # Depth-first search; a module met again while still on the path closes a cycle.
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join(path[path.index(module):] + [module])
        if module in done:
            return
        path.append(module)
        for dep in sorted(graph[module]):
            visit(dep)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
    assert graph["tasks"] == {"errors"}
