"""Package structure: every module has its own test file, the imports
between modules form no cycle, and the package root re-exports nothing."""

import ast
import types
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


def test_package_root_holds_only_its_docstring_and_version():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(tree))
    assert ast.get_docstring(tree)
    [version] = tree.body[1:]
    assert isinstance(version, ast.Assign)
    assert [t.id for t in version.targets] == ["__version__"]
    # No package-level name shadows a submodule: mixlora.train is the module.
    import mixlora.train

    assert isinstance(mixlora.train, types.ModuleType)
