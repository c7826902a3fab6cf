import ast
from fractions import Fraction
from pathlib import Path

import allocore

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = Path(allocore.__file__).resolve().parent


def test_all_names_resolve_without_duplicates():
    assert len(set(allocore.__all__)) == len(allocore.__all__)
    for name in allocore.__all__:
        assert getattr(allocore, name) is not None, name


def _names_read(paths):
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_public_name_is_read_by_the_package_or_the_benchmarks():
    """A public name that only the tests read belongs in the tests."""
    modules = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    read = _names_read(modules + sorted((ROOT / "benchmarks").glob("*.py")))
    assert [name for name in allocore.__all__ if name not in read] == []


def test_readme_quick_start_runs_and_states_its_results():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    assert scope["value"] == Fraction(17, 8)
    assert scope["alloc"] == (1, 0, Fraction(1, 4))
    assert sum(scope["alloc"]) == Fraction(5, 4)
    assert scope["report"].ac_opt_nonneg == scope["value"]


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                used.update(ast.literal_eval(node.value))  # re-exported names count as used
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_private_name_is_read_in_the_package():
    """A module-level private function, class or constant, or a private
    method, that no code in the package reads is dead."""
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [
                    (name.id, f"{path.name}:{node.lineno}")
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (method.name, f"{path.name}:{method.lineno}")
                    for method in node.body
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
    read = _names_read(PACKAGE.glob("*.py"))
    unread = [
        f"{where} {name}"
        for name, where in defined
        if name.startswith("_") and not name.endswith("__") and name not in read
    ]
    assert unread == []
