import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import allocore
from allocore import instances
from allocore.coalition import Coalition
from allocore.games import satisfies_last_monotone
from allocore.generators import empty_core_game, steiner_counterexample_instance
from allocore.lp import Constraint, LpProblem, solve, verify_point
from allocore.mstgame import almost_core_approx
from allocore.relaxations import brute_force_core_oracle, full_report

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


def test_importing_the_package_loads_no_dataclasses():
    # -S keeps site hooks, which may import anything, out of the child
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import allocore, allocore.cli; "
        "print('dataclasses' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "False\n"


def _problem():
    problem = LpProblem(3, [1, 0, 1], [0, None, 0])
    problem.add({0: 1, 2: Fraction(-1, 2)}, "<=", 3)
    problem.add({0: 1, 1: 1, 2: 1}, "<=", 4)
    return problem


# Each factory builds a fresh record from equal inputs, with the fields in
# the order the CLI prints them and the golden files record them.
RECORDS = [
    (lambda: Coalition(5, 3), ("bits", "n"), {}),
    (lambda: _problem().constraints[0], ("coef", "relation", "rhs", "den"), {}),
    (lambda: solve(_problem()), ("status", "value", "point"), {"value": None, "point": None}),
    (
        lambda: verify_point(_problem(), [9, 0, -1]),
        ("feasible", "violated_constraints", "violated_bounds"),
        {},
    ),
    (
        lambda: instances.explicit_instance_from_table(2, [0, 1, Fraction(1, 2), 1]),
        ("format", "n", "costs", "default", "edges"),
        {"costs": None, "default": None, "edges": None},
    ),
    (
        lambda: almost_core_approx(steiner_counterexample_instance())[1],
        ("insertion_order", "tree_edges", "pre_update_shares", "last_agent", "argmin_k",
         "final_shares"),
        {},
    ),
    (
        lambda: full_report(empty_core_game()),
        ("n", "c_grand", "core_nonempty", "core_allocation", "ac_opt", "ac_opt_allocation",
         "ac_opt_nonneg", "ac_opt_nonneg_allocation", "eps_strong", "eps_strong_allocation",
         "eps_weak", "eps_weak_allocation", "eps_mult", "eps_mult_allocation", "gamma_approx",
         "gamma_allocation", "cost_of_stability", "extended_core_delta", "extended_core_x",
         "extended_core_t"),
        {},
    ),
    (
        lambda: brute_force_core_oracle(empty_core_game())([1, 1, 1]),
        ("member", "coalition", "amount", "negative_agent"),
        {"coalition": None, "amount": None, "negative_agent": None},
    ),
    (lambda: satisfies_last_monotone(empty_core_game()), ("ok", "witness"), {}),
]


@pytest.mark.parametrize(
    "make, names, defaults", RECORDS,
    ids=["Coalition", "Constraint", "LpSolution", "VerifyResult", "InstanceFile",
         "ApproxTrace", "RelaxationReport", "SeparationResult", "AgentCheck"],
)
def test_result_records_are_immutable_value_records(make, names, defaults):
    a, b = make(), make()
    assert type(a)._fields == names
    assert type(a)._field_defaults == defaults
    assert a == b and a is not b
    if type(a) is not Constraint:  # its coef is a read-only dict view, which has no hash
        assert hash(a) == hash(b)
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in names)
    assert repr(a) == f"{type(a).__name__}({shown})"
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Coalition(8, 3), ValueError),
        (lambda: Coalition(1, 2)._replace(bits=99), ValueError),
        (lambda: Coalition.from_members([4], 3), ValueError),
        (lambda: Coalition._make((0, -1)), ValueError),
        # a bool or a non-integer is no bitmask or agent count, whichever way it comes in
        (lambda: Coalition(1.5, 3), TypeError),
        (lambda: Coalition(True, 2), TypeError),
        (lambda: Coalition(1, True), TypeError),
        (lambda: Coalition._make((1, 2.0)), TypeError),
        (lambda: Coalition(1, 2)._replace(n=True), TypeError),
        (lambda: Coalition.from_members([1], True), TypeError),
        (lambda: Coalition.from_members([True], 2), TypeError),
        (lambda: Coalition.from_members([1.0], 2), TypeError),
    ],
    ids=["constructor", "_replace", "from_members", "_make", "constructor-float-bits",
         "constructor-bool-bits", "constructor-bool-n", "_make-float-n", "_replace-bool-n",
         "from_members-bool-n", "from_members-bool-agent", "from_members-float-agent"],
)
def test_coalition_checks_every_construction(build, error):
    with pytest.raises(error):
        build()
