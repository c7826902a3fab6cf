from fractions import Fraction
from pathlib import Path

import allocore

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve_without_duplicates():
    assert len(set(allocore.__all__)) == len(allocore.__all__)
    for name in allocore.__all__:
        assert getattr(allocore, name) is not None, name


def test_readme_quick_start_runs_and_states_its_results():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    assert scope["value"] == Fraction(17, 8)
    assert scope["alloc"] == (1, 0, Fraction(1, 4))
    assert sum(scope["alloc"]) == Fraction(5, 4)
    assert scope["report"].ac_opt_nonneg == scope["value"]
