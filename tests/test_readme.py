"""The README's Library example runs and gives the values its comments state."""

from pathlib import Path

from quatsplit.classify import Outcome
from quatsplit.hilbert import Place, RamificationData

README = Path(__file__).resolve().parents[1] / "README.md"

# Each commented expression of the example: its value, and the text its comment starts with.
STATED = {
    "verdict.outcome.value": ("Division", "'Division'"),
    "verdict.fired": (("prop3.6/case2",), "('prop3.6/case2',)"),
    "division_oracle(Cyclotomic(9), 19, 2)": (Outcome.DIVISION, "Outcome.DIVISION"),
    "ramified_places(3, 2)": (RamificationData((Place(2), Place(3)), 6), "places {2, 3}, reduced discriminant 6"),
    "discriminant_fast_path(7, 3)": (14, "14"),
}


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def test_readme_library_example():
    example = _library_example()
    namespace: dict = {}
    exec(compile(example, str(README), "exec"), namespace)
    seen = set()
    for line in example.splitlines():
        code, hash_sign, comment = line.partition("#")
        if not hash_sign or "=" in code:
            continue
        expression = code.strip()
        value, stated = STATED[expression]
        assert eval(expression, namespace) == value, expression
        assert comment.strip().startswith(stated), (expression, comment)
        seen.add(expression)
    assert seen == set(STATED)
