"""The README's library tour runs, and every result its comments state holds."""

import ast
import os

import pytest

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

# expression of the tour -> (values its comment states, check of the computed result)
CLAIMS = {
    "hs.exact_moment(s, 2).value": (["2.4"], lambda v: v == pytest.approx(2.4, abs=1e-12)),
    "[mv.value for mv in hs.exact_moments(s, [1, 2, 3])]": (
        ["1.5", "2.4", "4.05"], lambda v: v == pytest.approx([1.5, 2.4, 4.05], abs=1e-12)),
    "hs.moment_bounds(s, 4)": (["5.0625", "40.5"], lambda b: (b.lower, b.upper) == (5.0625, 40.5)),
    "hs.required_samples(s, 1, epsilon=0.01)": (["225000"], lambda n: n == 225_000),
    "report.verdict": (["'compatible'"], lambda v: v == "compatible"),
    "hs.average_randomness(estimates, s, epsilon=0.01) == [report]": (["True"],
                                                                      lambda v: v is True),
    "perm.verdict": (["'incompatible'"], lambda v: v == "incompatible"),
}


def _tour() -> str:
    with open(README) as fh:
        text = fh.read()
    return text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_library_tour_runs_and_its_commented_results_hold():
    source = _tour()
    lines = source.splitlines()
    namespace = {}
    checked = set()
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        if not isinstance(statement, ast.Expr):
            exec(compile(code, README, "exec"), namespace)
            continue
        assert code in CLAIMS, f"tour line {code!r} states a result no test checks"
        values, holds = CLAIMS[code]
        comment = lines[statement.lineno - 1].partition("#")[2]
        assert all(value in comment for value in values), (code, comment)
        result = eval(compile(code, README, "eval"), namespace)
        assert holds(result), (code, result)
        checked.add(code)
    assert checked == set(CLAIMS)
