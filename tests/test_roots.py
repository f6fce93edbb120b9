import ast
import pathlib

import pytest

from diracline import roots
from diracline.errors import NonConvergence

PACKAGE = pathlib.Path(roots.__file__).parent
ROOT_X10 = 0.5 ** 0.1


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_illinois_x10_both_orientations(sign):
    # plain false position keeps the end at 1.5 and creeps in from 0 for
    # more than 10 000 iterations; halving the kept end's value breaks that
    def f(x):
        return sign * (x ** 10 - 0.5)

    x, fx, iterations = roots.illinois(f, 0.0, 1.5, f(0.0), f(1.5), 1e-12)
    assert abs(x - ROOT_X10) <= 1e-12
    assert fx == f(x)
    assert iterations <= 40


def test_illinois_exact_zero_at_first_step():
    assert roots.illinois(lambda x: x - 1.0, 0.0, 2.0, -1.0, 1.0, 1e-12) == (1.0, 0.0, 1)


def test_illinois_honours_f_stop():
    def f(x):
        return x ** 3 - 0.3

    loose = roots.illinois(f, 0.0, 1.0, f(0.0), f(1.0), 1e-15, f_stop=1e-4)
    tight = roots.illinois(f, 0.0, 1.0, f(0.0), f(1.0), 1e-15)
    assert abs(loose[1]) <= 1e-4 and loose[1] == f(loose[0])
    assert loose[2] < tight[2]
    assert abs(tight[0] - 0.3 ** (1.0 / 3.0)) <= 1e-15


def test_illinois_gives_up_after_200_iterations():
    # a sign change with no zero: the bracket closes on the jump but never
    # gets narrower than zero width
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 0.3 else 1.0

    with pytest.raises(NonConvergence):
        roots.illinois(step, 0.0, 1.0, -1.0, 1.0, 0.0)
    assert len(calls) == 200


@pytest.mark.parametrize("module", ["oracle", "roots"])
def test_oracle_imports_no_special_function_code(module):
    # the oracle checks the parabolic-cylinder method, so neither it nor its
    # solver may reach specfun, quantize or diracmodel
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                siblings.add(node.module or "")
            elif (node.module or "").split(".")[0] == "diracline":
                siblings.add(node.module)
        elif isinstance(node, ast.Import):
            siblings.update(a.name for a in node.names if a.name.startswith("diracline"))
    assert siblings <= {"errors", "roots"}
