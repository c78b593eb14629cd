"""Every coefficient is an int or a Fraction, so the arithmetic stays in Q
as long as nothing divides two ints (or raises one to a negative power),
which gives a float.  This lint lists each `/` and each `**` without a
non-negative literal exponent in the package, by module and enclosing
function, and pins the list: a new one fails here until it is shown to
take a Fraction operand and is added to DIVISIONS.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "homhopf"

# (module, enclosing function) -> why the quotient is exact
DIVISIONS = {
    ("foundation.py", "RowSpace.add"): "Fraction(ONE) / pivot, then scalar",
}


def _leaves_q(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        if isinstance(node.op, ast.Div):
            return True
        if isinstance(node.op, ast.Pow):
            exp = node.right if isinstance(node, ast.BinOp) else node.value
            return not (
                isinstance(exp, ast.Constant)
                and type(exp.value) is int
                and exp.value >= 0
            )
    return False


def _sites(tree, scope=()):
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        if _leaves_q(node):
            yield ".".join(scope) or "<module>", node.lineno
        yield from _sites(node, inner)


def division_sites():
    return sorted(
        (path.name, where, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for where, line in _sites(ast.parse(path.read_text(), str(path)))
    )


def test_divisions_are_the_documented_set():
    found = division_sites()
    assert {(mod, where) for mod, where, _ in found} == set(DIVISIONS), found
    assert len(found) == len(DIVISIONS), found


def test_lint_sees_every_way_out_of_q():
    src = (
        "a = b / c\n"
        "def f(x):\n    x /= 2\n    return x ** -1\n"
        "class K:\n    def g(self, n):\n        return 2 ** n + 3 ** 2 + 4 // 3\n"
    )
    assert sorted(_sites(ast.parse(src))) == [
        ("<module>", 1), ("K.g", 7), ("f", 3), ("f", 4),
    ]
