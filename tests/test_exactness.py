"""Three source lints over the package.

Every coefficient is an int or a Fraction, so the arithmetic stays in Q
as long as nothing divides two ints (or raises one to a negative power),
which gives a float.  The division lint lists each `/` and each `**`
without a non-negative literal exponent in the package, by module and
enclosing function, and pins the list: a new one fails here until it is
shown to take a Fraction operand and is added to DIVISIONS.

A LinComb is shared, not copied: caches hand out their stored values and
`extend`/`bilinear` return a table entry itself on a unit input.  The
immutability lint fails on any code that writes to a LinComb's `terms`
after construction, directly or through a name bound to them, or that
hands them to a function it does not know to only read them.  It reads
`tests/oracles.py` and `tests/fixtures.py` as well, since the package is
compared against them; the division lint does not, since they divide by
design.

The package dispatches on the types of its objects.  The probe lint fails
on any `hasattr` or `getattr` in the package: a branch on an attribute
that one kind of object happens to have hides which kinds reach it.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "homhopf"
# the test references, which handle the same shared LinComb values
REFERENCES = [TESTS / "oracles.py", TESTS / "fixtures.py"]

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


def _sites(tree, hit=_leaves_q, scope=()):
    """(enclosing scope, line) of every node of tree that hit accepts."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        if hit(node):
            yield ".".join(scope) or "<module>", node.lineno
        yield from _sites(node, hit, inner)


def package_sites(hit):
    return sorted(
        (path.name, where, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for where, line in _sites(ast.parse(path.read_text(), str(path)), hit)
    )


def division_sites():
    return package_sites(_leaves_q)


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


# ---------------------------------------------------------------------------
# immutability: nothing writes to a LinComb's terms after construction

# the only functions that may bind `.terms`
TERMS_OWNERS = {"LinComb.__init__", "LinComb._wrap"}
DICT_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}
ACCUMULATORS = {"_accumulate", "_accumulate_tensor"}
# the functions and methods that `.terms` may be passed to: they only read it
READ_ONLY_CALLS = {"bool", "dict", "iter", "len", "min", "isdisjoint"}


def _is_terms(node, aliases=frozenset()):
    """node is `<expr>.terms` or a name bound to one."""
    if isinstance(node, ast.Name):
        return node.id in aliases
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _terms_aliases(fn):
    """The names that fn binds to `<expr>.terms`, by `=` or `:=`."""
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _is_terms(node.value):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.NamedExpr) and _is_terms(node.value):
            out.add(node.target.id)
    return out


def _fresh_dict(node):
    return isinstance(node, (ast.Dict, ast.DictComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
    )


def _fresh_names(fn):
    """The names that fn binds only to dicts it creates itself; a parameter
    or a name bound in any other way is not one."""
    fresh, own = set(), set()
    other = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _fresh_dict(node.value):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    fresh.add(t.id)
                    own.add(t)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node not in own:
                other.add(node.id)
    return fresh - other


def _writes_terms(node, where, fn, aliases):
    """What node does to a LinComb's terms that it may not, or None;
    aliases are the names bound to `.terms` in scope."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        if _is_terms(node.value, aliases):
            return "terms item"
    if _is_terms(node) and isinstance(node.ctx, (ast.Store, ast.Del)):
        if where not in TERMS_OWNERS:
            return "terms binding"
    if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
        if node.target.id in aliases:
            return "terms in place"
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in DICT_MUTATORS and _is_terms(getattr(node.func, "value", None), aliases):
            return "terms." + name
        if name in ACCUMULATORS:
            out = node.args[0] if node.args else None
            if not (
                fn is not None
                and isinstance(out, ast.Name)
                and out.id in _fresh_names(fn)
            ):
                return name + " into a dict from elsewhere"
        args = node.args + [kw.value for kw in node.keywords]
        args = [a.value if isinstance(a, ast.Starred) else a for a in args]
        if name not in READ_ONLY_CALLS and any(_is_terms(a, aliases) for a in args):
            return "terms passed to %s" % (name or "a call")
    return None


def _terms_writes(tree, scope=(), fn=None, aliases=frozenset()):
    for node in ast.iter_child_nodes(tree):
        inner, inner_fn, inner_aliases = scope, fn, aliases
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner_fn = node
            # a nested function sees the aliases of the functions around it
            inner_aliases = aliases | _terms_aliases(node)
        where = ".".join(scope) or "<module>"
        kind = _writes_terms(node, where, fn, aliases)
        if kind:
            yield where, node.lineno, kind
        yield from _terms_writes(node, inner, inner_fn, inner_aliases)


def terms_write_sites():
    return sorted(
        (path.name, where, line, kind)
        for path in sorted(PACKAGE.glob("*.py")) + REFERENCES
        for where, line, kind in _terms_writes(ast.parse(path.read_text(), str(path)))
    )


def test_no_lincomb_is_written_after_construction():
    assert terms_write_sites() == []


def test_immutability_lint_sees_every_write():
    src = (
        "class LinComb:\n"
        "    def __init__(self, t):\n        self.terms = t\n"
        "    def _wrap(cls, t):\n        obj.terms = t\n"
        "    def scale(self, c):\n        self.terms = {}\n"  # 7
        "def f(x, out):\n"
        "    x.terms[1] = 2\n"  # 9
        "    del x.terms[1]\n"
        "    x.terms[1] += 1\n"
        "    del x.terms\n"
        "    x.terms |= {}\n"
        "    x.terms.update({})\n"  # 14
        "    x.terms.pop(1)\n"
        "    x.terms.popitem()\n"
        "    x.terms.setdefault(1, 0)\n"
        "    cache[1].terms.clear()\n"
        "    _accumulate(out, x, 1)\n"  # 19: a parameter
        "    _accumulate_tensor(x.terms, x, x, 1)\n"
        "def g(x):\n"
        "    mine = {}\n    _accumulate(mine, x, 1)\n"
        "    copy = dict(x.terms)\n    _accumulate_tensor(copy, x, x, 2)\n"
        "    shared = cache[x]\n    _accumulate(shared, x, 1)\n"  # 27
        "    both = {}\n    both = cache[x]\n    foundation._accumulate(both, x, 1)\n"
        "    fn = lambda: _accumulate(mine, x, 1)\n"  # 31: not made in the lambda
        "    return x.terms.get(1), dict(x.terms), x.terms.items()\n"
        "def h(x, y):\n"
        "    t = x.terms\n"
        "    t[1] = 2\n"  # 35
        "    del t[1]\n"
        "    t.update({})\n"
        "    t |= {}\n"
        "    if (u := y.terms):\n        u.pop(1)\n"  # 40
        "    keep(x.terms)\n"
        "    keep(key=t)\n"
        "    x.merge(*y.terms)\n"
        "    fns[0](x.terms)\n"
        "    fn = lambda: t.setdefault(1, 0)\n"  # 45: an alias of the enclosing function
        "    def inner():\n        t[2] = 0\n"
        "    return len(t), bool(x.terms), iter(t), min(t), dict(t), rows.keys().isdisjoint(t)\n"
    )
    found = sorted(_terms_writes(ast.parse(src)))
    assert found == [
        ("LinComb.scale", 7, "terms binding"),
        ("f", 9, "terms item"),
        ("f", 10, "terms item"),
        ("f", 11, "terms item"),
        ("f", 12, "terms binding"),
        ("f", 13, "terms binding"),
        ("f", 14, "terms.update"),
        ("f", 15, "terms.pop"),
        ("f", 16, "terms.popitem"),
        ("f", 17, "terms.setdefault"),
        ("f", 18, "terms.clear"),
        ("f", 19, "_accumulate into a dict from elsewhere"),
        ("f", 20, "_accumulate_tensor into a dict from elsewhere"),
        ("g", 27, "_accumulate into a dict from elsewhere"),
        ("g", 30, "_accumulate into a dict from elsewhere"),
        ("g", 31, "_accumulate into a dict from elsewhere"),
        ("h", 35, "terms item"),
        ("h", 36, "terms item"),
        ("h", 37, "terms.update"),
        ("h", 38, "terms in place"),
        ("h", 40, "terms.pop"),
        ("h", 41, "terms passed to keep"),
        ("h", 42, "terms passed to keep"),
        ("h", 43, "terms passed to merge"),
        ("h", 44, "terms passed to a call"),
        ("h", 45, "terms.setdefault"),
        ("h.inner", 47, "terms item"),
    ], found


# ---------------------------------------------------------------------------
# dispatch: the package branches on the types of its objects, never on an
# attribute it probes for

ATTRIBUTE_PROBES = {"hasattr", "getattr"}


def _probes_attribute(node):
    """node names hasattr or getattr: a call of one, or an alias for one."""
    return isinstance(node, ast.Name) and node.id in ATTRIBUTE_PROBES


def test_no_attribute_probes_in_the_package():
    assert package_sites(_probes_attribute) == []


def test_probe_lint_sees_every_probe():
    src = (
        "class Bicrossproduct:\n"
        "    def _fproduct(self, a, b, truncated):\n"
        "        if truncated and hasattr(self.f, 'product_dropped'):\n"  # 3
        "            return self.f.product_dropped(a, b)\n"
        "def comult_map(self, f):\n"
        "    if not getattr(self.v, 'graded', False):\n"  # 6
        "        probe = hasattr\n"  # 7
        "    return self.getattr(f), isinstance(f, LinComb), f.hasattr\n"
    )
    assert sorted(_sites(ast.parse(src), _probes_attribute)) == [
        ("Bicrossproduct._fproduct", 3), ("comult_map", 6), ("comult_map", 7),
    ]

