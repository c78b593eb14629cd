"""Hom-algebra, Hom-coalgebra and Hom-Hopf structure records and the
exhaustive axiom checkers that scan every basis tuple and report witnesses
for each failed equation.  The Hom-algebra check computes each twist image
alpha(e_i) and product e_i e_j once (`memo_lookup`), counts the
associativity tuples whose products must overflow as skipped from that
table, and evaluates only the others.

Checkers talk to a small duck-typed protocol (product / comult / counit /
alpha / beta / antipode on LinComb arguments) so that the degree-truncated
objects built elsewhere can reuse them; a TruncationOverflow raised inside
an equation marks that tuple as skipped and feeds the coverage accounting.
"""

from fractions import Fraction

from .errors import TruncationOverflow
from .foundation import (
    ONE,
    ZERO,
    LinComb,
    bilinear,
    extend,
    pair_apply,
    scalar,
    swap_pairs,
)


# ---------------------------------------------------------------------------
# check reports


class Violation:
    def __init__(self, eq_id, witness, lhs, rhs):
        self.eq_id = eq_id
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return "Violation(%s @ %r)" % (self.eq_id, (self.witness,))


class EquationResult:
    def __init__(self, eq_id):
        self.eq_id = eq_id
        self.checked = 0
        self.skipped = 0
        self.violations = []

    @property
    def passed(self):
        return not self.violations

    def coverage(self):
        total = self.checked + self.skipped
        return Fraction(self.checked, total) if total else ONE


def memo_lookup(memo, key, build, *args):
    """memo[key], built as build(*args) on first use.  An overflow is
    stored as its message and raised afresh on every lookup: the exception
    object would pin the frames of the failed evaluation."""
    val = memo.get(key)
    if val is None:
        try:
            val = build(*args)
        except TruncationOverflow as exc:
            val = str(exc)
        memo[key] = val
    if type(val) is str:
        raise TruncationOverflow(val)
    return val


class CheckReport:
    """Outcome of an axiom scan: per-equation counts plus witnesses."""

    def __init__(self):
        self.equations = []
        self._by_id = {}

    def equation(self, eq_id):
        if eq_id not in self._by_id:
            res = EquationResult(eq_id)
            self._by_id[eq_id] = res
            self.equations.append(res)
        return self._by_id[eq_id]

    @property
    def passed(self):
        return all(eq.passed for eq in self.equations)

    @property
    def violations(self):
        out = []
        for eq in self.equations:
            out.extend(eq.violations)
        return out

    def total_checked(self):
        return sum(eq.checked for eq in self.equations)

    def total_skipped(self):
        return sum(eq.skipped for eq in self.equations)

    def merge(self, other, prefix=""):
        for eq in other.equations:
            mine = self.equation(prefix + eq.eq_id)
            mine.checked += eq.checked
            mine.skipped += eq.skipped
            mine.violations.extend(
                Violation(prefix + v.eq_id, v.witness, v.lhs, v.rhs)
                for v in eq.violations
            )
        return self

    def run(self, eq_id, tuples, fn):
        """Evaluate fn over tuples; fn returns (lhs, rhs) or raises
        TruncationOverflow to skip the tuple."""
        res = self.equation(eq_id)
        for tup in tuples:
            try:
                lhs, rhs = fn(*tup)
            except TruncationOverflow:
                res.skipped += 1
                continue
            res.checked += 1
            if lhs != rhs:
                res.violations.append(Violation(eq_id, tup, lhs, rhs))
        return res


# ---------------------------------------------------------------------------
# structure records


class HomAlgebraData:
    """Hom-algebra as tables: mult (i,j) -> LinComb, unit vector, twist alpha.

    Basis indices default to range(dim); pass keys for other index sets
    (pair bases of map spaces, dual bases, ...).
    """

    is_truncated = False

    def __init__(self, dim, mult, unit, alpha, keys=None):
        self.dim = dim
        self.keys = list(keys) if keys is not None else list(range(dim))
        self.mult = dict(mult)
        self.unit = unit
        self.alpha = alpha

    def basis_keys(self):
        return list(self.keys)

    def unit_elem(self):
        return self.unit

    def product(self, x, y):
        return bilinear(lambda i, j: self.mult[(i, j)], x, y)

    def alpha_map(self, x):
        return self.alpha.apply(x)

    def alpha_inv(self, x):
        return self.alpha.apply_inverse(x)

    def alpha_pow(self, n, x):
        return self.alpha.power(n, x)


class HomCoalgebraData:
    """Hom-coalgebra as tables: comult i -> pair LinComb, counit, twist beta."""

    is_truncated = False

    def __init__(self, dim, comult, counit, beta, keys=None):
        self.dim = dim
        self.keys = list(keys) if keys is not None else list(range(dim))
        self.comult = dict(comult)
        self.counit = {i: scalar(c) for i, c in dict(counit).items()}
        self.beta = beta

    def basis_keys(self):
        return list(self.keys)

    def comult_map(self, x):
        return extend(self.comult.__getitem__, x)

    def counit_map(self, x):
        return sum((a * self.counit.get(i, ZERO) for i, a in x.items()), ZERO)

    def beta_map(self, x):
        return self.beta.apply(x)

    def beta_inv(self, x):
        return self.beta.apply_inverse(x)

    def beta_pow(self, n, x):
        return self.beta.power(n, x)


class HomHopfData(HomAlgebraData, HomCoalgebraData):
    """Hom-Hopf algebra of (alpha, beta)-type on one table basis: a
    Hom-algebra and a Hom-coalgebra plus an antipode operator."""

    def __init__(self, dim, mult, unit, alpha, comult, counit, beta, antipode, keys=None):
        HomAlgebraData.__init__(self, dim, mult, unit, alpha, keys=keys)
        HomCoalgebraData.__init__(self, dim, comult, counit, beta, keys=keys)
        self.antipode = antipode

    def antipode_map(self, x):
        return self.antipode.apply(x)


class CoactionData:
    """A coalgebra coaction on a carrier: table m -> LinComb over (m', h) pairs."""

    def __init__(self, coalgebra, carrier_keys, coact, theta):
        self.coalgebra = coalgebra
        self.carrier_keys = list(carrier_keys)
        self.coact = dict(coact)
        self.theta = theta

    def apply(self, m):
        return extend(self.coact.__getitem__, m)


# ---------------------------------------------------------------------------
# checkers


def check_hom_algebra(a):
    """Twisted associativity, unit diagrams, multiplicativity of the twist.

    alpha(e_i) and e_i e_j are tabulated once per check, so the hom-assoc
    tuples compute only their two outer products; an entry that overflows
    raises on every lookup.  The hom-assoc tuples that must overflow are
    read off the table and counted as skipped without being evaluated.
    That relies on every product here raising TruncationOverflow on x y
    when e_p e_q does for some p in supp x and q in supp y (`bilinear` over
    stored key products, the pairwise degree test of `TruncatedDual`); a
    tuple that overflows all the same is still skipped by `CheckReport.run`."""
    rep = CheckReport()
    keys = a.basis_keys()
    n = len(keys)
    unit = a.unit_elem()
    bas = [LinComb.basis(k) for k in keys]
    table = {}  # i -> alpha(e_i), (i, j) -> e_i e_j

    def alpha(i):
        return memo_lookup(table, i, a.alpha_map, bas[i])

    def prod(i, j):
        return memo_lookup(table, (i, j), a.product, bas[i], bas[j])

    def entry(lookup, *args):  # lookup(*args), or None on an overflow
        try:
            return lookup(*args)
        except TruncationOverflow:
            return None

    idx = {k: i for i, k in enumerate(keys)}
    alphas = [entry(alpha, i) for i in range(n)]
    prods = [[entry(prod, i, j) for j in range(n)] for i in range(n)]
    failed = {i for i, t in enumerate(alphas) if t is None}
    # b -> the i (the k) with e_x e_b (e_b e_x) overflowing for some x in
    # supp alpha(e_i) (supp alpha(e_k))
    left, right = [set() for _ in keys], [set() for _ in keys]
    for i, t in enumerate(alphas):
        for x in (idx[y] for y in t or () if y in idx):
            for b in range(n):
                if prods[x][b] is None:
                    left[b].add(i)
                if prods[b][x] is None:
                    right[b].add(i)

    def decided(by_key, p):
        # the i (the k) whose tuples with inner product p overflow; where
        # that is failed alone, the one set is shared, not copied per pair
        if p is None:
            return range(n)
        hit = [by_key[idx[y]] for y in p if y in idx]
        return failed.union(*hit) if any(hit) else failed

    # (j, k) -> the i, (i, j) -> the k of the tuples that overflow
    lhs = [[decided(left, p) for p in row] for row in prods]
    rhs = [[decided(right, p) for p in row] for row in prods]
    assoc = rep.run(
        "hom-assoc",
        (
            (i, j, k)
            for i in range(n) for j in range(n) for k in range(n)
            if i not in lhs[j][k] and k not in rhs[i][j]
        ),
        lambda i, j, k: (
            a.product(alpha(i), prod(j, k)),
            a.product(prod(i, j), alpha(k)),
        ),
    )
    assoc.skipped = n ** 3 - assoc.checked
    rep.run(
        "hom-unit",
        [(i,) for i in range(len(keys))],
        lambda i: (a.product(unit, bas[i]), alpha(i)),
    )
    rep.run(
        "hom-unit-right",
        [(i,) for i in range(len(keys))],
        lambda i: (a.product(bas[i], unit), alpha(i)),
    )
    rep.run(
        "alpha-multiplicative",
        [(i, j) for i in range(len(keys)) for j in range(len(keys))],
        lambda i, j: (a.alpha_map(prod(i, j)), a.product(alpha(i), alpha(j))),
    )
    rep.run("alpha-unit", [()], lambda: (a.alpha_map(unit), unit))
    return rep


def check_hom_coalgebra(c):
    """Twisted coassociativity, counit diagrams, comultiplicativity of beta."""
    rep = CheckReport()
    keys = c.basis_keys()
    bas = [LinComb.basis(k) for k in keys]

    def coassoc(i):
        d = c.comult_map(bas[i])
        lhs = pair_apply(c.beta_map, c.comult_map, d)
        rhs = pair_apply(c.comult_map, c.beta_map, d)
        # flatten (a, (b, c)) vs ((a, b), c) to common 3-leg keys
        lhs = LinComb({(a, b, cc): w for (a, (b, cc)), w in lhs.items()})
        rhs = LinComb({(a, b, cc): w for ((a, b), cc), w in rhs.items()})
        return lhs, rhs

    rep.run("hom-coassoc", [(i,) for i in range(len(keys))], coassoc)

    def eps(k):
        return c.counit_map(LinComb.basis(k))

    def counit_left(i):
        # (eps x id) Delta(e_i)
        out = extend(lambda k: eps(k[0]) * LinComb.basis(k[1]), c.comult_map(bas[i]))
        return out, c.beta_map(bas[i])

    def counit_right(i):
        # (id x eps) Delta(e_i)
        out = extend(lambda k: eps(k[1]) * LinComb.basis(k[0]), c.comult_map(bas[i]))
        return out, c.beta_map(bas[i])

    rep.run("hom-counit", [(i,) for i in range(len(keys))], counit_left)
    rep.run("hom-counit-right", [(i,) for i in range(len(keys))], counit_right)
    rep.run(
        "eps-beta",
        [(i,) for i in range(len(keys))],
        lambda i: (
            LinComb.basis("k", c.counit_map(c.beta_map(bas[i]))),
            LinComb.basis("k", c.counit_map(bas[i])),
        ),
    )

    rep.run(
        "beta-comultiplicative",
        [(i,) for i in range(len(keys))],
        lambda i: (
            c.comult_map(c.beta_map(bas[i])),
            pair_apply(c.beta_map, c.beta_map, c.comult_map(bas[i])),
        ),
    )
    return rep


def _comult_product(b, x, y):
    """Componentwise product of comultiplications: Delta(x) * Delta(y)."""
    e = LinComb.basis
    return bilinear(
        lambda k, l: b.product(e(k[0]), e(l[0])) @ b.product(e(k[1]), e(l[1])),
        b.comult_map(x),
        b.comult_map(y),
    )


def check_hom_bialgebra(b):
    """The nine compatibility conditions between tables, twists, unit, counit."""
    rep = check_hom_algebra(b).merge(check_hom_coalgebra(b))
    keys = b.basis_keys()
    bas = [LinComb.basis(k) for k in keys]
    unit = b.unit_elem()
    kone = LinComb.basis("k", 1)

    rep.run("bialg-1", [()], lambda: (b.comult_map(unit), unit @ unit))
    rep.run(
        "bialg-2",
        [(i, j) for i in range(len(keys)) for j in range(len(keys))],
        lambda i, j: (
            b.comult_map(b.product(bas[i], bas[j])),
            _comult_product(b, bas[i], bas[j]),
        ),
    )
    rep.run(
        "bialg-3",
        [(i,) for i in range(len(keys))],
        lambda i: (
            b.comult_map(b.alpha_map(bas[i])),
            pair_apply(b.alpha_map, b.alpha_map, b.comult_map(bas[i])),
        ),
    )
    rep.run("bialg-4", [()], lambda: (LinComb.basis("k", b.counit_map(unit)), kone))
    rep.run(
        "bialg-5",
        [(i, j) for i in range(len(keys)) for j in range(len(keys))],
        lambda i, j: (
            LinComb.basis("k", b.counit_map(b.product(bas[i], bas[j]))),
            LinComb.basis("k", b.counit_map(bas[i]) * b.counit_map(bas[j])),
        ),
    )
    rep.run(
        "bialg-6",
        [(i,) for i in range(len(keys))],
        lambda i: (
            LinComb.basis("k", b.counit_map(b.alpha_map(bas[i]))),
            LinComb.basis("k", b.counit_map(bas[i])),
        ),
    )
    rep.run("bialg-7", [()], lambda: (b.beta_map(unit), unit))
    rep.run(
        "bialg-8",
        [(i, j) for i in range(len(keys)) for j in range(len(keys))],
        lambda i, j: (
            b.beta_map(b.product(bas[i], bas[j])),
            b.product(b.beta_map(bas[i]), b.beta_map(bas[j])),
        ),
    )
    rep.run(
        "bialg-9",
        [(i,) for i in range(len(keys))],
        lambda i: (b.beta_map(b.alpha_map(bas[i])), b.alpha_map(b.beta_map(bas[i]))),
    )
    return rep


def check_hom_hopf(h):
    """Antipode axioms plus the derived antipode properties as line items."""
    rep = check_hom_bialgebra(h)
    keys = h.basis_keys()
    bas = [LinComb.basis(k) for k in keys]
    unit = h.unit_elem()

    def conv(side, i):
        def leg(k):
            x, y = LinComb.basis(k[0]), LinComb.basis(k[1])
            if side == "left":
                x = h.antipode_map(x)
            else:
                y = h.antipode_map(y)
            return h.product(x, y)

        return extend(leg, h.comult_map(bas[i])), h.counit_map(bas[i]) * unit

    rep.run("antipode-left", [(i,) for i in range(len(keys))], lambda i: conv("left", i))
    rep.run("antipode-right", [(i,) for i in range(len(keys))], lambda i: conv("right", i))
    rep.run(
        "antipode-alpha",
        [(i,) for i in range(len(keys))],
        lambda i: (h.antipode_map(h.alpha_map(bas[i])), h.alpha_map(h.antipode_map(bas[i]))),
    )
    rep.run(
        "antipode-beta",
        [(i,) for i in range(len(keys))],
        lambda i: (h.antipode_map(h.beta_map(bas[i])), h.beta_map(h.antipode_map(bas[i]))),
    )
    # derived properties
    rep.run("antipode-unit", [()], lambda: (h.antipode_map(unit), unit))
    rep.run(
        "eps-antipode",
        [(i,) for i in range(len(keys))],
        lambda i: (
            LinComb.basis("k", h.counit_map(h.antipode_map(bas[i]))),
            LinComb.basis("k", h.counit_map(bas[i])),
        ),
    )
    rep.run(
        "antipode-antimultiplicative",
        [(i, j) for i in range(len(keys)) for j in range(len(keys))],
        lambda i, j: (
            h.antipode_map(h.product(bas[i], bas[j])),
            h.product(h.antipode_map(bas[j]), h.antipode_map(bas[i])),
        ),
    )
    rep.run(
        "antipode-anticomultiplicative",
        [(i,) for i in range(len(keys))],
        lambda i: (
            h.comult_map(h.antipode_map(bas[i])),
            swap_pairs(pair_apply(h.antipode_map, h.antipode_map, h.comult_map(bas[i]))),
        ),
    )
    return rep


def module_axioms(rep, prefix, a, carrier_keys, act, gamma):
    """Hom-module axioms of a left action act(x, v) of a on a carrier with
    twist gamma, run into rep as <prefix>-module-assoc and
    <prefix>-module-unit:
    (p*q) |> gamma(v) = alpha(p) |> (q |> v)  and  1 |> v = gamma(v).
    """
    e = LinComb.basis
    akeys = a.basis_keys()
    rep.run(
        prefix + "-module-assoc",
        [(i, j, k) for i in akeys for j in akeys for k in carrier_keys],
        lambda i, j, k: (
            act(a.product(e(i), e(j)), gamma(e(k))),
            act(a.alpha_map(e(i)), act(e(j), e(k))),
        ),
    )
    rep.run(
        prefix + "-module-unit",
        [(k,) for k in carrier_keys],
        lambda k: (act(a.unit_elem(), e(k)), gamma(e(k))),
    )


def check_hom_comodule(c, m):
    """Right Hom-comodule axioms: (theta x Delta)nabla = (nabla x beta)nabla
    and (id x eps)nabla = theta."""
    rep = CheckReport()

    def coassoc(k):
        d = m.apply(LinComb.basis(k))
        lhs = pair_apply(m.theta.apply, c.comult_map, d)
        rhs = pair_apply(m.apply, c.beta_map, d)
        # flatten ((m, h), h') vs (m, (h, h')) to a common 3-leg shape
        lhs = LinComb({(a, b, cc): v2 for (a, (b, cc)), v2 in lhs.items()})
        rhs = LinComb({(a, b, cc): v2 for ((a, b), cc), v2 in rhs.items()})
        return lhs, rhs

    rep.run("hom-comodule-coassoc", [(k,) for k in m.carrier_keys], coassoc)

    def counit(k):
        v = LinComb.basis(k)
        out = extend(
            lambda t: c.counit_map(LinComb.basis(t[1])) * LinComb.basis(t[0]), m.apply(v)
        )
        return out, m.theta.apply(v)

    rep.run("hom-comodule-counit", [(k,) for k in m.carrier_keys], counit)
    return rep

