"""Duality for Hom-structures: the degreewise dual of a truncated
Hom-Hopf algebra.  A finite Hom-Hopf algebra is its own truncation at
degree 0 (`hom_core._TableBasis`), so its dual Hom-Hopf algebra is the
same construction (the finite-dimensional case of the restricted dual),
and the dual of a dual is one again.

Conventions: the dual of a coalgebra multiplies as
(f * g)(c) = f(beta^-2 c_(1)) g(beta^-2 c_(2)) with twist f -> f o beta^-1,
and the dual of an algebra comultiplies through
delta(f)(a x a') = f(alpha^-2(a.a')) with twist f -> f o alpha^-1.
"""

from .errors import (
    NotInvertible,
    NotInvertibleAlpha,
    NotInvertibleBeta,
    TruncationOverflow,
)
from .foundation import ZERO, LinComb, bilinear, extend, pair_apply
from .hom_core import HomStructure

_EMPTY = LinComb()


def transpose_table(images, keys=()):
    """Transpose a table of images: `images` yields (k, LinComb) with
    distinct k, and column i of the result is sum_k [image of k]_i e_k.

    Every i in `keys` gets a column, empty when no image reaches it.  Each
    column is built in one dict and wrapped once.
    """
    cols = {i: {} for i in keys}
    for k, img in images:
        for i, v in img.items():
            col = cols.get(i)
            if col is None:
                col = cols[i] = {}
            col[k] = v
    return {i: LinComb._wrap(col) for i, col in cols.items()}


def _unshifted_comult(c):
    """(beta^-2 x beta^-2) Delta(e_x) for every basis key x of c."""

    def unshift(x):
        return c.beta_pow(-2, x)

    return {
        x: pair_apply(unshift, unshift, c.comult_map(LinComb.basis(x)))
        for x in c.basis_keys()
    }


def dual_hom_hopf(h):
    """The dual Hom-Hopf algebra of a finite-dimensional Hom-Hopf algebra,
    its degreewise dual at truncation degree 0.  A twist without inverse
    is refused up front, beta (the dual's alpha) first."""
    for inverse, err in ((h.beta_inv, NotInvertibleBeta), (h.alpha_inv, NotInvertibleAlpha)):
        for k in h.basis_keys():
            try:
                inverse(LinComb.basis(k))
            except NotInvertible as exc:
                raise err(str(exc))
    return TruncatedDual(h)


class TruncatedDual(HomStructure):
    """Degreewise dual of a truncated Hom-Hopf algebra: a truncated
    enveloping algebra, or a finite one read as its truncation at degree 0.

    Carries a total algebra structure (convolution against the coproduct,
    which preserves degree) and a partial coalgebra structure: the dual
    coproduct is available degree-by-degree only when the primal quotient
    is degree-graded, and raises TruncationOverflow otherwise.  The dual's
    product preserves degree, so it is graded itself and can be dualized
    again.  Pairing is the degreewise dual-basis pairing against the
    primal basis.

    Each structure map is the transpose of a primal one.  It is compiled
    into a table on first use, once per instance, and every call reads
    from that table.
    """

    graded = True

    def __init__(self, v):
        self.v = v
        self.keys = list(v.basis_keys())
        self.truncation_degree = v.truncation_degree
        self._tables = {}

    # -- bookkeeping

    def degree(self, key):
        return self.v.degree(key)

    def pair(self, f, x):
        """Evaluate a functional (over dual keys) on a primal combination."""
        out = ZERO
        for k, a in x.items():
            b = f.get(k)
            if b:
                out += a * b
        return out

    # -- Hom-algebra structure (total)

    def unit_elem(self):
        out = {}
        for k in self.keys:
            c = self.v.counit_map(LinComb.basis(k))
            if c:
                out[k] = c
        return LinComb(out)

    def product(self, f, g):
        # a degree-a times a degree-b functional is supported in degree
        # a+b; refusing past the bound keeps the truncation honest
        for k1 in f:
            for k2 in g:
                d = self.degree(k1) + self.degree(k2)
                if d > self.truncation_degree:
                    raise TruncationOverflow(
                        "dual product degree %d exceeds truncation %d"
                        % (d, self.truncation_degree)
                    )
        return self.product_dropped(f, g)

    def product_dropped(self, f, g):
        """Convolution product projected to the retained degrees (the image
        of the true product under the truncation, for table comparisons)."""
        table = self._table(
            "product", lambda: transpose_table(_unshifted_comult(self.v).items())
        )
        return bilinear(lambda i, j: table.get((i, j), _EMPTY), f, g)

    def alpha_pow(self, n, f):
        # alpha = (beta_V^-1)*: precompose with beta_V^-n
        return self._precompose(f, -n, use_beta=True)

    # -- Hom-coalgebra structure (partial)

    def comult_map(self, f):
        if not self.v.graded:
            raise TruncationOverflow(
                "dual coproduct needs a degree-graded primal quotient"
            )
        return extend(self._comult_basis, f)

    def _comult_basis(self, k):
        # Delta(k*) pairs e_i x e_j with alpha^-2(e_i e_j) for the (i, j)
        # of total degree deg k; one table holds every key of that degree
        d = self.degree(k)

        def build():
            e = LinComb.basis
            images = (
                ((i, j), self.v.alpha_pow(-2, self.v.product(e(i), e(j))))
                for i in self.keys
                for j in self.keys
                if self.degree(i) + self.degree(j) == d
            )
            return transpose_table(images)

        return self._table(("comult", d), build).get(k, _EMPTY)

    def counit_map(self, f):
        return self.pair(f, self.v.unit_elem())

    def beta_pow(self, n, f):
        return self._precompose(f, -n, use_beta=False)

    def antipode_map(self, f):
        table = self._table("antipode", lambda: self._transpose(self.v.antipode_map))
        return extend(lambda i: table.get(i, _EMPTY), f)

    # -- helpers

    def _precompose(self, f, power, use_beta):
        """Return f o (map^power) with map = beta_V (use_beta) or alpha_V."""
        if power == 0:
            return f
        twist = self.v.beta_pow if use_beta else self.v.alpha_pow
        table = self._table(
            ("twist", power, use_beta),
            lambda: self._transpose(lambda x: twist(power, x)),
        )
        return extend(lambda i: table.get(i, _EMPTY), f)

    def _transpose(self, fn):
        """Column i is sum_k [fn(e_k)]_i e_k: f o fn is extend(column, f)."""
        return transpose_table((k, fn(LinComb.basis(k))) for k in self.keys)

    def _table(self, name, build):
        table = self._tables.get(name)
        if table is None:
            table = self._tables[name] = build()
        return table
