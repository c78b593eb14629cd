"""Exact rational linear algebra over arbitrary hashable basis indices.

Everything downstream (structure tables, ideals, quotients, dual bases)
is built from three primitives defined here: sparse linear combinations
with rational coefficients, linear operators given by their columns, and
incremental reduced row echelon spaces with deterministic pivoting.

A coefficient is stored in one canonical exact form: an `int` when its
value is an integer, a `Fraction` only when it is not (see `scalar`);
`float` and `bool` never get in.  This is exact because
- `int` and `Fraction` arithmetic is exact, and mixing them stays in Q;
- `int == Fraction` and `hash(int) == hash(Fraction)` hold for equal
  values, so dict keys, `LinComb` equality and printed reports do not
  depend on which of the two forms a value takes;
- `/` (and `**` with a negative exponent) is the only way out of Q, into
  float.  The one such site is the pivot normalisation in `RowSpace.add`,
  which divides a `Fraction` and goes back through `scalar`.  A test walks
  the syntax tree of the package and pins that list.
"""

from fractions import Fraction

from .errors import NotInvertible, UnknownBasisIndex

ZERO = 0
ONE = 1


def scalar(c):
    """The canonical form of an exact scalar: an int when the value is an
    integer (bool included), else a Fraction; anything else is a TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError("not an exact scalar: %r" % (c,))


class LinComb:
    """A finite formal linear combination of basis indices over Q.

    Zero coefficients are never stored, so equality is term-by-term
    dictionary equality.  Instances are immutable and shared: caches and
    `extend`/`bilinear` hand out the same object, and nothing in the
    package writes to `terms` after construction (a lint in
    tests/test_exactness.py enforces this).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, v in terms.items():
                v = scalar(v)
                if v:
                    clean[k] = v
        self.terms = clean

    @classmethod
    def basis(cls, key, coeff=ONE):
        if coeff is ONE:
            return cls._wrap({key: ONE})
        return cls({key: coeff})

    @classmethod
    def zero(cls):
        return cls()

    def __bool__(self):
        return bool(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def items(self):
        return self.terms.items()

    def get(self, key):
        return self.terms.get(key, ZERO)

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        return self.add_scaled(other, ONE)

    def __sub__(self, other):
        return self.add_scaled(other, -ONE)

    def __neg__(self):
        return LinComb._wrap({k: -v for k, v in self.terms.items()})

    def __rmul__(self, c):
        return LinComb().add_scaled(self, c)

    __mul__ = __rmul__

    def add_scaled(self, other, c):
        """Return self + c*other without storing zero terms."""
        c = scalar(c)
        if not c:
            return self
        out = dict(self.terms)
        _accumulate(out, other, c)
        return LinComb._wrap(out)

    def __matmul__(self, other):
        """Tensor product; keys of the result are (left key, right key)."""
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                out[(k1, k2)] = scalar(v1 * v2)
        return LinComb._wrap(out)

    @classmethod
    def _wrap(cls, clean):
        obj = cls.__new__(cls)
        obj.terms = clean
        return obj

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k, v in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            bits.append("%s*%r" % (v, k))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# the accumulator: every linear and bilinear extension goes through here,
# except a single term with coefficient 1, whose image is returned as it is,
# and an image with coefficient 1 that `extend` adds to an empty sum, which
# it copies into a new `out`: the image's values are already canonical, so
# the copy holds the terms, the order and the values that accumulating it
# would.  `out` is always a dict the caller made for this sum; inputs and
# cached values are never written to, so they can be shared.


def _accumulate(out, vec, c):
    """out += c * vec in place (c nonzero), dropping cancelled terms and
    storing each new value in its canonical form."""
    scale = c != ONE
    for k, v in vec.terms.items():
        if scale:
            v = c * v
        w = out.get(k)
        if w is not None:
            v = w + v
            if not v:
                del out[k]
                continue
        out[k] = v if type(v) is int else scalar(v)


def _accumulate_tensor(out, x, y, c):
    """out += c * (x @ y) in place (c nonzero), as _accumulate does it,
    without building x @ y."""
    for k1, v1 in x.terms.items():
        v1 = c * v1
        for k2, v2 in y.terms.items():
            k = (k1, k2)
            v = v1 * v2
            w = out.get(k)
            if w is not None:
                v = w + v
                if not v:
                    del out[k]
                    continue
            out[k] = v if type(v) is int else scalar(v)


def extend(fn, x):
    """Linear extension of a basis map fn: key -> LinComb; on a single
    term with coefficient 1 this is fn's value itself.  An image with
    coefficient 1 that goes into an empty sum (the first one, as a rule)
    is copied into it, not accumulated."""
    if len(x.terms) == 1:
        [(k, c)] = x.terms.items()
        if c == ONE:
            return fn(k)
    out = {}
    for k, c in x.terms.items():
        if out or c != ONE:
            _accumulate(out, fn(k), c)
        else:
            out = dict(fn(k).terms)
    return LinComb._wrap(out)


def bilinear(fn, x, y):
    """Bilinear extension of fn: (key of x, key of y) -> LinComb; on single
    terms whose coefficients multiply to 1 this is fn's value itself."""
    if len(x.terms) == 1 == len(y.terms):
        [(i, a)], [(j, b)] = x.terms.items(), y.terms.items()
        if a * b == ONE:
            return fn(i, j)
    out = {}
    for i, a in x.terms.items():
        for j, b in y.terms.items():
            _accumulate(out, fn(i, j), a * b)
    return LinComb._wrap(out)


def pair_extend(f, g, terms):
    """sum c * f(k1) @ g(k2) over the terms ((k1, k2), c), which may repeat
    a pair; f and g map keys to LinComb."""
    out = {}
    for (k1, k2), c in terms:
        _accumulate_tensor(out, f(k1), g(k2), c)
    return LinComb._wrap(out)


def pair_apply(f, g, t):
    """(f x g)(t): f on left legs and g on right legs of a pair-basis
    combination; f and g map LinComb -> LinComb."""
    return pair_extend(
        lambda k: f(LinComb.basis(k)), lambda k: g(LinComb.basis(k)), t.items()
    )


def swap_pairs(t):
    """Flip the two legs of a pair-basis combination."""
    return LinComb._wrap({(k2, k1): v for (k1, k2), v in t.items()})


class LinearOperator:
    """A linear operator stored by its columns: key -> LinComb.

    An optional inverse column table may be supplied or computed; when
    present, both round trips are verified on every basis index.
    """

    def __init__(self, columns, inverse_columns=None):
        self.columns = dict(columns)
        self.inverse_columns = dict(inverse_columns) if inverse_columns else None
        if self.inverse_columns is not None:
            self._verify_inverse()

    @classmethod
    def identity(cls, keys):
        cols = {k: LinComb.basis(k) for k in keys}
        return cls(cols, dict(cols))

    @classmethod
    def from_matrix(cls, mat, inverse=None):
        """Columns from a dense matrix: image(e_j) = sum_i mat[i][j] e_i."""

        def columns(m):
            n = len(m)
            return {j: LinComb({i: m[i][j] for i in range(n)}) for j in range(n)}

        return cls(columns(mat), columns(inverse) if inverse is not None else None)

    def apply(self, x):
        return extend(lambda k: _column(self.columns, k), x)

    def apply_inverse(self, x):
        if self.inverse_columns is None:
            self._compute_inverse()
        return extend(lambda k: _column(self.inverse_columns, k), x)

    def power(self, n, x):
        """Apply the n-th power (negative n uses the inverse)."""
        for _ in range(abs(n)):
            x = self.apply(x) if n > 0 else self.apply_inverse(x)
        return x

    def inverted(self):
        """Return the inverse operator (with self stored as its inverse)."""
        if self.inverse_columns is None:
            self._compute_inverse()
        return LinearOperator(self.inverse_columns, self.columns)

    def is_identity(self):
        return all(col == LinComb.basis(k) for k, col in self.columns.items())

    def _compute_inverse(self):
        """Row-reduce [M | I], M's columns first in the repr order of the
        keys.  M is invertible exactly when each of its columns is a pivot;
        the row of pivot (0, j) is then row j of M^-1 on the I side."""
        keys = sorted(self.columns, key=repr)
        rs = RowSpace(order=lambda c: c)
        for i, ki in enumerate(keys):
            row = {(0, j): self.columns[kj].get(ki) for j, kj in enumerate(keys)}
            row[(1, i)] = ONE
            rs.add(LinComb(row))
        for j, kj in enumerate(keys):
            if (0, j) not in rs.rows:
                raise NotInvertible("singular operator (column %r)" % (kj,))
        self.inverse_columns = {
            ki: LinComb({kj: rs.rows[(0, j)].get((1, i)) for j, kj in enumerate(keys)})
            for i, ki in enumerate(keys)
        }
        self._verify_inverse()

    def _verify_inverse(self):
        for k in self.columns:
            e = LinComb.basis(k)
            if self.apply(self.inverse_columns[k]) != e:
                raise NotInvertible("declared inverse fails on %r" % (k,))
            if self.apply_inverse(self.columns[k]) != e:
                raise NotInvertible("declared inverse fails on %r" % (k,))


def _column(columns, k):
    col = columns.get(k)
    if col is None:
        raise UnknownBasisIndex(repr(k))
    return col


def _default_order(key):
    """Integers in natural order, everything else by repr."""
    if isinstance(key, int) and not isinstance(key, bool):
        return (0, key, "")
    return (1, 0, repr(key))


class RowSpace:
    """Incrementally maintained reduced echelon basis for a subspace.

    Pivot of a vector is its minimal support index under `order` (a sort
    key on basis indices; integers sort naturally by default, other keys
    by repr).  Rows are normalized to pivot coefficient 1 and fully
    back-substituted, so the stored basis is the unique RREF basis for
    the span given the order: no row holds another row's pivot.

    `columns` maps each basis key to the pivots whose rows may hold it.
    It covers every nonzero (key, row) pair and may list a row whose term
    has since cancelled, so back-substitution visits only the rows that
    can hold a new pivot.
    """

    def __init__(self, order=None):
        self.order = order if order is not None else _default_order
        self.rows = {}
        self.columns = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """Reduce v modulo the span; result has no pivot indices in support.

        No row holds another pivot, so the pivots hit and their
        coefficients can be read off v itself; the hit rows are
        subtracted in the order of v, into one dict.
        """
        rows = self.rows
        if rows.keys().isdisjoint(v.terms):
            return v
        out = dict(v.terms)
        for k, c in v.terms.items():
            if k in rows:
                _accumulate(out, rows[k], -c)
        return LinComb._wrap(out)

    def add(self, v):
        """Insert v; returns True when the rank grew."""
        v = self.reduce(v)
        if not v:
            return False
        piv = min(v.terms, key=self.order)
        if v.terms[piv] != ONE:
            v = (Fraction(ONE) / v.terms[piv]) * v
        rows, columns = self.rows, self.columns
        # keep the rows that hold the new pivot fully reduced against it
        holders = [p for p in columns.pop(piv, ()) if rows[p].get(piv)]
        for p in holders:
            rows[p] = rows[p].add_scaled(v, -rows[p].terms[piv])
        rows[piv] = v
        holders.append(piv)
        for k in v.terms:
            if k != piv:
                columns.setdefault(k, set()).update(holders)
        columns[piv] = {piv}
        return True

    def pivots(self):
        return sorted(self.rows.keys(), key=self.order)

    def basis_rows(self):
        """Rows ordered by pivot; the canonical reduced basis."""
        return [self.rows[p] for p in self.pivots()]

