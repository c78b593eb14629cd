"""The checkers catch broken structures: table sweeps.

Every structure constant of a finite Hom-Hopf algebra is perturbed by +1,
one at a time, and the perturbed tables go through `check_hom_hopf`.  A
constant is one coefficient of one table entry, zero coefficients
included:
- mult: [e_i e_j]_k, comult: [Delta(e_i)]_(a, b), unit: [1]_k,
  counit: eps(e_i);
- alpha, beta, antipode: [op(e_j)]_k, as an operator without a declared
  inverse.
Each perturbation must fail the check, or be listed in SURVIVORS as giving
another valid structure, with the perturbed table shown to differ from the
original.  On kz4 and Sweedler's algebra all 2 x 184 perturbations fail.
"""

import pytest

from homhopf.fixtures import kz4_twisted_hopf, sweedler_hopf
from homhopf.foundation import LinComb, LinearOperator
from homhopf.hom_core import HomHopfData, check_hom_hopf

e = LinComb.basis

STRUCTURES = {"kz4": kz4_twisted_hopf, "sweedler": sweedler_hopf}
OPERATORS = ("alpha", "beta", "antipode")

# (structure, constant) -> why the perturbed tables are a valid structure
SURVIVORS = {}


def constants(h):
    """Every constant of h as (table, entry, coefficient key)."""
    keys = h.basis_keys()
    for ij in h.mult:
        for k in keys:
            yield "mult", ij, k
    for i in h.comult:
        for a in keys:
            for b in keys:
                yield "comult", i, (a, b)
    for k in keys:
        yield "unit", None, k
    for i in keys:
        yield "counit", i, None
    for name in OPERATORS:
        for j in getattr(h, name).columns:
            for k in keys:
                yield name, j, k


def perturbed(h, constant):
    """h with one constant increased by 1."""
    table, entry, k = constant
    mult, comult, counit = dict(h.mult), dict(h.comult), dict(h.counit)
    unit = h.unit
    ops = {name: getattr(h, name) for name in OPERATORS}
    if table == "mult":
        mult[entry] = mult[entry] + e(k)
    elif table == "comult":
        comult[entry] = comult[entry] + e(k)
    elif table == "unit":
        unit = unit + e(k)
    elif table == "counit":
        counit[entry] += 1
    else:
        cols = dict(ops[table].columns)
        cols[entry] = cols[entry] + e(k)
        ops[table] = LinearOperator(cols)
    return HomHopfData(
        h.dim, mult, unit, ops["alpha"], comult, counit, ops["beta"],
        ops["antipode"], keys=h.keys,
    )


def tables(h):
    """A copy of every table of h, as dicts of terms."""
    return (
        {ij: dict(v.terms) for ij, v in h.mult.items()},
        {i: dict(v.terms) for i, v in h.comult.items()},
        dict(h.unit.terms),
        dict(h.counit),
        *(
            {j: dict(v.terms) for j, v in getattr(h, name).columns.items()}
            for name in OPERATORS
        ),
    )


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_every_constant_perturbation_fails_or_is_listed(name):
    h = STRUCTURES[name]()
    assert check_hom_hopf(h).passed
    original = tables(h)
    sweep = list(constants(h))
    n = h.dim
    assert len(sweep) == n**3 + n**3 + n + n + 3 * n * n
    survivors = set()
    for constant in sweep:
        p = perturbed(h, constant)
        assert tables(p) != original, constant
        if check_hom_hopf(p).passed:
            survivors.add(constant)
    assert tables(h) == original
    assert survivors == {c for s, c in SURVIVORS if s == name}
