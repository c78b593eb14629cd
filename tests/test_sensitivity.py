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

The sweep also pins, per equation of `check_hom_hopf`, how many
perturbations fail it.  No perturbation fails exactly one equation, so
the first assertion alone would still pass with an equation removed from
the check; the counts do not.

The matched pair of the kz4 doublecross sample gets the same sweep
through `check_matched_pair_hopf`: +1 on each constant [v |> u]_k and
[v <| u]_k, zero constants included.
"""

from collections import Counter

import pytest

from homhopf.cross_products import MatchedPairHopf, check_matched_pair_hopf
from homhopf.foundation import LinComb, LinearOperator, swap_pairs
from homhopf.hom_core import HomHopfData, check_hom_hopf

from fixtures import kz4_twisted_hopf, sweedler_hopf
from record_golden import _sample_matched_pair

e = LinComb.basis

STRUCTURES = {"kz4": kz4_twisted_hopf, "sweedler": sweedler_hopf}
OPERATORS = ("alpha", "beta", "antipode")

# (structure, constant) -> why the perturbed tables are a valid structure
SURVIVORS = {}

# structure -> equation -> how many perturbations fail it.  On Sweedler
# alpha = beta = id, and one constant changed in one of them leaves the
# other the identity, so alpha beta = beta alpha (bialg-9) always holds.
FAILURES_PER_EQUATION = {
    "kz4": {
        "hom-assoc": 80, "hom-unit": 36, "hom-unit-right": 36,
        "alpha-multiplicative": 72, "alpha-unit": 6, "hom-coassoc": 72,
        "hom-counit": 84, "hom-counit-right": 84, "eps-beta": 18,
        "beta-comultiplicative": 72, "bialg-1": 20, "bialg-2": 128,
        "bialg-3": 72, "bialg-4": 5, "bialg-5": 68, "bialg-6": 18,
        "bialg-7": 6, "bialg-8": 72, "bialg-9": 24, "antipode-left": 104,
        "antipode-right": 104, "antipode-alpha": 24, "antipode-beta": 24,
        "antipode-unit": 6, "eps-antipode": 18,
        "antipode-antimultiplicative": 72, "antipode-anticomultiplicative": 72,
    },
    "sweedler": {
        "hom-assoc": 80, "hom-unit": 36, "hom-unit-right": 36,
        "alpha-multiplicative": 14, "alpha-unit": 4, "hom-coassoc": 78,
        "hom-counit": 52, "hom-counit-right": 52, "eps-beta": 8,
        "beta-comultiplicative": 14, "bialg-1": 20, "bialg-2": 128,
        "bialg-3": 14, "bialg-4": 3, "bialg-5": 36, "bialg-6": 8,
        "bialg-7": 4, "bialg-8": 14, "bialg-9": 0, "antipode-left": 96,
        "antipode-right": 96, "antipode-alpha": 12, "antipode-beta": 12,
        "antipode-unit": 6, "eps-antipode": 10,
        "antipode-antimultiplicative": 74, "antipode-anticomultiplicative": 74,
    },
}


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
    rep = check_hom_hopf(h)
    assert rep.passed
    equations = [eq.eq_id for eq in rep.equations]
    original = tables(h)
    sweep = list(constants(h))
    n = h.dim
    assert len(sweep) == n**3 + n**3 + n + n + 3 * n * n
    survivors = set()
    failures = Counter({eq_id: 0 for eq_id in equations})
    for constant in sweep:
        p = perturbed(h, constant)
        assert tables(p) != original, constant
        rep = check_hom_hopf(p)
        if rep.passed:
            survivors.add(constant)
        failures.update(eq.eq_id for eq in rep.equations if eq.violations)
    assert tables(h) == original
    assert survivors == {c for s, c in SURVIVORS if s == name}
    assert dict(failures) == FAILURES_PER_EQUATION[name]


# equation of check_matched_pair_hopf -> how many of the 128 perturbations
# of the kz4 matched pair fail it
MATCHED_PAIR_FAILURES = {
    "left-module-assoc": 64, "left-module-unit": 16, "right-module-assoc": 64,
    "right-module-unit": 16, "lt/Hom-mod-coalg-00": 56, "lt/Hom-mod-coalg-I": 64,
    "lt/Hom-mod-coalg-II": 64, "rt-phi-compatibility": 56,
    "rt/Hom-mod-coalg-00": 56, "rt/Hom-mod-coalg-I": 64,
    "rt/Hom-mod-coalg-II": 64, "lt-a-compatibility": 56, "v-rt-uu'": 128,
    "vv'-lt-u": 128, "v-lt-u-ot-v-rt-u-switch": 0, "actions-on-1": 16,
    "actions-on-1-right": 16,
}


def test_every_matched_pair_perturbation_fails():
    """No perturbation fails v-lt-u-ot-v-rt-u-switch, and none can: its
    sides are sum (v1 <| u1) x (v2 |> u2) and sum (v2 <| u2) x (v1 |> u1)
    over Delta(v) x Delta(u).  Both factors are cocommutative, so swapping
    the legs of Delta(v) and of Delta(u) maps one side onto the other
    whatever the action tables are.  A perturbed pair reaches the equation
    only through its values, and the equation stays in the check because
    the argument rests on cocommutativity, which the check does not test."""
    mp = _sample_matched_pair()
    rep = check_matched_pair_hopf(mp)
    assert rep.passed
    for h in (mp.u, mp.v):
        for k in h.basis_keys():
            assert swap_pairs(h.comult_map(e(k))) == h.comult_map(e(k))
    failures = Counter({eq.eq_id: 0 for eq in rep.equations})
    swept = 0
    for side, carrier in (("left", mp.u), ("right", mp.v)):
        for entry in getattr(mp, side):
            for k in carrier.basis_keys():
                tables = {"left": dict(mp.left), "right": dict(mp.right)}
                tables[side][entry] = tables[side][entry] + e(k)
                rep = check_matched_pair_hopf(
                    MatchedPairHopf(mp.u, mp.v, tables["left"], tables["right"])
                )
                assert not rep.passed, (side, entry, k)
                failures.update(eq.eq_id for eq in rep.equations if eq.violations)
                swept += 1
    assert swept == 128
    assert dict(failures) == MATCHED_PAIR_FAILURES
