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
[v <| u]_k, zero constants included.  So does the mutual pair of the Z/4
bicross sample, through `check_mutual_pair`: +1 on each constant
[u |> f]_k and [nabla(u)]_(u', f), zero constants included.

The two mutual-pair evaluations, the table check and the pairing-wise
check, are run side by side on the semiduals of two finite matched pairs,
each with every +1 perturbation of its left action table: both must fail
the same equations.  They are called directly, since `check_mutual_pair`
picks the table check for every finite semidual.

The dual of a finite Hom-Hopf algebra puts its twists in place by
`TruncatedDual._precompose`.  Two mutants of it, one reading beta where
alpha is meant and back, one inverting the twist, give a dual that
`check_hom_hopf` passes on kz4 and Sweedler's algebra, where alpha = beta
is its own inverse, and fails on Sweedler's algebra twisted by alpha = 2,
beta = 4 on x and gx.  The twisting-principle oracle of `test_duality`
sees both mutants on k[Z/9] and k[Z/7], in the alpha and beta images.

Telling alpha from beta: k[Z/7] twisted by alpha = x3, beta = x2 and
k[Z/5] twisted by alpha = x2, beta = x4 each act on themselves counitally,
and the matched pair, the double cross product, the semidual mutual pair
and the bicrossproduct pass with no tuple skipped.  Each mutant of
ALPHA_BETA_MUTANTS replaces one line of one method of `cross_products`,
swapping or merging an alpha and a beta power, and fails one block on
both pairs.  Every other finite pair that the tests build a cross product
of has alpha^2 = id.

The Gaussian sl2 split of `lie_pairs` has twists of order 4 on both
factors and both actions nonzero; lifted at N=2 it passes all four blocks.
Each mutant of GRADED_MUTANTS changes one twist power in the pairing-wise
mutual-pair check and fails exactly one equation there on that pair, which
no other case of the tests does.  (That pair fails M1 and M2 in their
blocks too, and passes M7.)  The mutant M3 of MATCHED_PAIR_MUTANTS
changes one twist power of a stored sub-term of v-rt-uu' in the
matched-pair check, and fails that one equation on the lambda = 2 sl2
split at N=3, whose twists have infinite order.

U(g)'s well-definedness report reads the coproduct of each ideal row off
`TreeOps.coproduct_terms`, which reads a tree's weights through getters
stored with its template's legs.  A mutant that reverses the weights of
each leg of a weighted tree fails `ideal-coproduct` on twisted sl2, and
only there: on plain sl2 phi is the identity, so sigma, and with it the
projection of every leg, ignores weights, and the mutant is equivalent.
"""

import inspect
import textwrap
from collections import Counter
from functools import lru_cache

import pytest

from homhopf import cross_products
from homhopf.cli import parse_input
from homhopf.cross_products import (
    Bicrossproduct,
    DoubleCrossProduct,
    MatchedPairHopf,
    MutualPairHopf,
    _check_mutual_pair_finite,
    _check_mutual_pair_graded,
    check_matched_pair_hopf,
    check_mutual_pair,
)
from homhopf.duality import TruncatedDual, dual_hom_hopf
from homhopf.foundation import LinComb, LinearOperator, swap_pairs
from homhopf.hom_core import HomHopfData, check_hom_hopf
from homhopf.semidual import semidualize
from homhopf.uea_trees import UNIT, TreeOps, build_truncated_uea, lift_to_Uh_action

from fixtures import (
    counital_matched_pair,
    kz4_twisted_hopf,
    lie_twist,
    sl2,
    sl2_involution,
    sweedler_hopf,
    sweedler_twisted_hopf,
    trivial_hopf_matched_pair,
    twisted_cyclic_hopf,
)
from lie_pairs import sl2_gaussian_split_pair, sl2_split_pair
from record_golden import SAMPLES, _sample_matched_pair
from test_duality import TWISTED_CYCLIC, yau_twist_mismatches
from test_semidual import nontrivial_finite_matched_pair

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


# equation of check_mutual_pair -> how many of the 128 perturbations of
# the Z/4 mutual pair fail it
MUTUAL_PAIR_FAILURES = {
    "left-module-assoc": 64, "left-module-unit": 16, "Hom-mod-alg-00": 56,
    "Hom-mod-alg-I": 64, "Hom-mod-alg-II": 16, "rt-f-comp": 56,
    "coaction/hom-comodule-coassoc": 64, "coaction/hom-comodule-counit": 64,
    "Hom-comod-coalg-00": 56, "Hom-comod-coalg-I": 64, "Hom-comod-coalg-II": 64,
    "lt-f-comp": 56, "comp-I": 128, "comp-II": 64, "comp-III": 80, "comp-IV": 0,
}


def test_every_mutual_pair_perturbation_fails():
    """No perturbation fails comp-IV, and none can: every basis vector of U
    has a coproduct x (x) x with equal legs, so the two sides of comp-IV
    differ only in the order of one product in F, and F is commutative.
    Neither fact depends on the action or coaction tables."""
    m = parse_input(str(SAMPLES / "z4_trivial_bicross.json")).mutual_pairs["m"]
    rep = check_mutual_pair(m)
    assert rep.passed
    F, U = m.f, m.u
    for k in U.basis_keys():
        assert all(a == b for (a, b) in U.comult_map(e(k)).terms)
    for a in F.basis_keys():
        for b in F.basis_keys():
            assert F.product(e(a), e(b)) == F.product(e(b), e(a))
    perturbations = [
        ("action", entry, k) for entry in m.action for k in F.basis_keys()
    ] + [
        ("coaction", entry, (k, f))
        for entry in m.coaction
        for k in U.basis_keys()
        for f in F.basis_keys()
    ]
    assert len(perturbations) == 128
    failures = Counter({eq.eq_id: 0 for eq in rep.equations})
    for table, entry, k in perturbations:
        tables = {"action": dict(m.action), "coaction": dict(m.coaction)}
        tables[table][entry] = tables[table][entry] + e(k)
        rep = check_mutual_pair(
            MutualPairHopf(F, U, tables["action"], tables["coaction"])
        )
        assert not rep.passed, (table, entry, k)
        failures.update(eq.eq_id for eq in rep.equations if eq.violations)
    assert dict(failures) == MUTUAL_PAIR_FAILURES


def failed_by_both_checkers(p):
    """The ids of the equations that the table check and the pairing-wise
    check of the mutual pair semidualized from p fail."""
    m = semidualize(p, enforce_order_constraint=False)
    return [
        {eq.eq_id for eq in check(m).equations if eq.violations}
        for check in (_check_mutual_pair_finite, _check_mutual_pair_graded)
    ]


def test_table_and_pairing_wise_mutual_pair_checks_fail_alike():
    swept = 0
    for base in (trivial_hopf_matched_pair(), nontrivial_finite_matched_pair()):
        assert failed_by_both_checkers(base) == [set(), set()]
        for entry in base.left:
            for k in base.u.basis_keys():
                left = dict(base.left)
                left[entry] = left[entry] + e(k)
                p = MatchedPairHopf(base.u, base.v, left, base.right)
                table, pairing_wise = failed_by_both_checkers(p)
                assert table, (entry, k)
                assert table == pairing_wise, (entry, k)
                swept += 1
    assert swept == 128


# the twist placement of the dual, mutated: each mutant replaces
# TruncatedDual._precompose(self, f, power, use_beta)
PRECOMPOSE_MUTANTS = {
    "use_beta flipped": lambda precompose: (
        lambda self, f, power, use_beta: precompose(self, f, power, not use_beta)
    ),
    "power negated": lambda precompose: (
        lambda self, f, power, use_beta: precompose(self, f, -power, use_beta)
    ),
}


@pytest.mark.parametrize("mutant", sorted(PRECOMPOSE_MUTANTS))
def test_dual_twist_mutants_fail_only_on_the_twisted_sweedler(mutant, monkeypatch):
    assert check_hom_hopf(dual_hom_hopf(sweedler_twisted_hopf())).passed
    mutated = PRECOMPOSE_MUTANTS[mutant](TruncatedDual._precompose)
    monkeypatch.setattr(TruncatedDual, "_precompose", mutated)
    rep = check_hom_hopf(dual_hom_hopf(sweedler_twisted_hopf()))
    assert not rep.passed
    assert {v.eq_id for v in rep.violations} == {
        "hom-assoc", "hom-unit", "hom-unit-right",
        "hom-coassoc", "hom-counit", "hom-counit-right",
    }
    # where alpha = beta is its own inverse, neither mutant changes a twist
    for h in (kz4_twisted_hopf(), sweedler_hopf()):
        assert check_hom_hopf(dual_hom_hopf(h)).passed
    # the twisting-principle oracle: 6 of the n alpha images and 6 of the
    # n beta images differ, on k[Z/9] and on k[Z/7]
    for n, a, b in TWISTED_CYCLIC:
        mismatches = Counter(m[0] for m in yau_twist_mismatches(n, a, b))
        assert mismatches == {"alpha_map": 6, "beta_map": 6}, n


# ---------------------------------------------------------------------------
# telling alpha from beta


# (n, alpha, beta) of a twisted k[Z/n] that acts on itself counitally
ALPHA_BETA_PAIRS = {"z7": (7, 3, 2), "z5": (5, 2, 4)}


def alpha_beta_pair(name):
    n, a, b = ALPHA_BETA_PAIRS[name]
    return counital_matched_pair(twisted_cyclic_hopf(n, a, b), twisted_cyclic_hopf(n, a, b))


def checked_blocks(mp):
    """The four blocks of the doublecross and semidualize paths and of
    bicross on the semidual, by their report ids."""
    m = semidualize(mp)
    return {
        "matched-pair": check_matched_pair_hopf(mp),
        "double-cross-suite": check_hom_hopf(DoubleCrossProduct(mp)),
        "mutual-pair": check_mutual_pair(m),
        "bicross-suite": check_hom_hopf(Bicrossproduct(m)),
    }


# the alpha/beta placement mutants M1, M2 and M7 of ROADMAP item 9: the
# method, the one line of its source that is replaced, and the equations
# of the one block that fail on both pairs
ALPHA_BETA_MUTANTS = {
    # alpha_F^-1 beta_F -> beta_F^-1 alpha_F on the head
    "M1": (
        Bicrossproduct, "product_keys",
        "head = F.alpha_inv(F.beta_map(e(k1[0])))",
        "head = F.beta_inv(F.alpha_map(e(k1[0])))",
        "bicross-suite", {
            "hom-assoc", "hom-unit-right", "antipode-left", "antipode-right",
            "antipode-antimultiplicative",
        },
    ),
    # alpha^-1 beta^-1 -> alpha^-2 in `shifted`
    "M2": (
        DoubleCrossProduct, "product_keys",
        "return side.alpha_inv(side.beta_inv(e(k)))",
        "return side.alpha_pow(-2, e(k))",
        "double-cross-suite", {
            "hom-assoc", "hom-unit", "hom-unit-right", "antipode-left",
            "antipode-right", "antipode-antimultiplicative",
        },
    ),
    # alpha_F beta_F^-1 -> beta_F alpha_F^-1 on the first F leg
    "M7": (
        Bicrossproduct, "comult_map",
        "left = F.alpha_map(F.beta_inv(e(fs[0])))",
        "left = F.beta_map(F.alpha_inv(e(fs[0])))",
        "bicross-suite", {
            "hom-coassoc", "hom-counit-right", "antipode-left", "antipode-right",
            "antipode-anticomultiplicative",
        },
    ),
}


def mutated_method(cls, name, old, new):
    """cls.name, a method of a class or a function of a module, recompiled
    from its source with the one line old -> new."""
    src = textwrap.dedent(inspect.getsource(getattr(cls, name)))
    assert src.count(old) == 1, (cls.__name__, name, old)
    namespace = dict(vars(cross_products))
    exec(compile(src.replace(old, new), inspect.getsourcefile(cls), "exec"), namespace)
    return namespace[name]


@pytest.mark.parametrize("name", sorted(ALPHA_BETA_PAIRS))
def test_alpha_beta_pairs_pass_every_block_with_nothing_skipped(name):
    for block, rep in checked_blocks(alpha_beta_pair(name)).items():
        assert rep.passed, block
        assert all(eq.checked and not eq.skipped for eq in rep.equations), block


@pytest.mark.parametrize("mutant", sorted(ALPHA_BETA_MUTANTS))
def test_alpha_beta_mutants_fail_one_block_on_both_pairs(mutant, monkeypatch):
    cls, name, old, new, block, equations = ALPHA_BETA_MUTANTS[mutant]
    monkeypatch.setattr(cls, name, mutated_method(cls, name, old, new))
    for pair in sorted(ALPHA_BETA_PAIRS):
        failed = {
            b: {v.eq_id for v in rep.violations}
            for b, rep in checked_blocks(alpha_beta_pair(pair)).items()
            if not rep.passed
        }
        assert failed == {block: equations}, pair


@lru_cache(maxsize=None)
def gaussian_matched_pair():
    """The Gaussian sl2 split lifted at N=2, W=1."""
    return lift_to_Uh_action(sl2_gaussian_split_pair(), 2, 1)


# the twist-power mutants M8 and M10 of ROADMAP item 9, both in the
# pairing-wise mutual-pair check: the one line of _check_mutual_pair_graded
# that is replaced, and the one equation of the mutual-pair block that fails
# on the Gaussian sl2 split at N=2.  The other three blocks do not run the
# mutated function.
GRADED_MUTANTS = {
    # alpha_V^-5 -> alpha_V^-3 in `carried`
    "M8": ("V.alpha_pow(-5,", "V.alpha_pow(-3,", "comp-I"),
    # alpha_U^-3 -> alpha_U^-1 in `z`
    "M10": ("U.alpha_pow(-3, e(us1))", "U.alpha_pow(-1, e(us1))", "comp-III"),
}


def test_gaussian_pair_passes_every_block():
    blocks = checked_blocks(gaussian_matched_pair())
    assert {block: (rep.passed, rep.total_checked()) for block, rep in blocks.items()} == {
        "matched-pair": (True, 1842), "double-cross-suite": (True, 7368),
        "mutual-pair": (True, 6967), "bicross-suite": (True, 3682),
    }


@pytest.mark.parametrize("mutant", sorted(GRADED_MUTANTS))
def test_graded_mutants_fail_one_mutual_pair_equation(mutant, monkeypatch):
    old, new, equation = GRADED_MUTANTS[mutant]
    name = "_check_mutual_pair_graded"
    monkeypatch.setattr(cross_products, name, mutated_method(cross_products, name, old, new))
    rep = check_mutual_pair(semidualize(gaussian_matched_pair()))
    assert {v.eq_id for v in rep.violations} == {equation}


# the twist-power mutant M3 of ROADMAP item 9 in check_matched_pair_hopf:
# the one line that is replaced, and the one equation of the matched-pair
# block that fails on the lambda = 2 sl2 split lifted at N=3, W=1, with its
# number of violations.  A Lie pair that meets the order constraint has
# alpha^4 = id, so alpha^-2 = alpha^2 there and M3 is equivalent; this
# split's twists have infinite order.
MATCHED_PAIR_MUTANTS = {
    # alpha_V^-2 -> alpha_V^2 in `inner`, a stored sub-term of v-rt-uu'
    "M3": (
        "V.alpha_pow(-2, V.beta_inv(e(v1)))", "V.alpha_pow(2, V.beta_inv(e(v1)))",
        "v-rt-uu'", 21,
    ),
}


@pytest.mark.parametrize("mutant", sorted(MATCHED_PAIR_MUTANTS))
def test_matched_pair_mutants_fail_one_equation(mutant, monkeypatch):
    old, new, equation, violations = MATCHED_PAIR_MUTANTS[mutant]
    mp = lift_to_Uh_action(sl2_split_pair(2), 3, 1)
    assert check_matched_pair_hopf(mp).passed
    name = "check_matched_pair_hopf"
    monkeypatch.setattr(cross_products, name, mutated_method(cross_products, name, old, new))
    rep = cross_products.check_matched_pair_hopf(mp)
    assert Counter(v.eq_id for v in rep.violations) == {equation: violations}


def reversed_leg_weights(coproduct_terms):
    """A mutant of coproduct_terms: each leg of the coproduct of a weighted
    tree has its weights in reverse order."""

    def reverse(leg):
        return leg if leg == UNIT else (leg[0], leg[1][::-1], leg[2])

    def mutant(ops, key):
        terms = coproduct_terms(ops, key)
        if key == UNIT or not any(key[1]):
            return terms
        return [((reverse(a), reverse(b)), c) for (a, b), c in terms]

    return mutant


# algebra -> rows of 455 (N=3, W=1) on which the mutant fails ideal-coproduct
COPRODUCT_WEIGHT_MUTANT = {
    "sl2_twisted": (lambda: lie_twist(sl2(), sl2_involution()), 200),
    # phi = id: the projection of a leg is that of its weight-0 tree, so
    # reversed weights project alike and every row still passes
    "sl2": (sl2, 0),
}


@pytest.mark.parametrize("name", sorted(COPRODUCT_WEIGHT_MUTANT))
def test_leg_weight_mutant_fails_ideal_coproduct_on_twisted_sl2(name, monkeypatch):
    make, failing = COPRODUCT_WEIGHT_MUTANT[name]
    monkeypatch.setattr(
        TreeOps, "coproduct_terms", reversed_leg_weights(TreeOps.coproduct_terms)
    )
    rep = build_truncated_uea(make(), 3, 1).well_definedness_report()
    assert [(q.eq_id, q.checked, len(q.violations)) for q in rep.equations] == [
        ("ideal-counit", 455, 0),
        ("ideal-antipode", 455, 0),
        ("ideal-shift", 910, 0),
        ("ideal-coproduct", 455, failing),
    ]
