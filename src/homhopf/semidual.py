"""Action/coaction dualization and semidualization: a matched pair of
Hom-Hopf algebras becomes a mutual pair for the dual of the second
factor, with the pairing conventions

    u_(0) <u_(1), v> = alpha_V^-2(v) |> u        (coaction from action)
    <u |>* f, v>     = <f, alpha_V^-2(v) <| phi_U^-2(u)>   (dual action)

Finite factors dualize into honest table data; a truncated enveloping
factor dualizes degreewise, and the mutual-pair equations are then
evaluated pairing-wise.  The pipeline entry point composes: build both
enveloping algebras, lift the actions, check the matched pair,
semidualize, check the mutual pair, and build the bicrossproduct.
"""

from .cross_products import (
    Bicrossproduct,
    GradedMutualPair,
    MatchedPairHopf,
    MutualPairHopf,
    check_matched_pair_hopf,
    check_mutual_pair,
    coaction_column,
)
from .duality import TruncatedDual, dual_hom_hopf, transpose_operator
from .errors import OrderConstraintViolated
from .foundation import FuncOperator, LinComb, bilinear, extend
from .hom_core import ActionData, CoactionData, check_hom_hopf
from .uea_trees import lift_to_Uh_action


def _check_order(obj, label, enforce):
    """alpha^4 beta^-2 must be the identity on every basis vector."""
    if not enforce:
        return
    for k in obj.basis_keys():
        x = LinComb.basis(k)
        if obj.alpha_pow(4, obj.beta_pow(-2, x)) != x:
            raise OrderConstraintViolated(
                "%s fails alpha^4 beta^-2 = id on basis %r" % (label, k)
            )


def coaction_from_action(v, carrier_keys, left_table, gamma):
    """Turn a left action of the finite Hopf object v into a right coaction
    over its dual: nabla(u) = sum_w (alpha^-2(w) |> u) x w*."""
    dual = dual_hom_hopf(v)

    def lt(vec, u):
        return bilinear(lambda i, j: left_table[(i, j)], vec, u)

    coact = {ukey: coaction_column(lt, v, ukey) for ukey in carrier_keys}
    return CoactionData(dual, carrier_keys, coact, gamma)


def action_from_coaction(v, coaction):
    """Inverse reading of the pairing: v |> u = u_(0) <u_(1), alpha^2(v)>."""
    table = {}
    for vkey in v.basis_keys():
        shifted = v.alpha_pow(2, LinComb.basis(vkey))
        for ukey in coaction.carrier_keys:
            table[(vkey, ukey)] = extend(
                lambda t: shifted.get(t[1]) * LinComb.basis(t[0]),
                coaction.coact[ukey],
            )
    return table


def dual_left_action_from_right_action(u, v, right_table, gamma=None):
    """Left action of u on the dual of v from a right action of u on v:
    (u |>* f)(w) = f(gamma^-2(w) <| phi^-2(u)), carrier map (gamma^-1)*."""
    vk = v.basis_keys()

    def rt(vec, uu):
        return bilinear(lambda i, j: right_table[(i, j)], vec, uu)

    act = _dual_action_table(u, v, rt)
    carrier = transpose_operator(v.alpha.inverted(), vk) if gamma is None else gamma
    return ActionData(u, vk, act, carrier, side="left")


def _dual_action_table(u, v, rt):
    """Table (u, z) -> u |>* z* of the dual action, read off the right
    action rt of u on v: its w-coefficient is [alpha^-2(w) <| phi^-2(u)]_z."""
    vk = v.basis_keys()
    act = {}
    for ukey in u.basis_keys():
        shifted_u = u.alpha_pow(-2, LinComb.basis(ukey))
        images = [(w, rt(v.alpha_pow(-2, LinComb.basis(w)), shifted_u)) for w in vk]
        for z in vk:
            act[(ukey, z)] = LinComb._wrap(
                {w: val.terms[z] for w, val in images if z in val.terms}
            )
    return act


def lifted_matched_pair(pair, truncation_degree, weight_bound):
    """The matched pair of truncated enveloping algebras U(g), U(h) carrying
    the lifted actions of a matched pair of Hom-Lie algebras."""
    left, right = lift_to_Uh_action(pair, truncation_degree, weight_bound)
    right_vu = {(v, u): val for (u, v), val in right.act.items()}
    return MatchedPairHopf(left.carrier, right.carrier, left.act, right_vu)


def semidualize(p, enforce_order_constraint=True):
    """Replace the second factor of a matched pair by its dual, producing
    mutual-pair data (dual action and pairing coaction)."""
    U, V = p.u, p.v
    _check_order(V, "second factor", enforce_order_constraint)
    _check_order(U, "first factor", enforce_order_constraint)

    if getattr(V, "is_truncated", False):
        return GradedMutualPair(TruncatedDual(V), U, _dual_action_table(U, V, p.rt), p)
    # the dual Hopf algebra is built once, inside coaction_from_action
    coaction = coaction_from_action(V, U.basis_keys(), p.left, FuncOperator(U.alpha_map))
    act = _dual_action_table(U, V, p.rt)
    return MutualPairHopf(coaction.coalgebra, U, act, coaction.coact)


class HomLieHopfResult:
    """Everything the end-to-end pipeline produces."""

    def __init__(self, ug, uh, matched_pair, matched_report, mutual, mutual_report,
                 bicross, suite_report):
        self.ug = ug
        self.uh = uh
        self.matched_pair = matched_pair
        self.matched_report = matched_report
        self.mutual = mutual
        self.mutual_report = mutual_report
        self.bicross = bicross
        self.suite_report = suite_report

    @property
    def passed(self):
        return self.matched_report.passed and self.mutual_report.passed and (
            self.suite_report.passed
        )


def build_hom_lie_hopf(pair, truncation_degree, weight_bound,
                       enforce_order_constraint=True):
    """Full pipeline from a matched pair of Hom-Lie algebras to the
    bicrossproduct of the dual enveloping algebra with the enveloping
    algebra, carrying every intermediate check report."""
    if truncation_degree < 1:
        raise ValueError("truncation degree must be at least 1")
    if enforce_order_constraint:
        for lie, label in ((pair.g, "g"), (pair.h, "h")):
            for k in range(lie.dim):
                x = LinComb.basis(k)
                if lie.phi_pow(4, x) != x:
                    raise OrderConstraintViolated(
                        "twist of %s is not of order dividing 4" % label
                    )
    mp = lifted_matched_pair(pair, truncation_degree, weight_bound)
    ug, uh = mp.u, mp.v
    matched_report = check_matched_pair_hopf(mp)
    mutual = semidualize(mp, enforce_order_constraint)
    mutual_report = check_mutual_pair(mutual)
    bicross = Bicrossproduct(mutual)
    suite_report = check_hom_hopf(bicross)
    return HomLieHopfResult(
        ug, uh, mp, matched_report, mutual, mutual_report, bicross, suite_report
    )
