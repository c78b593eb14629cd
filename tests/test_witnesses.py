"""Witnesses on basis keys that are not basis indices.

`hom_core`'s checkers name a failing tuple by basis indices 0..n-1, the
module and comodule checkers of `cross_products` by basis keys.  Every
other failing case of the tests has keys 0..n-1, where the two coincide,
so a checker that reported one for the other would pass them all.  Here
kz4 is relabelled to string keys, "g0".."g3", and perturbed by
beta(e_2) = e_2 + e_3; an unperturbed copy has keys "h0".."h3".  The
(eq_id, witness) pairs of every failure are pinned, in report order, for
- `check_hom_hopf` of the perturbed algebra, witnesses indices;
- `check_matched_pair_hopf` of the counital pair with U perturbed, V the
  copy, witnesses keys with the V key first;
- `check_mutual_pair` of the table pair with U perturbed, F the copy, a
  counital action and the coaction u -> alpha(u) x 1, witnesses keys.
"""

from homhopf.cross_products import MutualPairHopf, check_matched_pair_hopf, check_mutual_pair
from homhopf.foundation import LinComb, LinearOperator
from homhopf.hom_core import HomHopfData, check_hom_hopf

from fixtures import counital_matched_pair, kz4_twisted_hopf

e = LinComb.basis

G = ["g0", "g1", "g2", "g3"]
H = ["h0", "h1", "h2", "h3"]


def kz4_over(keys, perturbed=False):
    """kz4 with e_i renamed keys[i] in every table and operator; perturbed
    adds e_3 to beta(e_2)."""
    h = kz4_twisted_hopf()

    def key(k):
        return tuple(keys[i] for i in k) if type(k) is tuple else keys[k]

    def lc(x):
        return LinComb({key(k): c for k, c in x.items()})

    def op(columns):
        return LinearOperator({keys[k]: lc(v) for k, v in columns.items()})

    beta = dict(h.beta.columns)
    if perturbed:
        beta[2] = beta[2] + e(3)
    return HomHopfData(
        4, {key(k): lc(v) for k, v in h.mult.items()}, lc(h.unit), op(h.alpha.columns),
        {keys[k]: lc(v) for k, v in h.comult.items()},
        {keys[k]: c for k, c in h.counit.items()}, op(beta), op(h.antipode.columns),
        keys=keys,
    )


def failures(rep):
    return [(v.eq_id, v.witness) for v in rep.violations]


def test_hopf_witnesses_are_indices():
    want = [
        (eq_id, (2,))
        for eq_id in ("hom-coassoc", "hom-counit", "hom-counit-right", "eps-beta",
                      "beta-comultiplicative")
    ]
    want += [
        ("bialg-8", w)
        for w in [(0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    ]
    want += [("bialg-9", (2,)), ("antipode-beta", (2,))]
    assert failures(check_hom_hopf(kz4_over(G, perturbed=True))) == want


def test_matched_pair_witnesses_are_keys():
    p = counital_matched_pair(kz4_over(G, perturbed=True), kz4_over(H))
    want = [("lt/Hom-mod-coalg-00", (v, "g2")) for v in H]
    want += [("rt/Hom-mod-coalg-00", (v, "g2")) for v in H]
    want += [("v-rt-uu'", (v, "g2", u)) for v in H for u in G]
    want += [("vv'-lt-u", (v, v2, "g2")) for v in H for v2 in H]
    assert failures(check_matched_pair_hopf(p)) == want


def test_mutual_pair_witnesses_are_keys():
    f, u = kz4_over(H), kz4_over(G, perturbed=True)
    action = {(i, j): u.counit_map(e(i)) * f.beta_map(e(j)) for i in G for j in H}
    coaction = {i: u.alpha_map(e(i)) @ f.unit_elem() for i in G}
    want = [("Hom-mod-alg-00", ("g2", k)) for k in H]
    want += [("Hom-mod-alg-I", ("g2", k, k2)) for k in H for k2 in H]
    want += [("Hom-comod-coalg-00", ("g2",))]
    want += [("comp-I", ("g2", k)) for k in H]
    want += [("comp-III", ("g2", k)) for k in G]
    assert failures(check_mutual_pair(MutualPairHopf(f, u, action, coaction))) == want
