"""The lift refuses a Lie pair that is not a matched pair, at every degree.

`lift_to_Uh_action` runs `check_matched_pair_lie` once.  A pair that fails
it is refused: by NotHomLie when one of the lifted actions does not keep
an ideal stable, else by NotMatchedPair, after the tables are built.  At
degree 1 the U-level matched-pair equations skip every mixed tuple, so
without that refusal every Lie-pair command passed the perturbed sl2
Borel sample at `--degree 1`.

The sweep moves each action constant of four matched pairs by +1, one at
a time, zero constants included (`lie_pairs.perturbations`), and lifts
every perturbed pair at N = 1 and N = 3: the lift must refuse exactly the
pairs that fail `check_matched_pair_lie`.  The refused counts are pinned
per pair and degree, with how many of them NotMatchedPair refuses.
"""

import json

import pytest

from homhopf.cli import main
from homhopf.errors import NotHomLie, NotMatchedPair
from homhopf.hom_lie import check_matched_pair_lie
from homhopf.uea_trees import lift_to_Uh_action

from lie_pairs import perturbations
from record_golden import SAMPLES
from test_lift_stability import PAIRS, SWEPT


@pytest.mark.parametrize(
    "command", ["matched-pair-check", "doublecross", "semidualize", "hom-lie-hopf"]
)
def test_lie_pair_commands_refuse_a_pair_that_is_not_matched(command, capsys):
    path = str(SAMPLES / "sl2_borel_perturbed_hom_lie_hopf.json")
    argv = [command, "--input", path, "--degree", "1", "--format", "json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == []
    assert report["error"] == (
        "NotMatchedPair: matched-pair-Hom-Lie-alg-II fails on 2 of 4 tuples"
    )


# (pair, N) -> (perturbations that fail check_matched_pair_lie and are
# refused, of which NotMatchedPair refuses); W = 1.  At N = 3 the ideals
# refuse every one of them.
REFUSED_COUNTS = {
    ("fixture_b", 1): (0, 0),
    ("fixture_b", 3): (0, 0),
    ("fixture_a_prime", 1): (2, 1),
    ("fixture_a_prime", 3): (2, 0),
    ("anticommuting", 1): (6, 2),
    ("anticommuting", 3): (6, 0),
    ("sl2_split_twisted", 1): (4, 3),
    ("sl2_split_twisted", 3): (4, 0),
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("name", SWEPT)
def test_every_perturbed_pair_that_fails_the_lie_check_is_refused(name, n):
    failing, refused, not_matched = set(), set(), 0
    for label, pair in perturbations(PAIRS[name]()):
        if not check_matched_pair_lie(pair).passed:
            failing.add(label)
        try:
            lift_to_Uh_action(pair, n, 1)
        except NotHomLie:
            refused.add(label)
        except NotMatchedPair:
            refused.add(label)
            not_matched += 1
    assert refused == failing
    assert (len(refused), not_matched) == REFUSED_COUNTS[(name, n)]
