"""Monte-Carlo laws of the support counts an attack's ``m`` reports add.

The server sees crafted reports only through their support counts, and
under the adaptive-attack model (Section V-C) every report is an i.i.d.
draw, so each column of ``support_counts(craft(protocol, m))`` is a sum
of ``m`` i.i.d. support indicators with a closed-form law.  Every case
draws seeded batches of those counts and checks each column's mean and
variance against it:

* item-sampling attacks (AA, Manip, MGA on GRR): column ``v`` is
  ``Binomial(m, p_v)`` on GRR, ``Binomial(m, p_v + (1 - p_v) q)`` on the
  unary encodings (crafted non-item bits fire at rate ``q``) and
  ``Binomial(m, p_v + (1 - p_v) / g)`` on the local hashes (a fresh key
  collides with the item's hash at rate ``1/g``), where ``p`` is the
  attacker's item distribution;
* IPA: the crafted item goes through the genuine perturbation, so column
  ``v`` is ``Binomial(m, p_v P.p + (1 - p_v) P.q)`` for protocol ``P``;
* ``MultiAttacker``: the independent sum of its attackers' laws over the
  deterministic ``split_users(m)``;
* MGA on OUE/SUE: every target column is exactly ``m``; each report pads
  a uniform ``pad``-subset of the ``k`` non-targets, so a non-target
  column is ``Binomial(m, pad/k)``, two of them covary by
  ``-m (pad/k)(1 - pad/k)/(k - 1)``, and a draw sums to ``m (r + pad)``.

Each law is checked on both ways a trial draws these counts: crafting
and counting the reports (sampled and chunked trials) and
``attack.sample_counts`` (fast trials).  MGA on the local hashes has no
closed form (its reports come from a search over hash keys), and it and
RPA draw through the crafting path, so for them ``sample_counts`` is
pinned bit-equal to ``support_counts(craft(...))`` instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    AdaptiveAttack,
    InputPoisoningAttack,
    ItemSamplingAttack,
    ManipAttack,
    MGAAttack,
    MultiAttacker,
    RPAAttack,
)
from repro.exceptions import AttackError
from repro.protocols import BLH, GRR, OLH, OUE, SUE

EPSILON = 1.0
D = 16
R = 2
M = 200
DRAWS = 400
#: Tolerance in standard errors.  Every comparison is one of a few
#: hundred per run at fixed seeds, so a correct law never comes near it.
Z = 5.0

PROTOCOLS = {"grr": GRR, "oue": OUE, "olh": OLH, "sue": SUE, "blh": BLH}


def _attack(name):
    if name == "aa":
        return AdaptiveAttack(D, rng=1)
    if name == "manip":
        return ManipAttack(D, rng=2)
    if name == "mga":
        return MGAAttack(D, r=R, rng=3)
    if name == "ipa-mga":
        return InputPoisoningAttack(MGAAttack(D, r=R, rng=3))
    return MultiAttacker([AdaptiveAttack(D, rng=10 + i) for i in range(5)])


def _crafted(attack, protocol, m, gen):
    return protocol.support_counts(attack.craft(protocol, m, gen))


def _sampled(attack, protocol, m, gen):
    return attack.sample_counts(protocol, m, gen)


#: Ways to draw one batch's malicious support counts off a generator.
DRAWERS = {"craft": _crafted, "sample": _sampled}


def _draws(path, attack, protocol, seed, m=M):
    gen = np.random.default_rng(seed)
    return np.stack([DRAWERS[path](attack, protocol, m, gen) for _ in range(DRAWS)])


def _binomial(m, rate):
    return m * rate, m * rate * (1.0 - rate)


def _law(attack, protocol, m):
    """Closed-form per-column (mean, variance) of ``m`` reports' counts."""
    if isinstance(attack, MultiAttacker):
        parts = [
            _law(inner, protocol, int(mi))
            for inner, mi in zip(attack.attacks, attack.split_users(m))
        ]
        return sum(p[0] for p in parts), sum(p[1] for p in parts)
    probs = np.asarray(attack.item_distribution(protocol), dtype=np.float64)
    if isinstance(attack, InputPoisoningAttack):
        return _binomial(m, probs * protocol.p + (1.0 - probs) * protocol.q)
    if isinstance(protocol, GRR):
        return _binomial(m, probs)
    if isinstance(protocol, OLH):
        return _binomial(m, probs + (1.0 - probs) / protocol.g)
    return _binomial(m, probs + (1.0 - probs) * protocol.q)


def _variance_rel_se(var, n):
    """Relative standard error of an ``n``-draw sample variance.

    For a sum of independent Bernoullis the fourth cumulant is at most
    the variance, so the excess kurtosis is at most ``1 / var``.
    """
    return np.sqrt(2.0 / (n - 1) + 1.0 / (n * var))


def _assert_moments(draws, mean, var):
    n = draws.shape[0]
    fixed = var <= 1e-12
    np.testing.assert_array_equal(
        draws[:, fixed], np.broadcast_to(np.rint(mean[fixed]), (n, int(fixed.sum())))
    )
    live = ~fixed
    mean_z = (draws[:, live].mean(axis=0) - mean[live]) / np.sqrt(var[live] / n)
    assert np.abs(mean_z).max() < Z, mean_z
    ratio = draws[:, live].var(axis=0, ddof=1) / var[live]
    var_z = (ratio - 1.0) / _variance_rel_se(var[live], n)
    assert np.abs(var_z).max() < Z, ratio


CASES = [
    (attack, name)
    for attack in ("aa", "manip", "mga", "ipa-mga", "multi-aa")
    for name in PROTOCOLS
    if not (attack == "mga" and name != "grr")
]


@pytest.mark.parametrize("path", sorted(DRAWERS))
@pytest.mark.parametrize("attack_name,protocol_name", CASES)
def test_column_moments_match_the_closed_form(path, attack_name, protocol_name):
    attack = _attack(attack_name)
    protocol = PROTOCOLS[protocol_name](EPSILON, D)
    seed = 1_000 + CASES.index((attack_name, protocol_name))
    draws = _draws(path, attack, protocol, seed)
    assert draws.shape == (DRAWS, D) and draws.dtype == np.int64
    if isinstance(protocol, GRR):
        # A GRR report supports exactly one item.
        np.testing.assert_array_equal(draws.sum(axis=1), M)
    mean, var = _law(attack, protocol, M)
    _assert_moments(draws, mean, var)


@pytest.mark.parametrize("path", sorted(DRAWERS))
@pytest.mark.parametrize("protocol_name", ["oue", "sue"])
def test_mga_unary_padding_law(path, protocol_name):
    protocol = PROTOCOLS[protocol_name](EPSILON, D)
    mga = MGAAttack(D, r=R, rng=3)
    targets = mga.target_items
    non_targets = np.setdiff1d(np.arange(D), targets)
    k = non_targets.size
    pad = int(round(protocol.p + (D - 1) * protocol.q)) - R
    assert 1 < pad < k
    draws = _draws(path, mga, protocol, seed=2_000 + list(PROTOCOLS).index(protocol_name))
    np.testing.assert_array_equal(draws[:, targets], M)
    np.testing.assert_array_equal(draws.sum(axis=1), M * (R + pad))
    rate = pad / k
    mean, var = _binomial(M, np.full(D, rate))
    mean[targets], var[targets] = M, 0.0
    _assert_moments(draws, mean, var)
    cov = np.cov(draws[:, non_targets], rowvar=False)
    expected = -M * rate * (1.0 - rate) / (k - 1)
    off_diagonal = cov[~np.eye(k, dtype=bool)].mean()
    tolerance = Z * _variance_rel_se(var[non_targets[0]], DRAWS) * abs(expected)
    assert abs(off_diagonal - expected) < tolerance


@pytest.mark.parametrize("path", sorted(DRAWERS))
@pytest.mark.parametrize("protocol_name", ["oue", "sue"])
def test_unpadded_mga_counts_only_its_targets(path, protocol_name):
    protocol = PROTOCOLS[protocol_name](EPSILON, D)
    mga = MGAAttack(D, r=R, pad_oue=False, rng=3)
    draws = _draws(path, mga, protocol, seed=3_000)
    expected = np.zeros(D, dtype=np.int64)
    expected[mga.target_items] = M
    np.testing.assert_array_equal(draws, np.broadcast_to(expected, draws.shape))


@pytest.mark.parametrize(
    "attack_name,protocol_name",
    [("mga", "olh"), ("mga", "blh")] + [("rpa", name) for name in PROTOCOLS],
)
def test_crafting_path_attacks_sample_bit_equal_counts(attack_name, protocol_name):
    attack = RPAAttack(D) if attack_name == "rpa" else _attack(attack_name)
    protocol = PROTOCOLS[protocol_name](EPSILON, D)
    for m in (0, 1, M):
        crafted_gen, sampled_gen = np.random.default_rng(4_000), np.random.default_rng(4_000)
        np.testing.assert_array_equal(
            attack.sample_counts(protocol, m, sampled_gen),
            _crafted(attack, protocol, m, crafted_gen),
        )
        # Later draws of the trial stay where the crafting path left them.
        assert sampled_gen.random() == crafted_gen.random()


class _Distribution(ItemSamplingAttack):
    def __init__(self, probs):
        self.probs = probs

    def item_distribution(self, protocol):
        return self.probs


@pytest.mark.parametrize(
    "probs,match",
    [
        (None, "did not define an item distribution"),
        (np.ones(D - 1), "item distribution has shape"),
        (np.zeros(D), "positive mass"),
    ],
)
@pytest.mark.parametrize("path", sorted(DRAWERS))
def test_bad_item_distribution_raises_attack_error(path, probs, match):
    protocol = OUE(EPSILON, D)
    attack = _Distribution(probs)
    with pytest.raises(AttackError, match=match):
        DRAWERS[path](attack, protocol, M, np.random.default_rng(0))
    with pytest.raises(AttackError, match=match):
        InputPoisoningAttack(attack).sample_counts(protocol, M, np.random.default_rng(0))


@pytest.mark.parametrize("path", sorted(DRAWERS))
@pytest.mark.parametrize("attack_name", ["aa", "mga", "ipa-mga", "multi-aa"])
def test_negative_m_raises_attack_error(path, attack_name):
    with pytest.raises(AttackError, match="m must be >= 0"):
        DRAWERS[path](_attack(attack_name), OUE(EPSILON, D), -1, np.random.default_rng(0))
