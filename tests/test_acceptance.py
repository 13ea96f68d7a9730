"""Acceptance tests: quantitative bounds, thresholds, and consistency."""

import itertools
import json
import os
import time

import numpy as np
import pytest

from nlocality import optimize
from nlocality.analysis import (bell_evaluate, load_bell_functional,
                                mermin_functional, negativity,
                                separability_check, tripartite_behavior)
from nlocality.cli import main
from nlocality.families import family_groupings, family_state
from nlocality.lhv import appendix_b_behavior, enumerate_deterministic
from nlocality.measurements import BlochObservable, balanced_groupings
from nlocality.network import (NLocalNetwork, NLocalSettings, SettingsBundle,
                               TrilocalNetwork, _dense_behavior, ivalue_table,
                               nlocal_behavior, swapped_state, trilocal_score)
from nlocality.optimize import (OptimizerConfig, maximize_local,
                                maximize_nlocal, maximize_trilocal,
                                visibility_threshold)
from nlocality.states import depolarized_ghz, gghz_state, ghz_n_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_acceptance_1_gghz_bound_on_grid():
    start = time.monotonic()
    cfg = OptimizerConfig(seed=0)  # default restart count
    for k in range(11):
        alpha = k * np.pi / 40
        res = maximize_trilocal(("gghz", {"alpha": alpha}), cfg)
        expected = np.cbrt(2.0) * np.sin(2 * alpha)
        assert abs(res.score - expected) < 1e-4, (k, res.score, expected)
    assert time.monotonic() - start < 120.0


def biseparable_reference(eta, s1):
    s2 = np.sqrt(1 - s1 * s1)
    q = abs(s1 * s2)
    sin2 = np.sin(2 * eta)
    return max(2 ** (4 / 3) * q * sin2, sin2 * np.cbrt(2 * abs(1 - 6 * q * q)))


def test_acceptance_2_biseparable_bound_on_grid():
    cfg = OptimizerConfig(restarts=16, seed=0)
    for eta in np.linspace(0.0, np.pi / 4, 5):
        for s1 in np.linspace(0.0, 1.0, 5):
            res = maximize_trilocal(
                ("biseparable", {"eta": eta, "sigma1": s1}), cfg)
            expected = biseparable_reference(eta, s1)
            assert abs(res.score - expected) < 1e-3, (eta, s1, res.score,
                                                      expected)
    # violation without genuine tripartite entanglement
    res = maximize_trilocal(("biseparable",
                             {"eta": np.pi / 4, "sigma1": 1 / np.sqrt(2),
                              "sigma2": 1 / np.sqrt(2)}), cfg)
    assert abs(res.score - np.cbrt(2.0)) < 1e-3
    assert res.score > 1.0


def test_acceptance_3_ghz_symmetric_bound():
    cfg = OptimizerConfig(restarts=16, seed=0)
    points = [(0.5, np.sqrt(3) / 4), (0.3, 0.3), (0.45, 0.4), (0.2, 0.1),
              (-0.4, 0.35), (0.1, 0.0), (0.0, 0.2)]
    for p1, p2 in points:
        res = maximize_trilocal(("ghz-symmetric", {"p1": p1, "p2": p2}), cfg)
        expected = np.cbrt(16.0) * abs(p1)
        assert abs(res.score - expected) < 1e-3, (p1, p2, res.score, expected)
    # the score crosses 1 at |p1| = 16^(-1/3), to within 2e-3
    boundary = 16.0 ** (-1 / 3)
    below = maximize_trilocal(("ghz-symmetric",
                               {"p1": boundary - 2e-3, "p2": 0.35}), cfg)
    above = maximize_trilocal(("ghz-symmetric",
                               {"p1": boundary + 2e-3, "p2": 0.35}), cfg)
    assert below.score < 1.0 < above.score


def test_acceptance_4_visibility_thresholds():
    cfg = OptimizerConfig(restarts=8, seed=0)
    expected = {"depolarized": 2.0 ** (-1 / 3),
                "amplitude": 1.0 - 4.0 ** (-1 / 9),
                "phase": 1.0 - 4.0 ** (-1 / 9)}
    for family, target in expected.items():
        res = visibility_threshold(family, cfg)
        assert abs(res.critical_value - target) < 1e-3, (family,
                                                         res.critical_value,
                                                         target)
        assert res.score_below <= 1.0 + 1e-6
        assert res.score_above >= 1.0 - 1e-6


@pytest.mark.skipif(not os.environ.get("NLOCALITY_RUN_OPTIONAL"),
                    reason="long-running optional check; set "
                           "NLOCALITY_RUN_OPTIONAL=1 to enable")
@pytest.mark.parametrize("family, target, restarts", [
    ("depolarized", 2.0 ** (-1 / 3), 3),
    ("amplitude", 1.0 - 4.0 ** (-1 / 9), 8),
])
def test_acceptance_4_thresholds_over_seeds_optional(monkeypatch, family,
                                                     target, restarts):
    """The threshold search lands on the closed form from every start
    stream of seeds 0-19, in at most 9 maximizations each, and its second
    inner point at or below 1, which continues from the first, takes at
    most half the first's evaluations."""
    calls = []
    real = optimize._optimize

    def counted(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(optimize, "_optimize", counted)
    for seed in range(20):
        calls.clear()
        res = visibility_threshold(family, OptimizerConfig(restarts=restarts,
                                                           seed=seed))
        assert abs(res.critical_value - target) < 1e-3, (seed, res)
        assert len(calls) <= 9, (seed, len(calls))
        below = [r.evaluations for r in calls[2:] if r.score <= 1.0]
        assert len(below) >= 2 and 2 * below[1] <= below[0], (seed, below)
        assert res.score_below <= 1.0 + 1e-6
        assert res.score_above >= 1.0 - 1e-6


def test_acceptance_5_saturating_model_tightness():
    for r in np.linspace(0.0, 1.0, 21):
        beh = appendix_b_behavior(r)
        assert abs(trilocal_score(beh).score - 1.0) < 1e-12
        table = ivalue_table(beh)
        assert np.allclose(table[..., 0], r ** 3, atol=1e-12)
        assert np.allclose(table[..., 1], (1 - r) ** 3, atol=1e-12)


def test_acceptance_6_deterministic_vertices():
    best_local, _ = enumerate_deterministic("local")
    assert best_local == 1.0
    best_trilocal, _ = enumerate_deterministic("trilocal")
    assert best_trilocal <= 1.0 + 1e-12


def test_acceptance_7_swapped_state_diagnostics():
    state = family_state("amplitude", {"gamma": 0.2})
    net = TrilocalNetwork.from_role_states(state, state, state)
    b_pair, c_pair = family_groupings("amplitude")
    sx = BlochObservable(np.pi / 2, 0.0)
    bundle = SettingsBundle((sx, sx), b_pair, c_pair, (sx, sx), (sx, sx))
    for y, b_out, z, c_out in itertools.product((0, 1), repeat=4):
        chi, prob = swapped_state(net, bundle, y, b_out, z, c_out)
        assert prob > 0.0
        for cut in range(3):
            assert negativity(chi, 3, cut) <= 1e-10
        report = separability_check(chi)
        assert report.criterion1_satisfied
        assert report.criterion2_satisfied
    # nontrilocality persists below the damping threshold 1 - 4^(-1/9)
    res = maximize_trilocal(("amplitude", {"gamma": 0.1}),
                            OptimizerConfig(restarts=12, seed=0))
    assert res.score > 1.0
    assert abs(res.score - np.cbrt(2.0) * 0.9 ** 1.5) < 1e-3


@pytest.mark.parametrize("family,params",
                         [("gghz", {"alpha": np.pi / 4}),
                          ("biseparable", {"eta": np.pi / 4,
                                           "sigma1": 1 / np.sqrt(2)}),
                          ("ghz-symmetric", {"p1": 0.5, "p2": np.sqrt(3) / 4}),
                          ("depolarized", {"epsilon": 0.9})])
def test_acceptance_8_local_inequality_never_violated(family, params):
    cfg = OptimizerConfig(restarts=200, seed=0)
    res = maximize_local((family, params), cfg)
    assert res.score <= 1.0 + 1e-6, (family, res.score)


def random_pair(rng):
    return (BlochObservable(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
            BlochObservable(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)))


def test_acceptance_9_nlocal_consistency_n3():
    rng = np.random.default_rng(42)
    groupings = balanced_groupings(3)
    for _ in range(20):
        if rng.random() < 0.5:
            states = [gghz_state(rng.uniform(0, np.pi / 4)) for _ in range(3)]
        else:
            states = [depolarized_ghz(rng.uniform(0.5, 1.0))
                      for _ in range(3)]
        b_pair = tuple(groupings[rng.integers(len(groupings))]
                       for _ in range(2))
        c_pair = tuple(groupings[rng.integers(len(groupings))]
                       for _ in range(2))
        a, d, t = (random_pair(rng) for _ in range(3))
        tri_net = TrilocalNetwork.from_role_states(*states)
        # the dense 512x512 Born rule is the independent reference
        tri = _dense_behavior(tri_net, SettingsBundle(a, b_pair, c_pair, d, t))
        n_net = NLocalNetwork.from_states(3, states)
        nlo = nlocal_behavior(n_net, NLocalSettings((a, d, t),
                                                    (b_pair, c_pair)))
        # n-local party order (A1, A2, A3, B1, B2) vs (A, B, C, D, T)
        perm = [0, 3, 4, 1, 2]
        axes = perm + [5 + i for i in perm]
        assert np.allclose(nlo.probabilities,
                           tri.probabilities.transpose(axes), atol=1e-12)


def test_acceptance_9_nlocal_pure_optima():
    for n, target in ((2, np.sqrt(2.0)), (4, np.sqrt(2.0))):
        net = NLocalNetwork.from_states(n, [ghz_n_state(n)] * n)
        res = maximize_nlocal(net, OptimizerConfig(restarts=8, seed=0))
        assert abs(res.score - target) < 1e-3, (n, res.score)


@pytest.mark.skipif(not os.environ.get("NLOCALITY_RUN_OPTIONAL"),
                    reason="long-running optional check; set "
                           "NLOCALITY_RUN_OPTIONAL=1 to enable")
def test_acceptance_9_noisy_n4_threshold_optional():
    """Empirical n=4 noise threshold versus the product-visibility-1/2
    sufficient condition.

    With four equally depolarized sources the score scales linearly in the
    per-source visibility, so the empirical threshold sits at product
    visibility 1/4.  The sufficient condition (product > 1/2) must
    therefore hold strictly inside the violating region.
    """
    start = time.monotonic()
    cfg = OptimizerConfig(restarts=6, seed=0)

    def score(eps):
        net = NLocalNetwork.from_states(4, [depolarized_ghz4(eps)] * 4)
        return maximize_nlocal(net, cfg).score

    lo, hi = 0.5, 1.0
    while hi - lo > 1e-3:
        mid = (lo + hi) / 2
        if score(mid) > 1.0:
            hi = mid
        else:
            lo = mid
    empirical = (lo + hi) / 2
    product = empirical ** 4
    # the conjectured sufficient region is contained in the violating one
    assert product <= 0.5 + 1e-2
    assert abs(empirical - 2.0 ** (-1 / 2)) < 5e-3
    # visibility slightly above the conjectured sufficient product violates
    assert score((0.5 + 1e-2) ** 0.25) > 1.0
    assert time.monotonic() - start < 1800.0


@pytest.mark.skipif(not os.environ.get("NLOCALITY_RUN_OPTIONAL"),
                    reason="long-running optional check; set "
                           "NLOCALITY_RUN_OPTIONAL=1 to enable")
@pytest.mark.parametrize("n", [7, 8])
def test_acceptance_9_nlocal_n7_n8_optional(tmp_path, n):
    """GHZ sources violate at the largest network sizes, and a rerun
    writes the same report.  No closed form is asserted: the S(n) found
    at n >= 5 are fits, not derived values."""
    args = ["nlocal", "--n", str(n), "--restarts", "12", "--seed", "0"]
    outs = [tmp_path / ("%d.json" % i) for i in range(2)]
    for out in outs:
        assert main(args + ["--output", str(out)]) == 0
    row = json.loads(outs[0].read_text())["results"][0]
    assert row["verdict"] == "non-n-local"
    assert outs[0].read_bytes() == outs[1].read_bytes()


def depolarized_ghz4(eps):
    ghz = ghz_n_state(4)
    pure = np.outer(ghz, ghz.conj())
    return eps * pure + (1 - eps) * np.eye(16) / 16


def test_acceptance_10_bell_evaluate_engine():
    facet_file = os.environ.get("NLOCALITY_FACET_FILE")
    if facet_file:
        functional = load_bell_functional(facet_file)
    else:
        functional = mermin_functional()
    ghz = ghz_n_state(3)
    rho = np.outer(ghz, ghz.conj())
    table = tripartite_behavior(rho, [(SX, SY)] * 3)
    value, violated = bell_evaluate(table, functional)
    if not facet_file:
        assert abs(value - 4.0) < 1e-10
        assert violated
    else:
        assert np.isfinite(value)
