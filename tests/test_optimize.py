"""Tests for the optimizer layer (fast checks; bounds live in acceptance)."""

import numpy as np
import pytest
from scipy.optimize import minimize

from nlocality import optimize
from nlocality.families import family_groupings, family_state
from nlocality.network import (NLocalNetwork, TrilocalNetwork,
                               transfer_ivalues)
from nlocality.optimize import (NoBracketError, OptimizationResult,
                                OptimizerConfig, _problem,
                                angles_to_observables,
                                default_nlocal_groupings, maximize_local,
                                maximize_trilocal, visibility_threshold)
from nlocality.states import ghz_n_state
from test_network import enumerated_score


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=-1)


def test_angles_to_observables():
    angles = np.array([0.0, 0.0, np.pi / 2, 0.0,
                       0.0, 0.0, 0.0, 0.0,
                       0.0, 0.0, 0.0, 0.0])
    obs = angles_to_observables(angles)
    assert obs.shape == (3, 2, 2, 2)
    assert np.allclose(obs[0, 0], np.diag([1.0, -1.0]))
    assert np.allclose(obs[0, 1], np.array([[0, 1], [1, 0]]))
    for party in obs:
        for m in party:
            assert np.allclose(m @ m, np.eye(2), atol=1e-12)


def assert_objective_matches_reference(net, groupings, restricted):
    """The tensor objective equals transfer_ivalues + the enumerated
    score."""
    transfers, mask, root, objective = _problem(net, groupings, restricted)
    assert root == (net.n if restricted else 1)
    rng = np.random.default_rng(5)
    for angles in rng.uniform(0.0, 2 * np.pi, (200, 4 * net.n)):
        ivals = transfer_ivalues(net.n, transfers,
                                 angles_to_observables(angles))
        expected, _, _ = enumerated_score(ivals, mask, root,
                                          share_tail=restricted)
        assert abs(objective(angles)[0] - expected) <= 1e-12


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("family, params", [
    ("gghz", {"alpha": 0.5}),
    ("biseparable", {"eta": 0.6, "sigma1": 0.3}),
    ("ghz-symmetric", {"p1": 0.2, "p2": 0.1}),
    ("amplitude", {"gamma": 0.4}),
])
@pytest.mark.parametrize("restricted", [True, False])
def test_trilocal_objective_matches_reference(family, params, restricted):
    net = TrilocalNetwork.from_shared_state(family_state(family, params))
    assert_objective_matches_reference(net, family_groupings(family),
                                       restricted)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("source", ["ghz", "mixed"])
@pytest.mark.parametrize("restricted", [True, False])
def test_nlocal_objective_matches_reference(n, source, restricted):
    if source == "ghz":
        states = [ghz_n_state(n)] * n
    else:
        rng = np.random.default_rng(n)
        states = [random_density(rng, 2 ** n) for _ in range(n)]
    net = NLocalNetwork.from_states(n, states)
    assert_objective_matches_reference(net, default_nlocal_groupings(n),
                                       restricted)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("source", ["ghz", "mixed"])
@pytest.mark.parametrize("restricted", [True, False])
def test_objective_gradient_matches_central_differences(n, source,
                                                        restricted):
    rng = np.random.default_rng(10 + n)
    if source == "ghz":
        states = [ghz_n_state(n)] * n
    else:
        states = [random_density(rng, 2 ** n) for _ in range(n)]
    net = NLocalNetwork.from_states(n, states)
    _, _, _, objective = _problem(net, default_nlocal_groupings(n),
                                  restricted)
    h = 1e-6
    steps = h * np.eye(4 * n)
    for angles in rng.uniform(0.0, 2 * np.pi, (50, 4 * n)):
        _, grad = objective(angles)
        numeric = np.array([(objective(angles + e)[0]
                             - objective(angles - e)[0]) / (2 * h)
                            for e in steps])
        assert np.abs(grad - numeric).max() <= 1e-5 * max(
            1.0, np.abs(grad).max())


def test_objective_gradient_is_zero_without_ivalues():
    # maximally mixed sources give every I-value 0
    net = NLocalNetwork.from_states(3, [np.eye(8) / 8] * 3)
    _, _, _, objective = _problem(net, default_nlocal_groupings(3), True)
    score, grad = objective(np.linspace(0.1, 2.0, 12))
    assert score == 0.0
    assert np.array_equal(grad, np.zeros(12))


def test_evaluations_are_scipy_function_evaluations(monkeypatch):
    nfev = []

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(optimize, "minimize", counted)
    res = maximize_trilocal(("gghz", {"alpha": 0.5}),
                            OptimizerConfig(restarts=5, seed=2))
    assert len(nfev) == 5
    assert res.evaluations == sum(nfev)
    net = NLocalNetwork.from_states(4, [ghz_n_state(4)] * 4)
    nfev.clear()
    res = optimize.maximize_nlocal(net, OptimizerConfig(restarts=3, seed=1))
    assert len(nfev) == 3
    assert res.evaluations == sum(nfev)


def test_optimizer_is_deterministic():
    cfg = OptimizerConfig(restarts=3, seed=7)
    r1 = maximize_trilocal(("gghz", {"alpha": 0.4}), cfg)
    r2 = maximize_trilocal(("gghz", {"alpha": 0.4}), cfg)
    assert r1.score == r2.score
    assert np.array_equal(r1.angles, r2.angles)
    assert r1.evaluations == r2.evaluations


def test_workers_do_not_change_result():
    # workers is accepted for compatibility and has no effect
    base = maximize_trilocal(("gghz", {"alpha": 0.4}),
                             OptimizerConfig(restarts=4, seed=3))
    threaded = maximize_trilocal(("gghz", {"alpha": 0.4}),
                                 OptimizerConfig(restarts=4, seed=3,
                                                 workers=4))
    assert base.score == threaded.score


def test_more_restarts_never_worse():
    few = maximize_trilocal(("gghz", {"alpha": 0.6}),
                            OptimizerConfig(restarts=2, seed=11))
    many = maximize_trilocal(("gghz", {"alpha": 0.6}),
                             OptimizerConfig(restarts=8, seed=11))
    assert many.score >= few.score - 1e-12


def test_result_reports_argmax_tuple():
    res = maximize_trilocal(("gghz", {"alpha": 0.7}),
                            OptimizerConfig(restarts=4, seed=0))
    assert res.i_values.shape == (2, 2, 2)
    assert res.tuple_k0 is not None and res.tuple_k1 is not None
    assert res.evaluations > 0


def test_maximize_local_runs():
    res = maximize_local(("gghz", {"alpha": 0.3}),
                         OptimizerConfig(restarts=4, seed=0))
    assert 0.0 <= res.score <= 1.0 + 1e-6


def test_threshold_rejects_unknown_family():
    with pytest.raises(ValueError):
        visibility_threshold("gghz")
    with pytest.raises(ValueError):
        visibility_threshold("depolarized", mode="both")


def test_default_nlocal_groupings():
    for n in (2, 3, 4):
        pairs = default_nlocal_groupings(n)
        assert len(pairs) == n - 1
        for pair in pairs:
            assert len(pair) == 2
            for g in pair:
                assert g.n == n


class StubOptimizer:
    """Stands in for optimize._optimize with a monotone score: scale times
    twice the GHZ corner coherence of the noisy source, i.e. scale * eps
    for depolarized and scale * (1 - gamma)^(3/2) for damped sources.  At
    scale 2^(1/3) it crosses 1 at the closed-form thresholds.  Each call
    records its score, returned angles, warm starts and a draw from the
    search's start stream."""

    def __init__(self, scale=np.cbrt(2.0)):
        self.scale = scale
        self.calls = []

    def __call__(self, net, groupings, cfg, restricted, rng, extra_starts=()):
        score = self.scale * 2 * abs(net.source_states[0][0, 7])
        angles = np.full(12, float(len(self.calls)))
        self.calls.append({"score": score, "angles": angles,
                           "warm": list(extra_starts),
                           "draw": rng.uniform(size=cfg.restarts)})
        return OptimizationResult(score, None, (0, 0), (0, 0), None, angles,
                                  0)


THRESHOLD_TARGETS = [("depolarized", 2.0 ** (-1 / 3)),
                     ("amplitude", 1.0 - 4.0 ** (-1 / 9)),
                     ("phase", 1.0 - 4.0 ** (-1 / 9))]


@pytest.mark.parametrize("mode", ["joint", "single"])
@pytest.mark.parametrize("family, target", THRESHOLD_TARGETS)
def test_threshold_bisects_unit_interval(monkeypatch, family, target, mode):
    stub = StubOptimizer()
    monkeypatch.setattr(optimize, "_optimize", stub)
    res = visibility_threshold(family, OptimizerConfig(restarts=2), mode)
    # 2 ends and 14 halvings of [0, 1] down to width 2^-14 <= 1e-4
    assert len(stub.calls) == 16
    assert res.bracket_width == 2.0 ** -14
    lo = res.critical_value - res.bracket_width / 2
    assert lo * 2 ** 14 == int(lo * 2 ** 14)
    assert lo < target < lo + res.bracket_width
    assert res.score_below < 1.0 < res.score_above


@pytest.mark.parametrize("family, target", THRESHOLD_TARGETS[:2])
def test_threshold_warm_starts_from_violating_end(monkeypatch, family,
                                                  target):
    stub = StubOptimizer()
    monkeypatch.setattr(optimize, "_optimize", stub)
    visibility_threshold(family, OptimizerConfig(restarts=2))
    ends, midpoints = stub.calls[:2], stub.calls[2:]
    assert all(call["warm"] == [] for call in ends)
    # the score is monotone, so a point scoring above 1 becomes the
    # bracket's violating end
    violating = max(ends, key=lambda call: call["score"])
    for call in midpoints:
        assert len(call["warm"]) == 1
        assert np.array_equal(call["warm"][0], violating["angles"])
        if call["score"] > 1.0:
            violating = call


def test_threshold_points_draw_fresh_starts(monkeypatch):
    stub = StubOptimizer()
    monkeypatch.setattr(optimize, "_optimize", stub)
    visibility_threshold("depolarized", OptimizerConfig(restarts=3, seed=4))
    draws = {call["draw"].tobytes() for call in stub.calls}
    assert len(draws) == len(stub.calls) == 16


def test_threshold_without_crossing_raises(monkeypatch):
    stub = StubOptimizer(scale=0.5)
    monkeypatch.setattr(optimize, "_optimize", stub)
    with pytest.raises(NoBracketError):
        visibility_threshold("amplitude", OptimizerConfig(restarts=2))
    assert len(stub.calls) == 2
