"""Tests for the optimizer layer (fast checks; bounds live in acceptance)."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nlocality
from nlocality import optimize
from nlocality.families import family_groupings, family_state
from nlocality.network import (NLocalNetwork, NLocalSettings,
                               TrilocalNetwork, _restricted_score,
                               nlocal_transfers, transfer_ivalues)
from nlocality.optimize import (NoBracketError, OptimizationResult,
                                OptimizerConfig, _angles_to_bloch_pairs,
                                _problem, default_nlocal_groupings,
                                maximize_local, maximize_nlocal,
                                maximize_trilocal, minimize,
                                visibility_threshold)
from nlocality.states import ghz_n_state
from test_network import enumerated_score


def angles_to_observables(angles):
    """Stack Bloch matrices: angles (theta, phi) pairs -> (k, 2, 2, 2)."""
    return np.array([[o.matrix() for o in pair]
                     for pair in _angles_to_bloch_pairs(angles)])


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=-1)
    for tolerance in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            OptimizerConfig(tolerance=tolerance)


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
    _, mask, root, objective = _problem(net, groupings, restricted)
    transfers = nlocal_transfers(net, NLocalSettings((), tuple(groupings)))
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


@pytest.mark.parametrize("n", [2, 4, 5, 6])
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


def test_evaluations_are_minimize_evaluations(monkeypatch):
    nfev = []

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(optimize, "minimize", counted)
    # both scores are above 1, so an early stop would show as fewer
    # restarts: only the threshold search stops early
    res = maximize_trilocal(("gghz", {"alpha": 0.5}),
                            OptimizerConfig(restarts=5, seed=2))
    assert res.score > 1.0
    assert len(nfev) == 5
    assert res.evaluations == sum(nfev)
    net = NLocalNetwork.from_states(4, [ghz_n_state(4)] * 4)
    nfev.clear()
    res = optimize.maximize_nlocal(net, OptimizerConfig(restarts=3, seed=1))
    assert res.score > 1.0
    assert len(nfev) == 3
    assert res.evaluations == sum(nfev)


def quadratic(dim, seed):
    """f(x) = x.Q x / 2 - b.x with a random positive definite Q, and its
    minimizer."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    q = m @ m.T + dim * np.eye(dim)
    b = rng.normal(size=dim)

    def fun(x):
        qx = q @ x
        return 0.5 * x @ qx - b @ x, qx - b

    return fun, np.linalg.solve(q, b)


def test_minimize_reaches_gtol_on_a_convex_quadratic():
    fun, xmin = quadratic(8, 0)
    # a tolerance of 0 leaves the gradient test as the only stop
    res = minimize(fun, np.ones(8), 2000, 0.0)
    assert np.abs(fun(res.x)[1]).max() <= 1e-5
    assert np.abs(res.x - xmin).max() <= 1e-5
    assert res.fun == fun(res.x)[0]
    assert 0 < res.nit < 100


def test_minimize_counts_every_call():
    fun, _ = quadratic(5, 1)
    calls = []

    def counted(x):
        calls.append(x.copy())
        return fun(x)

    res = minimize(counted, np.zeros(5), 2000, 1e-9)
    assert res.nfev == len(calls) > res.nit > 0


def test_minimize_stops_after_max_iterations():
    fun, _ = quadratic(6, 2)
    x0 = np.ones(6)
    res = minimize(fun, x0, 1, 1e-9)
    assert res.nit == 1
    assert res.fun < fun(x0)[0]
    assert np.abs(fun(res.x)[1]).max() > 1e-5
    assert minimize(fun, x0, 2000, 1e-9).nit > 1


def test_minimize_returns_a_zero_gradient_start_after_one_call():
    # maximally mixed sources give every I-value 0, hence a zero gradient
    net = NLocalNetwork.from_states(3, [np.eye(8) / 8] * 3)
    _, _, _, objective = _problem(net, default_nlocal_groupings(3), True)
    calls = []

    def negated(x):
        calls.append(x)
        score, grad = objective(x)
        return -score, -grad

    x0 = np.linspace(0.1, 2.0, 12)
    res = minimize(negated, x0, 2000, 1e-9)
    assert len(calls) == res.nfev == 1
    assert res.nit == 0
    assert np.array_equal(res.x, x0)
    assert res.fun == 0.0


def test_minimize_falls_back_to_steepest_descent(monkeypatch):
    # an update that flips the sign of H makes -H g an ascent direction;
    # minimize must then step along -g instead, or it could not descend
    fun, xmin = quadratic(4, 3)
    steps = []

    def flipped(ab, s, y, sy):
        steps.append(s)
        return -ab

    monkeypatch.setattr(optimize, "_bfgs_update", flipped)
    x0 = np.ones(4)
    res = minimize(fun, x0, 2000, 0.0)
    assert len(steps) == res.nit > 1
    assert np.abs(res.x - xmin).max() <= 1e-5
    x = x0
    for s in steps:
        g = fun(x)[1]
        assert s @ g <= -(1 - 1e-12) * np.linalg.norm(s) * np.linalg.norm(g)
        x = x + s


def test_importing_the_package_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(nlocality.__file__))
    code = ("import sys, nlocality, nlocality.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("target, restricted, cfg", [
    (("gghz", {"alpha": 0.2}), True, OptimizerConfig(restarts=4, seed=0)),
    (("gghz", {"alpha": 0.5}), False, OptimizerConfig(restarts=4, seed=0)),
    (2, True, OptimizerConfig(restarts=4, seed=0)),
    (4, True, OptimizerConfig(restarts=4, seed=3)),
], ids=["gghz-0.2", "gghz-0.5-local", "ghz-n2", "ghz-n4"])
def test_reported_ivalues_reproduce_the_score(target, restricted, cfg):
    # the score and the reported I table come from the same numbers, so
    # they agree exactly, not within a tolerance
    if isinstance(target, int):
        net = NLocalNetwork.from_states(target, [ghz_n_state(target)] * target)
        groupings = default_nlocal_groupings(target)
        res = maximize_nlocal(net, cfg)
    else:
        net = TrilocalNetwork.from_shared_state(family_state(*target))
        groupings = family_groupings(target[0])
        res = (maximize_trilocal if restricted else maximize_local)(target,
                                                                    cfg)
    _, mask, root, _ = _problem(net, groupings, restricted)
    assert _restricted_score(res.i_values, mask, root,
                             share_tail=restricted)[0] == res.score


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
    """Stands in for optimize._optimize with a score that is a function of
    twice the GHZ corner coherence of the noisy source, i.e. of eps for
    depolarized and of (1 - gamma)^(3/2) for damped sources.  The default,
    2^(1/3) times the coherence, crosses 1 at the closed-form thresholds.
    Each call records its score, returned angles, warm starts, stop_above,
    replacement starts and a draw from the search's start stream.  A point
    at or below 1 runs every restart and returns cfg.restarts distinct end
    angles; a point above 1 stops at its next-to-last random restart and
    returns one end fewer."""

    def __init__(self, score=lambda coherence: np.cbrt(2.0) * coherence):
        self.score = score
        self.calls = []

    def __call__(self, net, groupings, cfg, restricted, rng, extra_starts=(),
                 stop_above=None, starts=None):
        score = self.score(2 * abs(net.source_states[0][0, 7]))
        angles = np.full(12, float(len(self.calls)))
        ran = cfg.restarts if score <= 1.0 else cfg.restarts - 1
        ends = (100.0 * len(self.calls) + np.arange(ran)[:, None]
                + np.zeros(12))
        self.calls.append({"score": score, "angles": angles,
                           "warm": list(extra_starts),
                           "stop_above": stop_above, "starts": starts,
                           "ends": ends,
                           "draw": rng.uniform(size=cfg.restarts)})
        return OptimizationResult(score, None, (0, 0), (0, 0), None, angles,
                                  0, ends)


THRESHOLD_TARGETS = [("depolarized", 2.0 ** (-1 / 3)),
                     ("amplitude", 1.0 - 4.0 ** (-1 / 9)),
                     ("phase", 1.0 - 4.0 ** (-1 / 9))]


def final_bracket(res):
    half = res.bracket_width / 2
    return res.critical_value - half, res.critical_value + half


@pytest.mark.parametrize("mode", ["joint", "single"])
@pytest.mark.parametrize("family, target", THRESHOLD_TARGETS)
def test_threshold_bisects_unit_interval(monkeypatch, family, target, mode):
    stub = StubOptimizer()
    monkeypatch.setattr(optimize, "_optimize", stub)
    res = visibility_threshold(family, OptimizerConfig(restarts=2), mode)
    # on a smooth score the interpolation steps take far fewer points
    # than bisection's 2 ends and 14 halvings
    assert len(stub.calls) <= 9
    # only the side of 1 matters at any point, ends included
    assert all(call["stop_above"] == 1.0 for call in stub.calls)
    assert res.bracket_width <= 1e-4
    lo, hi = final_bracket(res)
    assert lo < target < hi
    assert res.score_below < 1.0 < res.score_above


@pytest.mark.parametrize("mode", ["joint", "single"])
@pytest.mark.parametrize("family, target", THRESHOLD_TARGETS)
def test_threshold_power_law_closes_after_two_expensive_points(
        monkeypatch, family, target, mode):
    """The stub's score is a power of the distance from the fully noisy
    end, so the log-log secant is exact: after the first inner point, one
    point lands on each side of the root and the bracket closes."""
    stub = StubOptimizer()
    monkeypatch.setattr(optimize, "_optimize", stub)
    res = visibility_threshold(family, OptimizerConfig(restarts=2), mode)
    assert len(stub.calls) <= 6
    # points at or below 1 run every restart: few of them
    assert sum(call["score"] <= 1.0 for call in stub.calls[2:]) <= 2
    assert res.bracket_width <= 1e-4
    lo, hi = final_bracket(res)
    assert lo < target < hi


@pytest.mark.parametrize("family, target", THRESHOLD_TARGETS)
def test_threshold_brackets_with_a_low_clean_end_certificate(
        monkeypatch, family, target):
    """A clean end certified at 0.8 of its maximum biases the first
    estimates; the search still brackets the root within bisection's 16
    points."""
    def score(coherence):
        scale = 0.8 if coherence > 1.0 - 1e-12 else 1.0
        return scale * np.cbrt(2.0) * coherence

    stub = StubOptimizer(score)
    monkeypatch.setattr(optimize, "_optimize", stub)
    res = visibility_threshold(family, OptimizerConfig(restarts=2))
    clean = stub.calls[1 if family == "depolarized" else 0]
    assert clean["score"] == pytest.approx(0.8 * np.cbrt(2.0))
    assert len(stub.calls) <= 16
    assert res.bracket_width <= 1e-4
    lo, hi = final_bracket(res)
    assert lo < target < hi
    assert res.score_below < 1.0 < res.score_above


# a cubic score rounds to exactly 1 within (2^-52 / 4)^(1/3) of its root
CUBIC_FLAT = (np.finfo(float).eps / 4) ** (1 / 3)


@pytest.mark.parametrize("rising", [True, False], ids=["rising", "falling"])
@pytest.mark.parametrize("shape, slack", [
    (lambda x: 1.0 if x >= 0 else -1.0, 1e-12),
    (lambda x: 4.0 * x ** 3, CUBIC_FLAT),
], ids=["step", "cubic"])
@pytest.mark.parametrize("root", [1e-3, 0.1, 1 / 3, 0.5, 2.0 ** (-1 / 3),
                                  0.9999])
def test_threshold_worst_case_points(monkeypatch, shape, slack, rising,
                                     root):
    """Scores on which interpolation gains nothing still take at most
    bisection's 16 points.  On depolarized sources the stub's coherence is
    eps itself, up to rounding."""
    sign = 1.0 if rising else -1.0
    stub = StubOptimizer(lambda eps: 1.0 + sign * shape(eps - root))
    monkeypatch.setattr(optimize, "_optimize", stub)
    res = visibility_threshold("depolarized", OptimizerConfig(restarts=1))
    assert len(stub.calls) <= 16
    assert res.bracket_width <= 1e-4
    lo, hi = final_bracket(res)
    assert lo - slack <= root <= hi + slack
    assert res.score_below <= 1.0 <= res.score_above


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


def test_threshold_points_stop_at_first_restart_above_one(monkeypatch):
    """On a real depolarized search, a point scoring above 1 ends on its
    first restart above 1, and a point at or below 1 runs every restart,
    warm start included."""
    cfg = OptimizerConfig(restarts=3, seed=5)
    real_optimize, real_minimize = optimize._optimize, optimize.minimize
    points = []

    def point(net, groupings, cfg, restricted, rng, extra_starts=(),
              stop_above=None, starts=None):
        points.append({"starts": cfg.restarts + len(extra_starts),
                       "values": []})
        res = real_optimize(net, groupings, cfg, restricted, rng,
                            extra_starts, stop_above=stop_above,
                            starts=starts)
        points[-1]["score"] = res.score
        return res

    def restart(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        points[-1]["values"].append(-res.fun)
        return res

    monkeypatch.setattr(optimize, "_optimize", point)
    monkeypatch.setattr(optimize, "minimize", restart)
    res = visibility_threshold("depolarized", cfg)
    for p in points:
        values = p["values"]
        if p["score"] > 1.0:
            assert p["score"] == values[-1]
            assert max(values[:-1], default=0.0) <= 1.0
        else:
            assert len(values) == p["starts"]
            assert p["score"] == max(values)
    # the stop saved restarts, and score_above is one of its certificates
    assert any(len(p["values"]) < p["starts"] for p in points)
    assert any(p["score"] == res.score_above for p in points)


@pytest.mark.parametrize("mode", ["joint", "single"])
@pytest.mark.parametrize("family, target", THRESHOLD_TARGETS)
def test_threshold_points_continue_from_last_full_point(monkeypatch, family,
                                                        target, mode):
    """After the one warm start, an inner point restarts from the end
    angles of the last inner point that ran every restart, and from fresh
    draws before there is one; the ends never pass theirs on."""
    stub = StubOptimizer()
    monkeypatch.setattr(optimize, "_optimize", stub)
    visibility_threshold(family, OptimizerConfig(restarts=3), mode)
    ends, midpoints = stub.calls[:2], stub.calls[2:]
    assert all(call["starts"] is None for call in ends)
    carried = None
    for call in midpoints:
        assert len(call["warm"]) == 1
        if carried is None:
            assert call["starts"] is None
        else:
            assert np.array_equal(call["starts"], carried)
        if len(call["ends"]) == 3:
            carried = call["ends"]
    # the power-law score puts 2 inner points at or below 1: the second
    # continues from the first
    below = [call for call in midpoints if call["score"] <= 1.0]
    assert len(below) == 2
    assert np.array_equal(below[1]["starts"], below[0]["ends"])


def test_multistart_runs_warm_then_given_starts_and_draws_all(monkeypatch):
    """Replacement starts run after the warm start in place of the drawn
    ones, the stream still draws cfg.restarts starts, and only the random
    restarts that ran hand back their end angles."""
    runs = []

    def fake_minimize(fun, x0, max_iterations, tolerance):
        runs.append(np.array(x0))
        value = float(x0[0])
        return optimize.MinimizeResult(x0 + 0.5, -value, 1, 0)

    monkeypatch.setattr(optimize, "minimize", fake_minimize)
    cfg = OptimizerConfig(restarts=3, seed=9)

    def objective(x):
        return 0.0, np.zeros_like(x)

    warm = np.full(4, 0.25)
    given = np.arange(12.0).reshape(3, 4) / 10
    rng, reference = (np.random.default_rng(9) for _ in range(2))
    best, x, evals, ends = optimize._multistart(objective, 4, cfg, rng,
                                                (warm,), starts=given)
    assert np.array_equal(np.array(runs), np.vstack([warm, given]))
    assert np.array_equal(ends, given + 0.5)
    assert best == 0.8 and np.array_equal(x, given[2] + 0.5)
    reference.uniform(0.0, np.pi, (3, 4))
    assert rng.random() == reference.random()
    # the stop after a restart above 0.35 leaves the third start unrun
    runs.clear()
    _, _, _, ends = optimize._multistart(objective, 4, cfg, rng, (warm,),
                                         stop_above=0.35, starts=given)
    assert len(runs) == 3
    assert np.array_equal(ends, given[:2] + 0.5)


def test_threshold_continued_point_is_cheap(monkeypatch):
    """On a real depolarized search, every point draws cfg.restarts starts
    from the stream, and the second inner point at or below 1, which
    continues from the first, takes at most half its evaluations."""
    cfg = OptimizerConfig(restarts=3, seed=5)
    real = optimize._optimize
    points = []

    def point(net, groupings, cfg_, restricted, rng, extra_starts=(),
              stop_above=None, starts=None):
        state = rng.bit_generator.state
        res = real(net, groupings, cfg_, restricted, rng, extra_starts,
                   stop_above=stop_above, starts=starts)
        replay = np.random.default_rng()
        replay.bit_generator.state = state
        replay.uniform(0.0, np.pi, (cfg_.restarts, 12))
        assert replay.bit_generator.state == rng.bit_generator.state
        points.append(res)
        return res

    monkeypatch.setattr(optimize, "_optimize", point)
    res = visibility_threshold("depolarized", cfg)
    assert abs(res.critical_value - 2.0 ** (-1 / 3)) < 1e-3
    below = [p for p in points[2:] if p.score <= 1.0]
    assert len(below) >= 2
    assert 2 * below[1].evaluations <= below[0].evaluations


def test_threshold_is_deterministic():
    cfg = OptimizerConfig(restarts=3, seed=7)
    assert (visibility_threshold("depolarized", cfg)
            == visibility_threshold("depolarized", cfg))


def test_threshold_points_draw_fresh_starts(monkeypatch):
    stub = StubOptimizer()
    monkeypatch.setattr(optimize, "_optimize", stub)
    visibility_threshold("depolarized", OptimizerConfig(restarts=3, seed=4))
    draws = {call["draw"].tobytes() for call in stub.calls}
    assert len(draws) == len(stub.calls)


def test_threshold_without_crossing_raises(monkeypatch):
    stub = StubOptimizer(lambda coherence: 0.5 * coherence)
    monkeypatch.setattr(optimize, "_optimize", stub)
    with pytest.raises(NoBracketError):
        visibility_threshold("amplitude", OptimizerConfig(restarts=2))
    assert len(stub.calls) == 2
