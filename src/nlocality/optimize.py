"""Gradient-based maximization of inequality scores and threshold search.

The trilocal optimizer maximizes the designed inequality family: scored
I-value pairs share the C setting (general n: all intermediate settings
after the first coincide), and only coherence groupings of the first
intermediate party enter the scored pairs.  This is the family whose
maxima the closed-form bounds describe; the plain behavior scores in the
network module remain unrestricted.  `maximize_local` is unrestricted.
"""

import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from . import families
from .measurements import BlochObservable, GHZGrouping, partial_ghz_observable
from .network import (NLocalSettings, SettingsBundle, TrilocalNetwork,
                      ZERO_IVALUE_TOL, _best_pair, _pair_structure,
                      _pauli_table, _restricted_score)


class NoBracketError(RuntimeError):
    """Raised when a threshold search finds no score crossing."""


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 50
    max_iterations: int = 2000
    tolerance: float = 1e-9
    seed: int = 0
    # accepted for configuration compatibility and ignored: restarts run
    # serially, since threads do not speed up these small numpy calls
    workers: int = 1

    def __post_init__(self):
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValueError("restarts and max_iterations must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class OptimizationResult:
    score: float
    settings: object
    tuple_k0: tuple
    tuple_k1: tuple
    i_values: np.ndarray
    angles: np.ndarray
    evaluations: int


@dataclass(frozen=True)
class ThresholdResult:
    parameter: str
    critical_value: float
    bracket_width: float
    score_below: float
    score_above: float


def angles_to_observables(angles):
    """Stack Bloch matrices: angles (theta, phi) pairs -> (k, 2, 2, 2)."""
    return np.array([[o.matrix() for o in pair]
                     for pair in _angles_to_bloch_pairs(angles)])


def _multistart(objective, dim, cfg, rng, extra_starts=()):
    """Best L-BFGS-B maximum from cfg.restarts starts drawn from rng
    (theta in [0, pi), phi in [0, 2 pi)) and then the extra starts.

    objective returns (score, gradient); evals counts its calls, one per
    scipy function evaluation.
    """
    starts = rng.uniform(0.0, np.pi, (cfg.restarts, dim))
    starts[:, 1::2] *= 2.0
    starts = list(starts) + [np.asarray(s, dtype=float) for s in extra_starts]
    evals = 0

    def wrapped(x):
        nonlocal evals
        evals += 1
        score, grad = objective(x)
        return -score, -grad

    best_val = best_x = None
    for x0 in starts:
        res = minimize(wrapped, x0, jac=True, method="L-BFGS-B",
                       options=dict(maxiter=cfg.max_iterations,
                                    ftol=cfg.tolerance))
        if best_x is None or -res.fun > best_val + 1e-15:
            best_val, best_x = -res.fun, res.x
    return best_val, best_x, evals


def _angles_to_bloch_pairs(angles):
    angles = np.asarray(angles, dtype=float).reshape(-1, 2, 2)
    return [tuple(BlochObservable(float(t), float(p)) for t, p in party)
            for party in angles]


def _resolve_trilocal(target, groupings):
    """Accept a family point (name, params) or a role-ordered state."""
    if isinstance(target, tuple) and isinstance(target[0], str):
        name, params = target
        state = families.family_state(name, dict(params))
        if groupings is None:
            groupings = families.family_groupings(name)
    else:
        state = target
        if groupings is None:
            groupings = families.family_groupings("gghz")
    net = TrilocalNetwork.from_shared_state(state)
    return net, groupings


def _bundle(groupings, angles):
    pairs = _angles_to_bloch_pairs(angles)
    (b_pair, c_pair) = groupings
    return SettingsBundle(a=pairs[0], b=tuple(b_pair), c=tuple(c_pair),
                          d=pairs[1], t=pairs[2])


def _nlocal_settings(groupings, angles):
    return NLocalSettings(extremes=tuple(_angles_to_bloch_pairs(angles)),
                          intermediates=tuple(tuple(p) for p in groupings))


def _correlations(net, groupings):
    """C[i_1..i_n, y_vec], flattened to (3^n, 2^(n-1)): the X, Y, Z
    coordinates of the _pauli_table of the intermediate groupings, / 2^n.

    The correlator is multilinear in the extreme Bloch vectors, so with
    m = (n_0 + n_1)/2 and d = (n_0 - n_1)/2 per party, I[y_vec, 0] is the
    table contracted with m_1 x ... x m_n and I[y_vec, 1] with d_1 x ... x
    d_n; C takes the n halvings, exactly since 2^n is a power of two.
    """
    n = net.n
    table = _pauli_table(net, [[partial_ghz_observable(g) for g in pair]
                               for pair in groupings])
    xyz = table[(Ellipsis,) + (slice(1, None),) * n] / 2 ** n
    return xyz.reshape(2 ** (n - 1), 3 ** n).T


def _ivalues(corr, angles):
    """The I table of 4n extreme angles (theta, phi per party and setting)
    on _correlations corr, as I[y, k] with rows y numbering y_vec
    row-major; also the vectors v[k] = n_0 +- n_1, axes (k, x/y/z, party),
    and the sines and cosines of theta and phi, which the gradient reuses.
    """
    s = np.sin(angles)
    c = np.cos(angles)
    st, ct = s[0::2], c[0::2]
    sp, cp = s[1::2], c[1::2]
    # Bloch vectors: axes (x/y/z, 2 * party + setting)
    b = np.array((st * cp, st * sp, ct))
    b0 = b[:, 0::2]
    b1 = b[:, 1::2]
    v = np.array((b0 + b1, b0 - b1))
    # outer product over the parties, A_1 the most significant digit
    prod = v[:, :, 0]
    for i in range(1, v.shape[2]):
        prod = (prod[:, :, None] * v[:, None, :, i]).reshape(2, -1)
    return (prod @ corr).T, v, (st, ct, sp, cp)


def _objective(n, corr, coherent_mask, root, share_tail):
    """Score of 4n extreme angles on _correlations corr, with its gradient
    in the angles: _restricted_score of their _ivalues.

    The score is the largest of finitely many smooth pieces, one per
    scored pair of I-values.  The gradient is that of the pair _best_pair
    picks, so it is exact wherever the winner is unique; I-values below
    ZERO_IVALUE_TOL contribute nothing to it.
    """
    rows = corr.shape[1]
    pairs = _pair_structure(rows, coherent_mask, share_tail)
    inv_root = 1.0 / root
    # dI/dv_p is C contracted with every party but p.  For each p and each
    # digit tuple j of the other parties: flat_at[p, i, j] is the index of
    # the outer product with digit i inserted at p, and rest_at[p, j] are
    # the flat (x/y/z, party) entries of v whose product is term j
    rest = np.array(list(itertools.product(range(3), repeat=n - 1)))
    place = 3 ** np.arange(n - 1, -1, -1)
    others = np.array([[q for q in range(n) if q != p] for p in range(n)])
    flat_at = np.array([np.arange(3)[:, None] * place[p]
                        + rest @ place[others[p]] for p in range(n)])
    rest_at = rest[None] * n + others[:, None, :]

    def objective(angles):
        ivals, v, (st, ct, sp, cp) = _ivalues(corr, angles)
        a = np.abs(ivals).T.tolist()
        best, y0, y1 = _best_pair(a[0], a[1], pairs, root)
        winners = [(k, y) for k, y in ((0, y0), (1, y1))
                   if a[k][y] >= ZERO_IVALUE_TOL]
        if not winners:
            return best, np.zeros(4 * n)
        # d|I|^(1/root)/dI at the winning I-values, back to the outer
        # product, then to each party's vectors
        w = np.zeros((2, rows))
        for k, y in winners:
            slope = inv_root * a[k][y] ** (inv_root - 1.0)
            w[k, y] = slope if ivals[y, k] > 0 else -slope
        g = w @ corr.T
        rest_prod = v.reshape(2, -1).take(rest_at, axis=1).prod(axis=-1)
        dv = (g.take(flat_at, axis=1) @ rest_prod[..., None])[..., 0]
        # v = b_0 +- b_1, then the Bloch vectors' derivatives in theta, phi
        db = np.empty((3, 2 * n))
        db[:, 0::2] = (dv[0] + dv[1]).T
        db[:, 1::2] = (dv[0] - dv[1]).T
        grad = np.empty(4 * n)
        grad[0::2] = (db[0] * cp + db[1] * sp) * ct - db[2] * st
        grad[1::2] = (db[1] * cp - db[0] * sp) * st
        return best, grad

    return objective


def _problem(net, groupings, restricted):
    """Correlations, scored first-intermediate settings, root, objective.

    restricted selects the designed family (coherent B_1 settings, shared
    later settings, root n); otherwise every tuple is free and the root
    is 1.
    """
    corr = _correlations(net, groupings)
    if restricted:
        mask = [y for y in (0, 1) if groupings[0][y].is_coherent()] or [0, 1]
        root = net.n
    else:
        mask = [0, 1]
        root = 1
    return corr, mask, root, _objective(net.n, corr, mask, root, restricted)


def _optimize(net, groupings, cfg, restricted, rng, extra_starts=()):
    """Multistart maximization; the result's settings are left to the
    caller, which knows the scenario's settings type.  rng is the start
    stream of the calling search, created once from cfg.seed."""
    corr, mask, root, objective = _problem(net, groupings, restricted)
    best, x, evals = _multistart(objective, 4 * net.n, cfg, rng,
                                 extra_starts)
    ivals = _ivalues(corr, x)[0].reshape((2,) * net.n)
    _, t0, t1 = _restricted_score(ivals, mask, root, share_tail=restricted)
    return OptimizationResult(best, None, t0, t1, ivals, x, evals)


def maximize_trilocal(target, cfg=None, groupings=None):
    """Maximize the designed trilocal inequality family over extreme angles.

    `target` is either a (family, params) pair or a role-ordered source
    state shared by the three sources.
    """
    cfg = cfg or OptimizerConfig()
    net, groupings = _resolve_trilocal(target, groupings)
    result = _optimize(net, groupings, cfg, True,
                       np.random.default_rng(cfg.seed))
    return replace(result, settings=_bundle(groupings, result.angles))


def maximize_local(target, cfg=None, groupings=None):
    """Maximize the local score |I| + |J| over all 16 tuples (unrestricted)."""
    cfg = cfg or OptimizerConfig()
    net, groupings = _resolve_trilocal(target, groupings)
    result = _optimize(net, groupings, cfg, False,
                       np.random.default_rng(cfg.seed))
    return replace(result, settings=_bundle(groupings, result.angles))


# family: (noise parameter, its noiseless value)
_THRESHOLD_FAMILIES = {
    "depolarized": ("epsilon", 1.0),
    "amplitude": ("gamma", 0.0),
    "phase": ("gamma", 0.0),
}


def visibility_threshold(family, cfg=None, mode="joint"):
    """Bisection of [0, 1] for the noise parameter where the optimized
    score crosses 1.

    Noise acts on all three sources ("joint") or on the first only
    ("single").  Both ends are scored first and must straddle 1, else
    NoBracketError; each midpoint is warm-started from the optimal angles
    at the bracket end whose score is above 1, and all points draw their
    random starts from one stream seeded with cfg.seed.  Returns a
    ThresholdResult with bracket width at most 1e-4.
    """
    cfg = cfg or OptimizerConfig()
    if family not in _THRESHOLD_FAMILIES:
        raise ValueError("no threshold family %r" % family)
    if mode not in ("joint", "single"):
        raise ValueError("mode must be 'joint' or 'single'")
    parameter, clean_value = _THRESHOLD_FAMILIES[family]
    groupings = families.family_groupings(family)
    clean = families.family_state(family, {parameter: clean_value})
    rng = np.random.default_rng(cfg.seed)

    def optimum(value, warm=()):
        noisy = families.family_state(family, {parameter: value})
        other = noisy if mode == "joint" else clean
        net = TrilocalNetwork.from_role_states(noisy, other, other)
        return _optimize(net, groupings, cfg, True, rng, warm)

    lo, hi = 0.0, 1.0
    r_lo, r_hi = optimum(lo), optimum(hi)
    if ((r_lo.score - 1.0) * (r_hi.score - 1.0) > 0
            or r_lo.score == r_hi.score):
        raise NoBracketError("no score crossing of 1 found for %s" % family)
    while hi - lo > 1e-4:
        mid = (lo + hi) / 2
        violating = max(r_lo, r_hi, key=lambda r: r.score)
        r_mid = optimum(mid, (violating.angles,))
        if (r_lo.score - 1.0) * (r_mid.score - 1.0) <= 0:
            hi, r_hi = mid, r_mid
        else:
            lo, r_lo = mid, r_mid
    below, above = sorted((r_lo.score, r_hi.score))
    return ThresholdResult(parameter, (lo + hi) / 2, hi - lo,
                           float(below), float(above))


# ---------------------------------------------------------------------------
# n-local optimization


def default_nlocal_groupings(n):
    """Default grouping pairs for the n-1 intermediates."""
    if n == 3:
        (b_pair, c_pair) = families.family_groupings("gghz")
        return (b_pair, c_pair)
    flips = list(itertools.product((0, 1), repeat=n - 1))
    all_plus = GHZGrouping(frozenset((0,) + f for f in flips), n)
    parity = GHZGrouping(frozenset((sum(f) % 2,) + f for f in flips), n)
    return tuple((all_plus, parity) for _ in range(n - 1))


def maximize_nlocal(net, cfg=None, groupings=None):
    """Maximize the designed n-local inequality family for a network."""
    cfg = cfg or OptimizerConfig()
    if groupings is None:
        groupings = default_nlocal_groupings(net.n)
    result = _optimize(net, groupings, cfg, True,
                       np.random.default_rng(cfg.seed))
    return replace(result, settings=_nlocal_settings(groupings, result.angles))
