"""Gradient-based maximization of inequality scores and threshold search.

The trilocal optimizer maximizes the designed inequality family: scored
I-value pairs share the C setting (general n: all intermediate settings
after the first coincide), and only coherence groupings of the first
intermediate party enter the scored pairs.  This is the family whose
maxima the closed-form bounds describe; the plain behavior scores in the
network module remain unrestricted.  `maximize_local` is unrestricted.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import families
from .measurements import BlochObservable, GHZGrouping
from .network import (NLocalSettings, SettingsBundle, TrilocalNetwork,
                      ZERO_IVALUE_TOL, _best_pair, _grouping_terms,
                      _pair_structure, _pauli_table, _restricted_score)


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
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class OptimizationResult:
    score: float
    settings: object
    tuple_k0: tuple
    tuple_k1: tuple
    i_values: np.ndarray
    angles: np.ndarray
    evaluations: int
    # end angles of the random restarts that ran, one row each
    restart_ends: np.ndarray = ()


@dataclass(frozen=True)
class ThresholdResult:
    parameter: str
    critical_value: float
    bracket_width: float
    score_below: float
    score_above: float


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    fun: float
    nfev: int    # calls of fun
    nit: int     # iterations that moved x


def _line_search(fun, x, f, g, d, step):
    """Step t along the descent direction d from (x, f, g) with a value
    below f + c1 t g.d and, where the search finds one within 20 trials,
    |slope| <= -c2 g.d (strong Wolfe, c1 = 1e-4, c2 = 0.9).  Steps
    quadruple until a bracket is found; then each trial is the minimizer
    of the cubic through the values and slopes at the bracket's ends,
    kept inside its middle 80 %.

    Returns (t, value, gradient, calls of fun); t is 0 where no trial
    lowered the value.
    """
    c1, c2 = 1e-4, 0.9
    slope0 = float(g @ d)
    lo = (0.0, f, g, slope0)
    hi = None
    t = step
    for calls in range(1, 21):
        ft, gt = fun(x + t * d)
        st = float(gt @ d)
        if ft > f + c1 * t * slope0 or ft >= lo[1]:
            hi = (t, ft, gt, st)
        elif abs(st) <= -c2 * slope0:
            return t, ft, gt, calls
        else:
            if st >= 0 if hi is None else st * (hi[0] - t) >= 0:
                hi = lo
            lo = (t, ft, gt, st)
        if hi is None:
            t *= 4.0
            continue
        (a, fa, _, sa), (b, fb, _, sb) = lo, hi
        width = abs(b - a)
        if width <= 1e-12 * max(a, b):
            break
        d1 = sa + sb - 3.0 * (fa - fb) / (a - b)
        d2 = math.copysign(math.sqrt(max(d1 * d1 - sa * sb, 0.0)), b - a)
        denom = sb - sa + 2.0 * d2
        t = b - (b - a) * (sb + d2 - d1) / denom if denom else (a + b) / 2
        t = min(max(t, min(a, b) + 0.1 * width), max(a, b) - 0.1 * width)
    return lo[0], lo[1], lo[2], calls


def minimize(fun, x0, max_iterations, tolerance, gtol=1e-5):
    """BFGS minimum of fun, which returns (value, gradient), from x0.

    Each iteration runs _line_search along -H g, H the BFGS inverse
    Hessian of the steps so far grown from gamma I.  H is affine in
    gamma, so it is kept as gamma A + B and every step rescales it by its
    own gamma = s.y / y.y, as L-BFGS does.  The first step, and any step
    where -H g is not a descent direction, is steepest descent of length
    at most 1.  Stops when no gradient entry exceeds gtol, after
    max_iterations iterations, when the line search lowers nothing, or
    after an iteration whose decrease is at most tolerance * max(|f|,
    |f_new|, 1).
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nfev, nit = 1, 0
    ab = gamma = None
    while nit < max_iterations and np.abs(g).max() > gtol:
        if ab is not None:
            ag, bg = ab @ g
            d = -(gamma * ag + bg)
            step = 1.0
        if ab is None or g @ d >= 0:
            ab = None
            d = -g
            step = min(1.0, 1.0 / math.sqrt(g @ g))
        t, f_new, g_new, calls = _line_search(fun, x, f, g, d, step)
        nfev += calls
        if t == 0.0:
            break
        nit += 1
        converged = f - f_new <= tolerance * max(abs(f), abs(f_new), 1.0)
        s = t * d
        y = g_new - g
        x = x + s
        f, g = f_new, g_new
        if converged:
            break
        sy = s @ y
        if sy > 0:
            if ab is None:
                ab = np.array([np.eye(x.size), np.zeros((x.size, x.size))])
            ab = _bfgs_update(ab, s, y, sy)
            gamma = sy / (y @ y)
    return MinimizeResult(x, float(f), nfev, nit)


def _bfgs_update(ab, s, y, sy):
    """BFGS update H' = V^T H V + s s^T / sy, V = I - y s^T / sy, of both
    parts of H = gamma A + B (ab stacks A, B); only B takes s s^T / sy."""
    v = np.eye(s.size) - (y / sy)[:, None] * s
    out = v.T @ ab @ v
    out[1] += (s / sy)[:, None] * s
    return out


def _multistart(objective, dim, cfg, rng, extra_starts=(), stop_above=None,
                starts=None):
    """Best maximum of objective over one minimize run on its negation
    from each of the extra starts and then from each of cfg.restarts
    random starts: the given starts, or else starts drawn from rng (theta
    in [0, pi), phi in [0, 2 pi)).  rng draws cfg.restarts starts either
    way, so it advances the same.

    With stop_above set, returns right after the first restart that lifts
    the best value strictly above it: such a value already settles which
    side of stop_above the full maximum lies on.

    objective returns (score, gradient); evals counts its calls, the total
    of the restarts' nfev.  Returns (best value, its angles, evals, ends),
    ends the end angles of the random restarts that ran, one row each.
    """
    drawn = rng.uniform(0.0, np.pi, (cfg.restarts, dim))
    drawn[:, 1::2] *= 2.0
    if starts is None:
        starts = drawn
    first = [np.asarray(s, dtype=float) for s in extra_starts]
    evals = 0

    def wrapped(x):
        nonlocal evals
        evals += 1
        score, grad = objective(x)
        return -score, -grad

    best_val = best_x = None
    ends = []
    for i, x0 in enumerate(first + list(starts)):
        res = minimize(wrapped, x0, cfg.max_iterations, cfg.tolerance)
        if i >= len(first):
            ends.append(res.x)
        if best_x is None or -res.fun > best_val + 1e-15:
            best_val, best_x = -res.fun, res.x
        if stop_above is not None and best_val > stop_above:
            break
    return best_val, best_x, evals, np.reshape(ends, (-1, dim))


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
    table = _pauli_table(net, [[_grouping_terms(g) for g in pair]
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


@functools.lru_cache(maxsize=None)
def _gradient_index(n):
    """Index tables (flat_at, rest_at) of the gradient for n parties.

    dI/dv_p is C contracted with every party but p.  For each p and each
    digit tuple j of the other parties: flat_at[p, i, j] is the index of
    the outer product with digit i inserted at p, and rest_at[p, j] are
    the flat (x/y/z, party) entries of v whose product is term j.  Both
    depend on n only and are shared read-only.
    """
    rest = np.array(list(itertools.product(range(3), repeat=n - 1)))
    place = 3 ** np.arange(n - 1, -1, -1)
    others = np.array([[q for q in range(n) if q != p] for p in range(n)])
    flat_at = np.array([np.arange(3)[:, None] * place[p]
                        + rest @ place[others[p]] for p in range(n)])
    rest_at = rest[None] * n + others[:, None, :]
    for table in (flat_at, rest_at):
        table.flags.writeable = False
    return flat_at, rest_at


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
    flat_at, rest_at = _gradient_index(n)

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


def _optimize(net, groupings, cfg, restricted, rng, extra_starts=(),
              stop_above=None, starts=None):
    """Multistart maximization; the result's settings are left to the
    caller, which knows the scenario's settings type.  rng is the start
    stream of the calling search, created once from cfg.seed; extra_starts,
    stop_above and starts are passed to _multistart, and its restarts' end
    angles come back as restart_ends."""
    corr, mask, root, objective = _problem(net, groupings, restricted)
    best, x, evals, ends = _multistart(objective, 4 * net.n, cfg, rng,
                                       extra_starts, stop_above, starts)
    ivals = _ivalues(corr, x)[0].reshape((2,) * net.n)
    _, t0, t1 = _restricted_score(ivals, mask, root, share_tail=restricted)
    return OptimizationResult(best, None, t0, t1, ivals, x, evals, ends)


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


def _power_law_root(logs):
    """Distance x from the fully noisy end at which the line through the
    last two (log x, log score) points of logs reaches score 1, or None
    where that line is flat or crosses 1 beyond x = 1."""
    if len(logs) < 2:
        return None
    (u1, v1), (u2, v2) = logs[-2:]
    if u1 == u2 or v1 == v2:
        return None
    u = u1 - v1 * (u2 - u1) / (v2 - v1)
    return math.exp(u) if u < 0.0 else None


def visibility_threshold(family, cfg=None, mode="joint"):
    """ITP-style search of [0, 1] for the noise parameter where the
    optimized score crosses 1 (estimate, offset, project: Oliveira and
    Takahashi, ACM TOMS 47(1), 2020).

    Noise acts on all three sources ("joint") or on the first only
    ("single").  Both ends are scored first and must straddle 1, else
    NoBracketError.  Each family's optimized score is a constant times a
    power of the distance x from the fully noisy end (x = eps or 1 - gamma:
    x^1 depolarized and x^(3/2) damped in joint mode, x^(1/3) and x^(1/2)
    in single mode), so each new point is first estimated by the secant of
    log score against log x through the two newest points with a positive
    score, clean end included; where that secant is undefined or its root
    falls outside the bracket, by the regula-falsi root of the bracket
    ends' scores minus 1.  The first inner point moves the estimate
    0.2 * width^2 toward the midpoint, as ITP truncates; every later point
    moves it 0.45e-4, just under half the final width, so an accurate
    estimate puts one point on each side of the root and the bracket
    closes after them.  The point is then projected into a window around
    the midpoint that shrinks as bisection's would, so the search never
    takes more points than bisection (2 ends and 14 inner points); on the
    depolarized and damped sources it takes 5 or 6, of which 2 inner
    points score at most 1.

    Only the side of 1 matters, so every point, ends included, stops at
    its first restart scoring above 1; a point at or below 1 runs every
    restart.  Each inner point first restarts from the angles at the
    bracket end whose score is above 1, then from cfg.restarts random
    starts.  Up to the first inner point that runs every restart, these
    are drawn from one stream seeded with cfg.seed.  Every later inner
    point continues instead from where the random restarts of the last
    inner point that ran every restart ended: those restarts converged on
    a landscape only a noise step away, so a continued restart takes a few
    evaluations where a fresh one takes 10-21.  Every point still draws
    cfg.restarts starts from the stream, so where the stream stands at a
    point does not depend on where earlier points stopped.

    Returns a ThresholdResult with bracket width at most 1e-4: score_below
    is the best score at the bracket's end at or below 1, score_above the
    first score above 1 found at its other end, which certifies the
    violation but need not be the best score there.
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

    def optimum(value, warm=(), starts=None):
        noisy = families.family_state(family, {parameter: value})
        other = noisy if mode == "joint" else clean
        net = TrilocalNetwork.from_role_states(noisy, other, other)
        return _optimize(net, groupings, cfg, True, rng, warm,
                         stop_above=1.0, starts=starts)

    lo, hi = 0.0, 1.0
    r_lo, r_hi = optimum(lo), optimum(hi)
    if ((r_lo.score - 1.0) * (r_hi.score - 1.0) > 0
            or r_lo.score == r_hi.score):
        raise NoBracketError("no score crossing of 1 found for %s" % family)
    # eps sits just below half the final width: at exactly 5e-5, rounding
    # can leave the width a hair above 1e-4 and cost one more point
    eps = 0.999 * 1e-4 / 2
    n_max = math.ceil(math.log2((hi - lo) / (2 * eps)))
    # the parameter is noisy_end + (clean_value - noisy_end) * x
    noisy_end = 1.0 - clean_value
    logs = []

    def record(value, r):
        if value != noisy_end and r.score > 0.0:
            logs.append((math.log(abs(value - noisy_end)), math.log(r.score)))

    record(lo, r_lo)
    record(hi, r_hi)
    # random starts of the next inner point: the end angles of the last
    # inner point that ran every restart, or fresh draws before there is one
    carried = None
    j = 0
    while hi - lo > 1e-4:
        width, mid = hi - lo, (lo + hi) / 2
        x = _power_law_root(logs)
        if x is not None:
            x = noisy_end + (clean_value - noisy_end) * x
        if x is None or not lo < x < hi:
            # regula falsi; equal end scores straddle 1 only if both are 1
            f_lo, f_hi = r_lo.score - 1.0, r_hi.score - 1.0
            x = ((hi * f_lo - lo * f_hi) / (f_lo - f_hi) if f_lo != f_hi
                 else mid)
        # offset toward the midpoint
        toward_mid = math.copysign(1.0, mid - x)
        delta = 0.2 * width ** 2 if j == 0 else 0.45e-4
        x = x + toward_mid * delta if delta <= abs(mid - x) else mid
        # project into the window about the midpoint that keeps the next
        # width at most 2 eps 2^(n_max - j - 1), a bound bisection meets
        radius = eps * 2.0 ** (n_max - j) - width / 2
        if abs(x - mid) > radius:
            x = mid - toward_mid * radius
        violating = max(r_lo, r_hi, key=lambda r: r.score)
        r_x = optimum(x, (violating.angles,), carried)
        if len(r_x.restart_ends) == cfg.restarts:
            carried = r_x.restart_ends
        record(x, r_x)
        if (r_lo.score - 1.0) * (r_x.score - 1.0) <= 0:
            hi, r_hi = x, r_x
        else:
            lo, r_lo = x, r_x
        j += 1
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
