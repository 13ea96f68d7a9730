"""Derivative-free maximization of inequality scores and threshold search.

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
from .measurements import (BlochObservable, GHZGrouping, balanced_groupings,
                           coherent_groupings)
from .network import (NLocalSettings, SettingsBundle, TrilocalNetwork,
                      ZERO_IVALUE_TOL, nlocal_transfers, transfer_ivalues)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = np.stack([_SX, _SY, _SZ])


class NoBracketError(RuntimeError):
    """Raised when a threshold search finds no score crossing."""


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 50
    max_iterations: int = 2000
    tolerance: float = 1e-9
    seed: int = 0
    search_groupings: bool = False
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
    angles = np.asarray(angles, dtype=float).reshape(-1, 2, 2)
    theta = angles[..., 0]
    phi = angles[..., 1]
    return (np.sin(theta) * np.cos(phi))[..., None, None] * _SX \
        + (np.sin(theta) * np.sin(phi))[..., None, None] * _SY \
        + np.cos(theta)[..., None, None] * _SZ


def _restricted_score(ivals, coherent_mask, root, share_tail=True):
    """Best designed-inequality value from an I table, with its arg-max.

    ivals is indexed by the intermediate setting tuple then k; the first
    intermediate index runs over coherent_mask only, and with share_tail
    the remaining indices are shared between the two I-values of a pair.
    Without share_tail all index tuples are free (the plain score families).
    Returns (score, tuple_k0, tuple_k1).
    """
    a = np.abs(ivals)
    a = np.where(a < ZERO_IVALUE_TOL, 0.0, a)
    tuples = [t for t in itertools.product((0, 1), repeat=ivals.ndim - 1)
              if t[0] in coherent_mask]
    best, best_pair = -np.inf, None
    for t0 in tuples:
        for t1 in tuples:
            if share_tail and t0[1:] != t1[1:]:
                continue
            val = a[t0 + (0,)] ** (1.0 / root) + a[t1 + (1,)] ** (1.0 / root)
            if val > best:
                best, best_pair = val, (t0, t1)
    return (float(best),) + best_pair


def _multistart(objective, dim, cfg, extra_starts=()):
    rng = np.random.default_rng(cfg.seed)
    starts = []
    for _ in range(cfg.restarts):
        x0 = rng.uniform(0.0, np.pi, dim)
        x0[1::2] *= 2.0
        starts.append(x0)
    starts.extend(np.asarray(s, dtype=float) for s in extra_starts)
    evals = 0

    def wrapped(x):
        nonlocal evals
        evals += 1
        return -objective(x)

    best_val = best_x = None
    for x0 in starts:
        res = minimize(wrapped, x0, method="Nelder-Mead",
                       options=dict(maxiter=cfg.max_iterations,
                                    xatol=1e-8, fatol=cfg.tolerance,
                                    adaptive=dim > 12))
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


def _objective(n, transfers, coherent_mask, root, share_tail):
    """Score of 4n extreme angles for fixed n-local transfers.

    Equals the score of _restricted_score(transfer_ivalues(n, transfers,
    angles_to_observables(angles)), coherent_mask, root, share_tail), but
    evaluates the I-values on a real tensor C: the correlator is
    multilinear in the extreme Bloch vectors, so with m = (n_0 + n_1)/2 and
    d = (n_0 - n_1)/2 per party, I[y_vec, 0] is C contracted with
    m_1 x ... x m_n and I[y_vec, 1] with d_1 x ... x d_n.
    """
    # C[y_vec, i_1..i_n] = Re sum R[y_vec] * (s_i1 x ... x s_in) over the
    # Pauli matrices; the n halvings of m and d fold into C as 1/2^n,
    # exactly since it is a power of two
    t = transfers.reshape((2,) * (n - 1) + (2,) * (2 * n))
    for i in range(n):
        t = np.tensordot(t, _PAULIS, axes=([n - 1, 2 * n - 1 - i], [1, 2]))
    rows = 2 ** (n - 1)
    corr = (t.real / 2 ** n).reshape(rows, 3 ** n).T
    # I-values come out flat at k * rows + y_vec (row-major), y_vec =
    # (y_1, tail); each group holds the rows whose maxima form one pair
    tails = range(rows // 2)
    if share_tail:
        groups = [[y * len(tails) + r for y in coherent_mask] for r in tails]
    else:
        groups = [[y * len(tails) + r for y in coherent_mask for r in tails]]
    pairs = [(g, [rows + r for r in g]) for g in groups]
    inv_root = 1.0 / root
    # party i's vectors broadcast along axis 1 + i of the outer product
    slots = [(slice(None),) + (None,) * i + (slice(None),)
             + (None,) * (n - 1 - i) + (i,) for i in range(n)]

    def objective(angles):
        s = np.sin(angles)
        c = np.cos(angles)
        st = s[0::2]
        # Bloch vectors: axes (x/y/z, 2 * party + setting)
        b = np.array((st * c[1::2], st * s[1::2], c[0::2]))
        b0 = b[:, 0::2]
        b1 = b[:, 1::2]
        v = np.array((b0 + b1, b0 - b1))  # axes (k, x/y/z, party)
        prod = v[slots[0]]
        for slot in slots[1:]:
            prod = prod * v[slot]
        a = np.abs(prod.reshape(2, -1) @ corr).ravel().tolist()
        best = 0.0
        for pair in pairs:
            total = 0.0
            for group in pair:
                top = max(map(a.__getitem__, group))
                if top >= ZERO_IVALUE_TOL:
                    total += top ** inv_root
            best = max(best, total)
        return best

    return objective


def _problem(net, groupings, restricted):
    """Transfers, scored first-intermediate settings, root and objective.

    restricted selects the designed family (coherent B_1 settings, shared
    later settings, root n); otherwise every tuple is free and the root
    is 1.
    """
    n = net.n
    transfers = nlocal_transfers(net, _nlocal_settings(groupings,
                                                       np.zeros(4 * n)))
    if restricted:
        mask = [y for y in (0, 1) if groupings[0][y].is_coherent()] or [0, 1]
        root = n
    else:
        mask = [0, 1]
        root = 1
    objective = _objective(n, transfers, mask, root, restricted)
    return transfers, mask, root, objective


def _optimize(net, groupings, cfg, restricted, extra_starts=()):
    """Multistart maximization; the result's settings are left to the
    caller, which knows the scenario's settings type."""
    transfers, mask, root, objective = _problem(net, groupings, restricted)
    best, x, evals = _multistart(objective, 4 * net.n, cfg, extra_starts)
    ivals = transfer_ivalues(net.n, transfers, angles_to_observables(x))
    _, t0, t1 = _restricted_score(ivals, mask, root, share_tail=restricted)
    return OptimizationResult(best, None, t0, t1, ivals, x, evals)


def _trilocal_result(net, groupings, cfg, restricted):
    result = _optimize(net, groupings, cfg, restricted)
    return replace(result, settings=_bundle(groupings, result.angles))


def maximize_trilocal(target, cfg=None, groupings=None):
    """Maximize the designed trilocal inequality family over extreme angles.

    `target` is either a (family, params) pair or a role-ordered source
    state shared by the three sources.  With search_groupings enabled, a
    coordinate search over grouping candidates re-optimizes angles per
    candidate (coherence groupings for B, balanced for C).
    """
    cfg = cfg or OptimizerConfig()
    net, groupings = _resolve_trilocal(target, groupings)
    result = _trilocal_result(net, groupings, cfg, restricted=True)
    if not cfg.search_groupings:
        return result
    inner = replace(cfg, restarts=max(4, cfg.restarts // 8),
                    search_groupings=False)
    b_cands = coherent_groupings()
    c_cands = balanced_groupings()
    current = [list(groupings[0]), list(groupings[1])]
    for side, cands in ((0, b_cands), (1, c_cands)):
        for slot in (0, 1):
            for cand in cands:
                trial = [tuple(current[0]), tuple(current[1])]
                trial_side = list(trial[side])
                trial_side[slot] = cand
                trial[side] = tuple(trial_side)
                r = _trilocal_result(net, tuple(trial), inner, restricted=True)
                if r.score > result.score + 1e-9:
                    result = r
                    current[side][slot] = cand
    final = _trilocal_result(net, (tuple(current[0]), tuple(current[1])),
                             cfg, restricted=True)
    return final if final.score >= result.score else result


def maximize_local(target, cfg=None, groupings=None):
    """Maximize the local score |I| + |J| over all 16 tuples (unrestricted)."""
    cfg = cfg or OptimizerConfig()
    net, groupings = _resolve_trilocal(target, groupings)
    return _trilocal_result(net, groupings, cfg, restricted=False)


_THRESHOLD_FAMILIES = {
    "depolarized": "epsilon",
    "amplitude": "gamma",
    "phase": "gamma",
}


def _threshold_states(family, value, mode):
    if mode == "joint":
        state = families.family_state(family, {_THRESHOLD_FAMILIES[family]:
                                               value})
        return (state, state, state)
    if mode != "single":
        raise ValueError("mode must be 'joint' or 'single'")
    noisy = families.family_state(family, {_THRESHOLD_FAMILIES[family]: value})
    clean_value = 1.0 if family == "depolarized" else 0.0
    clean = families.family_state(family, {_THRESHOLD_FAMILIES[family]:
                                           clean_value})
    return (noisy, clean, clean)


def visibility_threshold(family, cfg=None, mode="joint", grid_points=9):
    """Bisection for the noise parameter where the optimized score crosses 1.

    Returns a ThresholdResult with bracket width at most 1e-4; raises
    NoBracketError when the coarse grid shows no crossing.
    """
    cfg = cfg or OptimizerConfig()
    if family not in _THRESHOLD_FAMILIES:
        raise ValueError("no threshold family %r" % family)
    parameter = _THRESHOLD_FAMILIES[family]
    groupings = families.family_groupings(family)

    warm = []

    def score_at(value):
        states = _threshold_states(family, value, mode)
        net = TrilocalNetwork.from_role_states(*states)
        result = _optimize(net, groupings, cfg, restricted=True,
                           extra_starts=tuple(warm))
        warm[:] = [result.angles]
        return result.score

    grid = np.linspace(0.0, 1.0, grid_points)
    scores = [score_at(v) for v in grid]
    lo = hi = None
    for a, b, sa, sb in zip(grid, grid[1:], scores, scores[1:]):
        if (sa - 1.0) * (sb - 1.0) <= 0 and sa != sb:
            lo, hi, s_lo, s_hi = a, b, sa, sb
            break
    if lo is None:
        raise NoBracketError("no score crossing of 1 found for %s" % family)
    while hi - lo > 1e-4:
        mid = (lo + hi) / 2
        sm = score_at(mid)
        if (s_lo - 1.0) * (sm - 1.0) <= 0:
            hi, s_hi = mid, sm
        else:
            lo, s_lo = mid, sm
    critical = (lo + hi) / 2
    below, above = (s_lo, s_hi) if s_lo <= s_hi else (s_hi, s_lo)
    return ThresholdResult(parameter, float(critical), float(hi - lo),
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
    result = _optimize(net, groupings, cfg, restricted=True)
    return replace(result, settings=_nlocal_settings(groupings, result.angles))
