"""Output checks of the benchmark, computed apart from the program.

Every check raises CheckError with a message when the value it is given is
wrong and returns None otherwise.  Reference values (closed forms, exact
scalings, probability rules) are computed here with numpy alone, never by
calling nlocality.
"""

import numpy as np

# Tolerances.  The closed forms are matched to 1e-4 at the CLI default of 50
# restarts and to 1e-3 at fewer; no optimizer may ever exceed a true maximum
# by more than rounding.
CLOSED_FORM_TOL_FULL = 1e-4
CLOSED_FORM_TOL = 1e-3
ABOVE_MAX_SLACK = 1e-9
SCORE_RECOMPUTE_TOL = 1e-9
LOCAL_BOUND_SLACK = 1e-6
THRESHOLD_TOL = 1e-3
BRACKET_WIDTH_MAX = 1e-4
THRESHOLD_SCORE_SLACK = 1e-6
PROBABILITY_TOL = 1e-12
ENGINE_AGREEMENT_TOL = 1e-12
SCALING_TOL = 1e-13
SWAP_SUM_TOL = 1e-9
DENSITY_TOL = 1e-12
LHV_TOL = 1e-12
ZERO_IVALUE = 1e-14

# n-local party order (A1, A2, A3, B1, B2) against the trilocal order
# (A, B, C, D, T)
TRILOCAL_TO_NLOCAL = (0, 3, 4, 1, 2)

DEPOLARIZED_THRESHOLD = 2.0 ** (-1 / 3)
DAMPING_THRESHOLD = 1.0 - 4.0 ** (-1 / 9)


class CheckError(AssertionError):
    """An output of the program is not what the check requires."""


def _fail(fmt, *args):
    raise CheckError(fmt % args)


# ---------------------------------------------------------------------------
# closed forms


def gghz_bound(alpha):
    """Trilocal maximum 2^(1/3) sin 2 alpha of the gGHZ family."""
    return 2.0 ** (1 / 3) * np.sin(2 * alpha)


def biseparable_bound(eta, sigma1):
    """Trilocal maximum of the biseparable family with sigma2 >= 0."""
    sigma2 = np.sqrt(1.0 - sigma1 * sigma1)
    q = abs(sigma1 * sigma2)
    sin2 = np.sin(2 * eta)
    return max(2.0 ** (4 / 3) * q * sin2,
               sin2 * (2.0 * abs(1.0 - 6.0 * q * q)) ** (1 / 3))


def ghz_symmetric_bound(p1):
    """Trilocal maximum 16^(1/3) |p1| of the GHZ-symmetric family."""
    return 16.0 ** (1 / 3) * abs(p1)


def ghz_nlocal_bound(n):
    """n-local maximum on GHZ sources: sqrt 2 for n = 2, 2^(1/3) for 3."""
    return {2: np.sqrt(2.0), 3: 2.0 ** (1 / 3)}[n]


# ---------------------------------------------------------------------------
# optimizer outputs


def check_score(score, bound, tol):
    """An optimized score matches its closed form and never exceeds it."""
    if not np.isfinite(score):
        _fail("score %r is not finite", score)
    if score > bound + ABOVE_MAX_SLACK:
        _fail("score %.15g exceeds its maximum %.15g", score, bound)
    if abs(score - bound) > tol:
        _fail("score %.15g is %.3g from its maximum %.15g (tolerance %g)",
              score, abs(score - bound), bound, tol)


def ivalue_array(rows):
    """I[i1, i2, k] from the report's list of {i1, i2, k, value} rows."""
    table = np.full((2, 2, 2), np.nan)
    for row in rows:
        table[row["i1"], row["i2"], row["k"]] = row["value"]
    if np.isnan(table).any():
        _fail("report lacks some of the 8 I-values")
    return table


def check_score_from_ivalues(score, table, argmax, root=3):
    """score = |I[t0, 0]|^(1/root) + |I[t1, 1]|^(1/root) at argmax (t0, t1)."""
    t0, t1 = (tuple(t) for t in argmax)
    recomputed = (abs(table[t0 + (0,)]) ** (1 / root)
                  + abs(table[t1 + (1,)]) ** (1 / root))
    if abs(recomputed - score) > SCORE_RECOMPUTE_TOL:
        _fail("score %.15g but the I-values at %s give %.15g", score,
              (t0, t1), recomputed)


def best_pair_score(table, root):
    """max |I[..., 0]|^(1/root) + max |I[..., 1]|^(1/root) over all tuples.

    As in the program's scores, |I| below ZERO_IVALUE counts as an exact
    zero, so that a rounding residue is not raised to the power 1/root.
    """
    a = np.abs(np.asarray(table))
    a = np.where(a < ZERO_IVALUE, 0.0, a)
    return a[..., 0].max() ** (1 / root) + a[..., 1].max() ** (1 / root)


def check_equal(name, value, expected, tol):
    if not abs(value - expected) <= tol:
        _fail("%s is %.15g, expected %.15g (tolerance %g)", name, value,
              expected, tol)


def check_local_bound(score):
    """A local score never exceeds the local bound 1."""
    if not score <= 1.0 + LOCAL_BOUND_SLACK:
        _fail("local score %.15g exceeds 1", score)


def check_ivalue_range(table):
    """Every I-value is an average of correlators, so |I| <= 1."""
    worst = float(np.max(np.abs(table)))
    if not worst <= 1.0 + PROBABILITY_TOL:
        _fail("|I| reaches %.15g > 1", worst)


def check_threshold(result, target):
    """A bisected threshold: near its closed form, narrow, straddling 1."""
    crit = result["critical_value"]
    if abs(crit - target) > THRESHOLD_TOL:
        _fail("threshold %.10g is %.3g from %.10g", crit, abs(crit - target),
              target)
    if not 0 < result["bracket_width"] <= BRACKET_WIDTH_MAX:
        _fail("bracket width %.3g exceeds %g", result["bracket_width"],
              BRACKET_WIDTH_MAX)
    if result["score_below"] > 1.0 + THRESHOLD_SCORE_SLACK:
        _fail("score below the threshold is %.12g > 1", result["score_below"])
    if result["score_above"] < 1.0 - THRESHOLD_SCORE_SLACK:
        _fail("score above the threshold is %.12g < 1", result["score_above"])


# ---------------------------------------------------------------------------
# exact simulation


def check_behavior(probs, parties):
    """Non-negative, normalized and no-signalling behavior.

    probs has one binary setting axis per party followed by one binary
    outcome axis per party.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (2,) * (2 * parties):
        _fail("behavior has shape %s, expected %s", probs.shape,
              (2,) * (2 * parties))
    low = probs.min()
    if low < -PROBABILITY_TOL:
        _fail("behavior has a negative entry %.3g", low)
    out_axes = tuple(range(parties, 2 * parties))
    totals = probs.sum(axis=out_axes)
    worst = float(np.max(np.abs(totals - 1.0)))
    if worst > PROBABILITY_TOL:
        _fail("behavior is not normalized: a setting's total is %.3g off 1",
              worst)
    for party in range(parties):
        # the other parties' marginal may not depend on this party's setting
        marginal = probs.sum(axis=parties + party)
        change = np.abs(np.take(marginal, 0, axis=party)
                        - np.take(marginal, 1, axis=party)).max()
        if change > PROBABILITY_TOL:
            _fail("party %d signals: a marginal moves by %.3g with its "
                  "setting", party, change)


def check_behaviors_agree(nlocal_probs, trilocal_probs):
    """Factored n = 3 behavior equals the dense one after the permutation."""
    perm = list(TRILOCAL_TO_NLOCAL)
    axes = perm + [5 + i for i in perm]
    diff = np.abs(np.asarray(nlocal_probs)
                  - np.asarray(trilocal_probs).transpose(axes)).max()
    if diff > ENGINE_AGREEMENT_TOL:
        _fail("dense and factored behaviors differ by %.3g", diff)


def check_noise_scaling(noisy, clean, visibility, n):
    """I-values scale exactly as visibility^n under white noise per source.

    Every term with a maximally mixed source leaves an extreme party with a
    traceless observable on a maximally mixed qubit, so only the product
    of the n clean sources survives.
    """
    noisy = np.asarray(noisy)
    expected = visibility ** n * np.asarray(clean)
    diff = float(np.max(np.abs(noisy - expected)))
    if diff > SCALING_TOL:
        _fail("I-values at visibility %.6g differ from visibility^%d times "
              "the noiseless ones by %.3g", visibility, n, diff)


def check_swap_probabilities(probs):
    """probs[(y, z)] lists the 4 outcome probabilities; each set sums to 1."""
    for (y, z), values in sorted(probs.items()):
        values = np.asarray(values, dtype=float)
        if values.min() < -PROBABILITY_TOL:
            _fail("swap outcome probability %.3g < 0 at (y, z) = (%d, %d)",
                  values.min(), y, z)
        total = values.sum()
        if abs(total - 1.0) > SWAP_SUM_TOL:
            _fail("swap outcome probabilities sum to %.15g at (y, z) = "
                  "(%d, %d)", total, y, z)


def check_density(chi):
    """A swapped state is Hermitian, has trace 1 and is positive."""
    chi = np.asarray(chi, dtype=complex)
    herm = np.abs(chi - chi.conj().T).max()
    if herm > DENSITY_TOL:
        _fail("state is not Hermitian: %.3g", herm)
    trace = np.trace(chi)
    if abs(trace - 1.0) > DENSITY_TOL:
        _fail("state has trace %.15g", trace.real)
    low = np.linalg.eigvalsh((chi + chi.conj().T) / 2).min()
    if low < -DENSITY_TOL:
        _fail("state has a negative eigenvalue %.3g", low)


def check_lhv_row(row):
    """The saturating model: score 1, i0 = r^3, i1 = (1 - r)^3."""
    r = row["r"]
    check_equal("trilocal score at r=%g" % r, row["trilocal_score"], 1.0,
                LHV_TOL)
    check_equal("i0 at r=%g" % r, row["i0"], r ** 3, LHV_TOL)
    check_equal("i1 at r=%g" % r, row["i1"], (1 - r) ** 3, LHV_TOL)
