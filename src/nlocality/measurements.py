"""Measurement operators: Bloch observables and partial-GHZ-basis groupings.

Intermediate parties measure two-outcome observables built by splitting the
GHZ basis of their wires into a plus group and a minus group.  A grouping
label is a bit tuple (m, f1, ..., f_{n-1}): m is the sign bit and the f's
are the flip pattern of the basis vector.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
# I, X, Y, Z
PAULIS = np.stack([np.eye(2, dtype=complex), _SX, _SY, _SZ])


@dataclass(frozen=True)
class BlochObservable:
    """Projective qubit observable n.sigma for the Bloch direction (theta, phi)."""

    theta: float
    phi: float

    def matrix(self):
        return bloch_observable(self.theta, self.phi)


def bloch_observable(theta, phi):
    return (np.sin(theta) * np.cos(phi) * _SX
            + np.sin(theta) * np.sin(phi) * _SY
            + np.cos(theta) * _SZ)


def ghz_basis_vector_n(m, flips):
    """(1/sqrt2) sum_l (-1)^(m l) |l>|l^f1>...|l^f_{n-1}>."""
    flips = tuple(flips)
    n = len(flips) + 1
    v = np.zeros(2 ** n, dtype=complex)
    for l in (0, 1):
        idx = l
        for f in flips:
            idx = 2 * idx + (l ^ f)
        v[idx] += (-1) ** (m * l)
    return v / np.sqrt(2)


def ghz_basis_vector(m, n, k):
    """Three-qubit GHZ basis vector with label (m, n, k)."""
    return ghz_basis_vector_n(m, (n, k))


def all_labels(n=3):
    return [lbl for lbl in itertools.product((0, 1), repeat=n)]


@dataclass(frozen=True)
class GHZGrouping:
    """A split of the 2^n GHZ basis labels into plus and minus groups."""

    plus_set: frozenset
    n: int = 3

    def __post_init__(self):
        plus = frozenset(tuple(lbl) for lbl in self.plus_set)
        object.__setattr__(self, "plus_set", plus)
        labels = set(all_labels(self.n))
        if not plus:
            raise ValueError("plus group is empty")
        if not plus.issubset(labels):
            raise ValueError("labels must be %d-bit tuples" % self.n)
        if plus == labels:
            raise ValueError("minus group is empty")

    @property
    def minus_set(self):
        return frozenset(set(all_labels(self.n)) - self.plus_set)

    def is_balanced(self):
        return len(self.plus_set) == 2 ** (self.n - 1)

    def is_coherent(self):
        """True when each flip pattern appears in the plus group exactly once.

        Such observables have no computational-basis diagonal: they are pure
        coherence witnesses on their wires.
        """
        seen = {}
        for lbl in self.plus_set:
            seen.setdefault(lbl[1:], []).append(lbl[0])
        return (len(seen) == 2 ** (self.n - 1)
                and all(len(v) == 1 for v in seen.values()))

    def to_string(self):
        fmt = lambda lbl: "".join(str(b) for b in lbl)
        plus = ",".join(fmt(l) for l in sorted(self.plus_set))
        minus = ",".join(fmt(l) for l in sorted(self.minus_set))
        return plus + "|" + minus


def parse_grouping(text):
    """Parse a grouping literal like "000,001,010,100|011,101,110,111".

    The minus part may be omitted (a lone plus group implies the
    complement), but when present it must be the exact complement.
    """
    parts = text.strip().split("|")
    if len(parts) not in (1, 2):
        raise ValueError("grouping literal must have at most one '|'")

    def parse_side(side):
        labels = set()
        for token in side.split(","):
            token = token.strip()
            if not token or any(ch not in "01" for ch in token):
                raise ValueError("bad GHZ label %r" % token)
            labels.add(tuple(int(ch) for ch in token))
        return labels

    plus = parse_side(parts[0])
    n = len(next(iter(plus)))
    if any(len(lbl) != n for lbl in plus):
        raise ValueError("inconsistent label lengths")
    if len(parts) == 2:
        minus = parse_side(parts[1])
        if plus | minus != set(all_labels(n)) or plus & minus:
            raise ValueError("plus and minus groups must partition all labels")
    return GHZGrouping(frozenset(plus), n)


def partial_ghz_observable(g):
    """O = sum_plus P - sum_minus P over GHZ basis projectors; O^2 = I.

    Equal groupings share one read-only array.
    """
    return _partial_ghz_observable(g)


# room for all 254 three-qubit groupings
@functools.lru_cache(maxsize=256)
def _partial_ghz_observable(g):
    n = g.n
    obs = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for lbl in all_labels(n):
        v = ghz_basis_vector_n(lbl[0], lbl[1:])
        sign = 1.0 if lbl in g.plus_set else -1.0
        obs += sign * np.outer(v, v.conj())
    obs.flags.writeable = False
    return obs


def table1_settings():
    """The four fixed three-qubit groupings (B1, B2, C1, C2)."""
    b1 = GHZGrouping(frozenset({(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)}))
    b2 = GHZGrouping(frozenset({(0, 0, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)}))
    c1 = GHZGrouping(frozenset({(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)}))
    c2 = GHZGrouping(frozenset({(1, 0, 1), (1, 1, 0), (0, 0, 0), (0, 1, 1)}))
    return b1, b2, c1, c2


def balanced_groupings(n=3):
    """All balanced splits containing the all-zero label (35 for n=3)."""
    labels = all_labels(n)
    half = 2 ** (n - 1)
    out = []
    for combo in itertools.combinations(labels, half):
        if labels[0] in combo:
            out.append(GHZGrouping(frozenset(combo), n))
    return out


def coherent_groupings(n=3):
    """All diagonal-free groupings with (0,...,0) in the plus group."""
    flips = list(itertools.product((0, 1), repeat=n - 1))
    out = []
    for signs in itertools.product((0, 1), repeat=len(flips) - 1):
        plus = {(0,) + flips[0]}
        for f, s in zip(flips[1:], signs):
            plus.add((s,) + f)
        out.append(GHZGrouping(frozenset(plus), n))
    return out
