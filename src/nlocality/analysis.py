"""Entanglement and locality diagnostics for three-qubit states."""

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import hermitian_eigenvalues, partial_transpose
from .network import _behavior_from_expectations

PPT_EIG_TOL = 1e-10
SEP_TOL = 1e-12


@dataclass(frozen=True)
class SeparabilityReport:
    criterion1_lhs: float
    criterion1_rhs: float
    criterion2_lhs: float
    criterion2_rhs: float

    @property
    def criterion1_satisfied(self):
        return self.criterion1_lhs <= self.criterion1_rhs + SEP_TOL

    @property
    def criterion2_satisfied(self):
        return self.criterion2_lhs <= self.criterion2_rhs + SEP_TOL

    @property
    def entangled(self):
        """True when either necessary separability criterion is violated."""
        return not (self.criterion1_satisfied and self.criterion2_satisfied)


def separability_check(rho):
    """Evaluate the two corner-coherence separability criteria.

    Criterion 1: |rho_{1,8}| <= (prod_{i=2..7} rho_{i,i})^(1/6).
    Criterion 2: |rho_{1,8}| <= (rho_{1,1} rho_{4,4} prod_{i=4..7} rho_{i,i})^(1/6).
    Indices are 1-based matrix positions on the 8x8 three-qubit matrix.
    Violation of either proves entanglement; satisfying both is inconclusive.
    Diagonal entries below SEP_TOL in magnitude count as zero: the sixth
    root would turn their rounding residue into a right side of ~1e-3.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise ValueError("expected an 8x8 three-qubit density matrix")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError("input has non-unit trace")
    d = np.real(np.diag(rho))
    d = np.where(np.abs(d) < SEP_TOL, 0.0, d)
    lhs = abs(rho[0, 7])
    rhs1 = float(np.prod(d[1:7])) ** (1 / 6) if np.all(d[1:7] >= 0) else 0.0
    prod2 = d[0] * d[3] * d[3] * d[4] * d[5] * d[6]
    rhs2 = float(prod2) ** (1 / 6) if prod2 >= 0 else 0.0
    return SeparabilityReport(lhs, rhs1, lhs, rhs2)


def negativity(rho, num_qubits, cut):
    """Sum of |negative eigenvalues| of the partial transpose across a cut.

    `cut` is the index of the solo qubit in a one-vs-rest bipartition.
    Eigenvalues above -1e-10 count as zero (eigensolver noise floor).
    """
    if not 0 <= cut < num_qubits:
        raise ValueError("invalid cut index")
    pt = partial_transpose(rho, num_qubits, {cut})
    eigs = hermitian_eigenvalues(pt)
    return float(-np.sum(eigs[eigs < -PPT_EIG_TOL]))


@dataclass(frozen=True)
class BellFunctional:
    """A tripartite two-input two-output Bell functional.

    coefficients maps (a, b, c, x, y, z) to a real weight; `value <= bound`
    holds for all local behaviors when the functional is a valid facet.
    """

    scenario: tuple
    bound: float
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        parties, inputs, outputs = self.scenario
        for key in self.coefficients:
            a_part, x_part = key[:parties], key[parties:]
            if len(key) != 2 * parties:
                raise ValueError("coefficient key of wrong arity: %r" % (key,))
            if any(not 0 <= o < outputs for o in a_part):
                raise ValueError("outcome out of range in %r" % (key,))
            if any(not 0 <= s < inputs for s in x_part):
                raise ValueError("input out of range in %r" % (key,))


_FUNCTIONAL_FIELDS = {"scenario", "bound", "terms"}
_TERM_FIELDS = {"a", "b", "c", "x", "y", "z", "coeff"}


def parse_bell_functional(text):
    """Parse a JSON Bell functional; unknown fields are rejected."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("malformed functional file: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise ValueError("functional file must contain an object")
    extra = set(doc) - _FUNCTIONAL_FIELDS
    if extra:
        raise ValueError("unknown fields in functional file: %s" % sorted(extra))
    missing = _FUNCTIONAL_FIELDS - set(doc)
    if missing:
        raise ValueError("missing fields in functional file: %s" % sorted(missing))
    scenario = tuple(doc["scenario"])
    if scenario != (3, 2, 2):
        raise ValueError("only scenario [3, 2, 2] is supported")
    coeffs = {}
    for term in doc["terms"]:
        extra = set(term) - _TERM_FIELDS
        if extra:
            raise ValueError("unknown fields in term: %s" % sorted(extra))
        missing = _TERM_FIELDS - set(term)
        if missing:
            raise ValueError("missing fields in term: %s" % sorted(missing))
        key = (term["a"], term["b"], term["c"], term["x"], term["y"], term["z"])
        coeffs[key] = coeffs.get(key, 0.0) + float(term["coeff"])
    return BellFunctional(scenario, float(doc["bound"]), coeffs)


def load_bell_functional(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_bell_functional(fh.read())


def bell_evaluate(table, functional):
    """Evaluate sum c * P on a tripartite table P[x, y, z, a, b, c].

    Returns (value, violated).
    """
    table = np.asarray(table, dtype=float)
    if table.shape != (2,) * 6:
        raise ValueError("behavior table must have shape (2,)*6 "
                         "indexed (x, y, z, a, b, c)")
    value = 0.0
    for (a, b, c, x, y, z), coeff in functional.coefficients.items():
        value += coeff * table[x, y, z, a, b, c]
    return value, value > functional.bound + 1e-9


def tripartite_behavior(rho, observables):
    """P[x, y, z, a, b, c] for a 3-qubit state and two observables per qubit.

    `observables` is a list of three (O_0, O_1) matrix pairs.
    """
    rho = np.asarray(rho, dtype=complex).reshape((2,) * 6)
    eye = np.eye(2, dtype=complex)
    ops = [np.array([eye, o0, o1], dtype=complex) for o0, o1 in observables]
    # expect[p, q, r] = Tr(rho (P_p x Q_q x R_r)) with each party's
    # operators (I, O_0, O_1): rho's row bits a b c meet the operators'
    # column bits and its column bits d e f their row bits
    expect = np.einsum("abcdef,pda,qeb,rfc->pqr", rho, *ops)
    return _behavior_from_expectations(expect, 3)


def mermin_functional():
    """The standard tripartite Mermin functional in full-probability form.

    M = <A0 B0 C0> - <A0 B1 C1> - <A1 B0 C1> - <A1 B1 C0>, local bound 2.
    """
    coeffs = {}
    for (x, y, z), sign in (((0, 0, 0), 1.0), ((0, 1, 1), -1.0),
                            ((1, 0, 1), -1.0), ((1, 1, 0), -1.0)):
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    coeffs[(a, b, c, x, y, z)] = sign * (-1.0) ** (a + b + c)
    return BellFunctional((3, 2, 2), 2.0, coeffs)
