"""Quantum dimensions, fusion coefficients, and a Verlinde cross-check.

The fusion coefficient N^lam_{mu nu} is the signed sum over the quantum
Weyl group W_k (the affine Weyl group conjugated by psi_k: b -> k b - rho)
of weight multiplicities of the middle representation:

    N^lam_{mu nu} = sum_{tau in W_k} sgn(tau) m_mu(nu - tau(lam))

Only finitely many tau contribute, because m_mu vanishes outside the convex
hull of the mu-orbit; those are enumerated exactly by running over the
(finite) support of m_mu and folding each candidate point into the
fundamental alcove of the level-k action.  `fusion_matrix` is the one
evaluator: all N^lam_{mu nu} for one mu, as an integer matrix over the level
alphabet; the full table stacks those matrices.  The Verlinde oracle
recomputes the same numbers from the modular S-matrix and is kept fully
independent.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import OracleError, PreconditionError
from .reps import Labels, LevelAlphabet, weight_multiplicities
from .roots import RootSystem, weyl_orbit

_FOLD_LIMIT = 100_000
# Budget of one call: the integers it computes, |A|^2 per matrix (|A|^3 for the full table).
MAX_FUSION_COEFFS = 10**6


@dataclass(frozen=True)
class QuantumWeylGroup:
    """Level-k alcove data for the psi_k-conjugated affine Weyl group.

    In the rho-shifted picture x = lam + rho, the group acts by
    x -> w(x) + k*gamma (w in W, gamma a coroot-lattice vector), with
    fundamental domain {x dominant, <x, theta> <= k}.  Points of the open
    alcove have trivial stabilizer; points on a wall are fixed by a
    reflection, so their orbit contributions cancel in signed sums.
    """

    rs: RootSystem
    k: int
    theta_labels: Labels = field(init=False)

    def __post_init__(self):
        rs = self.rs
        th = tuple(int(rs.inner(rs.highest_root, cr)) for cr in rs.simple_coroots)
        object.__setattr__(self, "theta_labels", th)

    def psi(self, b: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The conjugation map psi_k: b -> k b - rho (ambient coordinates)."""
        rho = self.rs.weyl_vector
        return tuple(self.k * Fraction(x) - r for x, r in zip(b, rho))

    def level(self, shifted: Sequence[int]) -> int:
        return int(sum(a * m for a, m in zip(self.rs.comarks, shifted)))

    def reflect_simple(self, shifted: Sequence[int], i: int) -> Labels:
        row = self.rs.cartan_matrix[i]
        mi = shifted[i]
        return tuple(m - mi * row[j] for j, m in enumerate(shifted))

    def reflect_affine(self, shifted: Sequence[int]) -> Labels:
        """Reflection in the wall <x, theta> = k (shifted picture)."""
        excess = self.level(shifted) - self.k
        return tuple(m - excess * t for m, t in zip(shifted, self.theta_labels))

    def fold(self, shifted: Sequence[int]) -> tuple[Labels | None, int]:
        """Fold a rho-shifted point into the fundamental alcove.

        Returns (folded point, sign) for alcove-interior points and
        (None, 0) for points on a wall (vanishing signed-orbit sum).
        """
        m = tuple(int(v) for v in shifted)
        sign = 1
        for _ in range(_FOLD_LIMIT):
            neg = next((i for i, v in enumerate(m) if v < 0), None)
            if neg is not None:
                m = self.reflect_simple(m, neg)
                sign = -sign
                continue
            if 0 in m:
                return None, 0
            lev = self.level(m)
            if lev > self.k:
                m = self.reflect_affine(m)
                sign = -sign
                continue
            if lev == self.k:
                return None, 0
            return m, sign
        raise AssertionError(f"alcove folding did not terminate for {shifted}")


def quantum_dimension(alphabet: LevelAlphabet, lam: Sequence[int]) -> float:
    """dim_q = prod_{alpha>0} sin(pi <lam+rho, alpha>/k) / sin(pi <rho, alpha>/k).

    Strictly positive on the level alphabet: for integrable lam every
    <lam+rho, alpha> lies strictly between 0 and k.
    """
    rs = alphabet.rs
    lam = _require_in_alphabet(alphabet, lam, "lambda")
    k = alphabet.k
    rho = (1,) * rs.rank
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    out = 1.0
    for alpha in rs.positive_roots:
        al = tuple(rs.inner(alpha, cr) for cr in rs.simple_coroots)
        num = rs.label_form(lam_rho, al)
        den = rs.label_form(rho, al)
        out *= math.sin(math.pi * float(num) / k) / math.sin(math.pi * float(den) / k)
    return out


def _require_in_alphabet(alphabet: LevelAlphabet, lam: Sequence[int], name: str) -> Labels:
    t = tuple(int(v) for v in lam)
    if t not in alphabet:
        raise PreconditionError(
            f"{name} = {t} is not integrable at level {alphabet.k - alphabet.rs.dual_coxeter} "
            f"for {alphabet.rs.type_label}{alphabet.rs.rank} at k = {alphabet.k}"
        )
    return t


def _require_budget(alphabet: LevelAlphabet, coeffs: int, what: str) -> None:
    if coeffs > MAX_FUSION_COEFFS:
        rs = alphabet.rs
        raise PreconditionError(
            f"{what} of {rs.type_label}{rs.rank} at k = {alphabet.k}: "
            f"{coeffs} coefficients; the budget is {MAX_FUSION_COEFFS}"
        )


def fusion_matrix(alphabet: LevelAlphabet, gamma: Sequence[int]) -> np.ndarray:
    """N_gamma[a, b] = N^{A[a]}_{gamma A[b]} over the level alphabet A, exactly.

    N^lam_{gamma nu} = sum_{tau in W_k} sgn(tau) m_gamma(nu - tau(lam)).  For
    column b (nu = A[b]) and each weight beta in the support of m_gamma, the
    point nu + rho - beta equals tau(lam + rho) for at most one lam in A;
    alcove folding finds it and its sign (or a wall, where stabilized points
    contribute canceling pairs and are skipped).
    """
    gamma = _require_in_alphabet(alphabet, gamma, "gamma")
    rs = alphabet.rs
    n = len(alphabet.elements)
    _require_budget(alphabet, n * n, "one fusion matrix")
    qwg = QuantumWeylGroup(rs=rs, k=alphabet.k)
    row_of = {tuple(x + 1 for x in lam): a for a, lam in enumerate(alphabet.elements)}
    support = weight_multiplicities(rs, gamma).multiplicities.items()
    mat = np.zeros((n, n), dtype=np.int64)
    for b, nu in enumerate(alphabet.elements):
        for beta, m in support:
            folded, sign = qwg.fold(tuple(x + 1 - y for x, y in zip(nu, beta)))
            if folded is not None:
                mat[row_of[folded], b] += sign * m
    if (mat < 0).any():
        raise AssertionError(f"negative fusion coefficient for gamma = {gamma}")
    return mat


def fusion_matrices(alphabet: LevelAlphabet, gammas: Iterable[Sequence[int]]) -> dict[Labels, np.ndarray]:
    """N_gamma for each distinct gamma, in first-seen order; refused as a whole
    when the |A|^2 coefficients per gamma add up to more than MAX_FUSION_COEFFS."""
    distinct = list(dict.fromkeys(tuple(int(v) for v in g) for g in gammas))
    _require_budget(alphabet, len(alphabet.elements) ** 2 * len(distinct), f"{len(distinct)} fusion matrices")
    return {g: fusion_matrix(alphabet, g) for g in distinct}


# -- Verlinde oracle ---------------------------------------------------------

_smatrix_cache: dict[tuple[str, int, int], list[list[complex]]] = {}


def _s_matrix(alphabet: LevelAlphabet) -> list[list[complex]]:
    """Unnormalized S-matrix entries via the Weyl sum.

    s[lam][mu] = sum_{w in W} sgn(w) exp(-2 pi i <w(lam+rho), mu+rho> / k).
    The overall normalization constant cancels in the Verlinde ratio once
    divided by sum_sigma |s[0][sigma]|^2 (row-0 unitarity).
    """
    rs = alphabet.rs
    key = (rs.type_label, rs.rank, alphabet.k)
    hit = _smatrix_cache.get(key)
    if hit is not None:
        return hit
    k = alphabet.k
    rho = rs.weyl_vector
    shifted_ambient = [
        tuple(a + b for a, b in zip(rs.from_labels(lam), rho))
        for lam in alphabet.elements
    ]
    orbits = [weyl_orbit(rs, v) for v in shifted_ambient]
    s = []
    for orb in orbits:
        row = []
        for target in shifted_ambient:
            val = 0j
            for vec, sign in orb:
                ph = rs.inner(vec, target) / k
                ph -= math.floor(ph)
                val += sign * cmath.exp(-2j * math.pi * float(ph))
            row.append(val)
        s.append(row)
    _smatrix_cache[key] = s
    return s


def verlinde_oracle(
    alphabet: LevelAlphabet,
    lam: Sequence[int],
    mu: Sequence[int],
    nu: Sequence[int],
    tol: float = 1e-6,
) -> int:
    """Independent N^lam_{mu nu} from the Verlinde sum over the S-matrix.

    The value is rounded from a float within `tol` of an integer; a larger
    rounding residue is reported as an oracle failure (a bug, not bad input).
    """
    la = _require_in_alphabet(alphabet, lam, "lambda")
    m = _require_in_alphabet(alphabet, mu, "mu")
    n = _require_in_alphabet(alphabet, nu, "nu")
    s = _s_matrix(alphabet)
    il, im, iu = alphabet.index(la), alphabet.index(m), alphabet.index(n)
    i0 = alphabet.index((0,) * alphabet.rs.rank)
    num = 0j
    norm = 0.0
    for sig in range(len(alphabet.elements)):
        num += s[il][sig] * s[im][sig] * s[iu][sig].conjugate() / s[i0][sig]
        norm += abs(s[i0][sig]) ** 2
    val = num / norm
    rounded = round(val.real)
    residue = abs(val - rounded)
    if residue > tol:
        raise OracleError(
            f"Verlinde sum {val} for {(la, m, n)} at {alphabet.rs.type_label}"
            f"{alphabet.rs.rank}, k={alphabet.k} is {residue:.3e} from an integer "
            f"(tolerance {tol:.1e})"
        )
    return int(rounded)


# -- tables -------------------------------------------------------------------


def build_fusion_table(alphabet: LevelAlphabet) -> np.ndarray:
    """T[l, m, n] = N^{A[l]}_{A[m] A[n]}: the |A| matrices stacked, |A|^3 coefficients."""
    return np.stack(list(fusion_matrices(alphabet, alphabet.elements).values()), axis=1)


def table_entries(alphabet: LevelAlphabet, table: np.ndarray):
    """(lam, mu, nu, N^lam_{mu nu}) for every triple in index order, which is
    sorted label order since the alphabet is sorted."""
    triples = itertools.product(alphabet.elements, repeat=3)
    return ((*t, n) for t, n in zip(triples, table.ravel().tolist()))


def verify_against_verlinde(alphabet: LevelAlphabet, table: np.ndarray, tol: float = 1e-6) -> None:
    """Raise OracleError on the first triple disagreeing with the S-matrix."""
    for lam, mu, nu, n in table_entries(alphabet, table):
        v = verlinde_oracle(alphabet, lam, mu, nu, tol=tol)
        if v != n:
            raise OracleError(
                f"fusion table entry N^{lam}_({mu},{nu}) = {n} disagrees with "
                f"Verlinde oracle value {v}"
            )


def table_lines(alphabet: LevelAlphabet, table: np.ndarray) -> list[str]:
    """Plain-text export, one 'lam mu nu N' per line (label coords comma-joined)."""
    return [
        " ".join([*(",".join(map(str, w)) for w in (lam, mu, nu)), str(n)])
        for lam, mu, nu, n in table_entries(alphabet, table)
    ]
