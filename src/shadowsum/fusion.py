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
`verlinde_table` recomputes the whole table from one modular S-matrix and
shares nothing with the folding path but the budget check.  Quantum
dimensions and S-matrix phases both read the invariant form on labels as the
integer weight_form_den <x, y>; each divides once, in floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import OracleError, PreconditionError
from .reps import Labels, LevelAlphabet, weight_multiplicities
from .roots import RootSystem, weyl_group_order, weyl_orbit

_FOLD_LIMIT = 100_000
# Budget of one call: the integers it computes, |A|^2 per matrix (|A|^3 for the full table).
MAX_FUSION_COEFFS = 10**6
# Budget of `verlinde_table`: Weyl-orbit phases of the S-matrix, |W| * |A|^2.
MAX_VERLINDE_ORBIT_TERMS = 2 * 10**5


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

    def reflect_simple(self, shifted: Sequence[int], i: int) -> Labels:
        row = self.rs.cartan_matrix[i]
        mi = shifted[i]
        return tuple(m - mi * row[j] for j, m in enumerate(shifted))

    def reflect_affine(self, shifted: Sequence[int]) -> Labels:
        """Reflection in the wall <x, theta> = k (shifted picture)."""
        excess = self.rs.level_of_labels(shifted) - self.k
        return tuple(m - excess * t for m, t in zip(shifted, self.rs.highest_root_labels))

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
            lev = self.rs.level_of_labels(m)
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
    for al in rs.positive_root_labels:  # label_form is weight_form_den <., .>
        num = rs.label_form(lam_rho, al) / rs.weight_form_den
        den = rs.label_form(rho, al) / rs.weight_form_den
        out *= math.sin(math.pi * num / k) / math.sin(math.pi * den / k)
    return out


def _require_in_alphabet(alphabet: LevelAlphabet, lam: Sequence[int], name: str) -> Labels:
    t = tuple(int(v) for v in lam)
    if t not in alphabet:
        raise PreconditionError(
            f"{name} = {t} is not integrable at level {alphabet.k - alphabet.rs.dual_coxeter} "
            f"for {alphabet.rs.type_label}{alphabet.rs.rank} at k = {alphabet.k}"
        )
    return t


def _require_budget(alphabet: LevelAlphabet, count: int, what: str, unit: str = "coefficients",
                    budget: int = MAX_FUSION_COEFFS) -> None:
    if count > budget:
        rs = alphabet.rs
        raise PreconditionError(
            f"{what} of {rs.type_label}{rs.rank} at k = {alphabet.k}: "
            f"{count} {unit}; the budget is {budget}"
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


def _s_matrix(alphabet: LevelAlphabet) -> np.ndarray:
    """Unnormalized S-matrix entries via the Weyl sum.

    s[lam][mu] = sum_{w in W} sgn(w) exp(-2 pi i <w(lam+rho), mu+rho> / k).
    On labels <x, y> = x G y / weight_form_den with the integer Gram matrix
    G, so the phases of one orbit are one integer product, reduced exactly
    modulo k * weight_form_den before `exp`.  The overall normalization
    constant cancels in the Verlinde ratio once divided by
    sum_sigma |s[0][sigma]|^2 (row-0 unitarity).
    """
    rs = alphabet.rs
    period = alphabet.k * rs.weight_form_den
    shifted = [tuple(m + 1 for m in lam) for lam in alphabet.elements]
    paired = np.array(rs.weight_gram_num, dtype=np.int64) @ np.array(shifted, dtype=np.int64).T
    rows = []
    for x in shifted:
        points, signs = zip(*weyl_orbit(rs, x))
        phases = (np.array(points, dtype=np.int64) @ paired) % period
        rows.append(np.array(signs) @ np.exp(-2j * np.pi * phases / period))
    return np.array(rows)


def verlinde_table(alphabet: LevelAlphabet, tol: float = 1e-6) -> np.ndarray:
    """V[l, m, n] = N^{A[l]}_{A[m] A[n]} from the Verlinde sum over one S-matrix.

    V = sum_sigma s[l, sigma] s[m, sigma] conj(s[n, sigma]) / s[0, sigma],
    divided by sum_sigma |s[0, sigma]|^2.  Every value is rounded from a
    float within `tol` of an integer (0 < tol < 1/2); a larger rounding
    residue is reported as an oracle failure (a bug, not bad input).
    """
    if not 0.0 < tol < 0.5:  # nan too
        raise PreconditionError(f"oracle tolerance must lie strictly between 0 and 0.5, got {tol}")
    _require_budget(alphabet, len(alphabet.elements) ** 3, "the Verlinde table")
    orbit_terms = weyl_group_order(alphabet.rs) * len(alphabet.elements) ** 2
    _require_budget(alphabet, orbit_terms, "the Verlinde S-matrix",
                    "Weyl-orbit terms (|W| |A|^2)", MAX_VERLINDE_ORBIT_TERMS)
    s = _s_matrix(alphabet)
    s0 = s[alphabet.index((0,) * alphabet.rs.rank)]
    third = s.conj() / s0
    vals = np.einsum("ls,ms,ns->lmn", s, s, third, optimize=True) / np.sum(np.abs(s0) ** 2)
    rounded = np.rint(vals.real)
    residue = np.abs(vals - rounded)
    far = np.argwhere(residue > tol)
    if len(far):
        l, m, n = far[0]
        rs, elems = alphabet.rs, alphabet.elements
        raise OracleError(
            f"Verlinde sum {vals[l, m, n]} for {(elems[l], elems[m], elems[n])} at "
            f"{rs.type_label}{rs.rank}, k={alphabet.k} is {residue[l, m, n]:.3e} from an "
            f"integer (tolerance {tol:.1e})"
        )
    return rounded.astype(np.int64)


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
    """Raise OracleError on the first triple, in index order, disagreeing with
    the Verlinde table."""
    oracle = verlinde_table(alphabet, tol=tol)
    wrong = np.argwhere(oracle != table)
    if len(wrong):
        l, m, n = wrong[0]
        lam, mu, nu = (alphabet.elements[i] for i in (l, m, n))
        raise OracleError(
            f"fusion table entry N^{lam}_({mu},{nu}) = {table[l, m, n]} disagrees with "
            f"Verlinde oracle value {oracle[l, m, n]}"
        )


def table_lines(alphabet: LevelAlphabet, table: np.ndarray) -> list[str]:
    """Plain-text export, one 'lam mu nu N' per line (label coords comma-joined)."""
    return [
        " ".join([*(",".join(map(str, w)) for w in (lam, mu, nu)), str(n)])
        for lam, mu, nu, n in table_entries(alphabet, table)
    ]
