"""Fusion coefficients and a Verlinde cross-check.

The fusion coefficient N^lam_{mu nu} is the signed sum over the quantum
Weyl group W_k (the affine Weyl group conjugated by psi_k: b -> k b - rho)
of weight multiplicities of the middle representation:

    N^lam_{mu nu} = sum_{tau in W_k} sgn(tau) m_mu(nu - tau(lam))

Only finitely many tau contribute, because m_mu vanishes outside the convex
hull of the mu-orbit; those are enumerated exactly by running over the
(finite) support of m_mu and folding each candidate point into the
fundamental alcove of the level-k action (Kac-Walton).  `fusion_matrix` is
the one evaluator: all N^lam_{mu nu} for one mu, as an integer matrix over
the level alphabet; the full table stacks those matrices.  Folding works on
int64 arrays of points, in blocks of at most _FOLD_BLOCK points, each pass
reflecting every point not yet folded; a folded point is located in the
alphabet by its mixed-radix key (base k + 1, first label most significant).
The Verlinde oracle `verlinde_table` recomputes the whole table from one
modular S-matrix and shares nothing with the folding path but the budget
check.  The S-matrix phases read the invariant form on labels as the
integer weight_form_den <x, y> and divide once, in floats.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ORACLE_TOL, OracleError, PreconditionError
from .reps import Labels, LevelAlphabet, weight_multiplicities
from .roots import RootSystem, weyl_group_order, weyl_orbit

_FOLD_LIMIT = 100_000
# Points folded per array pass of `fusion_matrix`; bounds its working memory.
_FOLD_BLOCK = 2**14
# Budget of one call: the integers it computes, |A|^2 per matrix (|A|^3 for the full table).
MAX_FUSION_COEFFS = 10**6
# Budget of `verlinde_table`: Weyl-orbit phases of the S-matrix, |W| * |A|^2.
MAX_VERLINDE_ORBIT_TERMS = 2 * 10**5


class QuantumWeylGroup(NamedTuple):
    """Level-k alcove data for the psi_k-conjugated affine Weyl group.

    In the rho-shifted picture x = lam + rho, the group acts by
    x -> w(x) + k*gamma (w in W, gamma a coroot-lattice vector), with
    fundamental domain {x dominant, <x, theta> <= k}.  Points of the open
    alcove have trivial stabilizer; points on a wall are fixed by a
    reflection, so their orbit contributions cancel in signed sums.
    """

    rs: RootSystem
    k: int

    def fold(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fold rho-shifted points, the rows of an int64 (N, rank) array, into
        the fundamental alcove.

        Returns (folded, sign): the folded rows and, per row, the sign
        (-1)^(reflections applied) of an alcove-interior point, or 0 for a
        point on a wall (vanishing signed-orbit sum; its row is then
        meaningless).  Each pass reflects every row still active: in the
        simple wall of its first negative label, else in the affine wall
        <x, theta> = k while its level is above k.  A row with no negative
        label stops on a wall (a zero label, or level k) or inside.  A row
        still active after _FOLD_LIMIT passes raises AssertionError.
        """
        start = np.asarray(points, dtype=np.int64)
        cartan = np.array(self.rs.cartan_matrix, dtype=np.int64)
        comarks = np.array(self.rs.comarks, dtype=np.int64)
        theta = np.array(self.rs.highest_root_labels, dtype=np.int64)
        folded, sign = start.copy(), np.ones(len(start), dtype=np.int64)
        active, pts = np.arange(len(start)), start.copy()
        for _ in range(_FOLD_LIMIT):
            negative = pts < 0
            simple = negative.any(axis=1)
            level = pts @ comarks
            wall = ~simple & ((pts == 0).any(axis=1) | (level == self.k))
            affine = ~simple & ~wall & (level > self.k)
            rows = np.flatnonzero(simple)
            i = negative[rows].argmax(axis=1)
            pts[rows] -= pts[rows, i][:, None] * cartan[i]
            pts[affine] -= (level[affine] - self.k)[:, None] * theta
            moved = simple | affine
            sign[active[moved]] *= -1
            sign[active[wall]] = 0
            folded[active[~moved]] = pts[~moved]
            active, pts = active[moved], pts[moved]
            if not len(active):
                return folded, sign
        stuck = tuple(start[active[0]].tolist())
        raise AssertionError(f"alcove folding did not terminate for {stuck}")


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
    contribute canceling pairs and are skipped).  The points of all columns
    are folded in array passes of at most _FOLD_BLOCK points.  A folded point
    is found in A by its mixed-radix key in base k + 1, first label most
    significant, so the keys of the sorted alphabet increase.
    """
    gamma = alphabet.require(gamma, "gamma")
    rs, k = alphabet.rs, alphabet.k
    n = len(alphabet.elements)
    _require_budget(alphabet, n * n, "one fusion matrix")
    # interior labels lie in 1..k-1, so distinct points have distinct keys
    if (k + 1) ** rs.rank >= 2**63:
        raise AssertionError(f"mixed-radix keys overflow int64 at k = {k}")
    place = (k + 1) ** np.arange(rs.rank - 1, -1, -1, dtype=np.int64)
    shifted = np.array(alphabet.elements, dtype=np.int64) + 1
    keys = shifted @ place
    support = weight_multiplicities(rs, gamma).multiplicities
    betas = np.array(list(support), dtype=np.int64)
    mults = np.array(list(support.values()), dtype=np.int64)
    qwg = QuantumWeylGroup(rs=rs, k=k)
    mat = np.zeros((n, n), dtype=np.int64)
    for lo in range(0, n * len(betas), _FOLD_BLOCK):
        col, j = np.divmod(np.arange(lo, min(lo + _FOLD_BLOCK, n * len(betas))), len(betas))
        folded, sign = qwg.fold(shifted[col] - betas[j])
        hit = sign != 0
        key = folded[hit] @ place
        row = np.searchsorted(keys, key)
        if (row == n).any() or (keys[np.minimum(row, n - 1)] != key).any():
            raise AssertionError(f"a folded point for gamma = {gamma} is not in the alphabet")
        np.add.at(mat, (row, col[hit]), sign[hit] * mults[j[hit]])
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


def verlinde_table(alphabet: LevelAlphabet, tol: float = ORACLE_TOL) -> np.ndarray:
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
    sorted label order since the alphabet is sorted.  Each weight is one list,
    shared by every entry that names it."""
    labels = [list(w) for w in alphabet.elements]
    triples = itertools.product(labels, repeat=3)
    return ((*t, n) for t, n in zip(triples, table.ravel().tolist()))


def verify_against_verlinde(alphabet: LevelAlphabet, table: np.ndarray, tol: float = ORACLE_TOL) -> None:
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
    labels = [",".join(map(str, w)) for w in alphabet.elements]
    triples = itertools.product(labels, repeat=3)
    return [f"{lam} {mu} {nu} {n}" for (lam, mu, nu), n in zip(triples, table.ravel().tolist())]
