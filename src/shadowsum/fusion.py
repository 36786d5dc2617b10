"""Fusion coefficients and a Verlinde cross-check.

The fusion coefficient N^lam_{mu nu} is the signed sum over the quantum
Weyl group W_k (the affine Weyl group conjugated by psi_k: b -> k b - rho)
of weight multiplicities of the middle representation:

    N^lam_{mu nu} = sum_{tau in W_k} sgn(tau) m_mu(nu - tau(lam))

Only finitely many tau contribute, because m_mu vanishes outside the convex
hull of the mu-orbit; those are enumerated exactly by running over the
(finite) support of m_mu and folding each candidate point into the
fundamental alcove of the level-k action (Kac-Walton).  `fusion_matrix` is
the one evaluator: all N^lam_{mu nu} for one mu, as the nonzero entries of
an integer matrix over the level alphabet, (row, col, coeff) triples of
Python ints sorted by (row, col).  The matrices are sparse (0.3-9% nonzero
on small colours), so nothing dense is built for the state sum.
`QuantumWeylGroup.fold` folds one rho-shifted point.  The candidate points
of one call repeat across columns, weights and colours, so each is folded
once: the fold cache maps a point's integer mixed-radix key to its alphabet
row and sign, and is shared by every mu of `fusion_matrices`.  The key of
nu + rho - beta is the key of nu + rho minus that of beta, one subtraction.
The dense full table (`build_fusion_table`, which scatters the triples) and
the Verlinde oracle are the only parts that use numpy, and they import it
when called.  The Verlinde oracle `verlinde_table` recomputes the whole
table from one modular S-matrix and shares nothing with the folding path
but the budget check.  The S-matrix phases read the invariant form on
labels as the integer weight_form_den <x, y> and divide once, in floats.
Its gate is the fixed ORACLE_TOL: a Verlinde value farther than that from
an integer is an oracle failure.  The largest distance measured, on
alphabets up to G2 k=20, is 7.2e-12.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import OracleError, PreconditionError
from .reps import Labels, LevelAlphabet, weight_multiplicities
from .roots import RootSystem, weyl_group_order, weyl_orbit

if TYPE_CHECKING:
    import numpy as np

_FOLD_LIMIT = 100_000
# Budget of one call: the integers it computes, |A|^2 per matrix (|A|^3 for the full table).
MAX_FUSION_COEFFS = 10**6
# Budget of `verlinde_table`: Weyl-orbit phases of the S-matrix, |W| * |A|^2.
MAX_VERLINDE_ORBIT_TERMS = 2 * 10**5
# Gate of `verlinde_table`: largest distance of a Verlinde value from its integer.
ORACLE_TOL = 1e-6

# The nonzero entries of one fusion matrix: (row, col, coeff), sorted by (row, col).
Triples = list[tuple[int, int, int]]


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

    def fold(self, point: Sequence[int]) -> tuple[Labels | None, int]:
        """Fold one rho-shifted point, given by its labels, into the fundamental alcove.

        Returns (folded, sign): the folded point and the sign
        (-1)^(reflections applied) of an alcove-interior point, or (None, 0)
        for a point on a wall (vanishing signed-orbit sum).  Each step
        reflects the point in the simple wall of its first negative label,
        else in the affine wall <x, theta> = k while its level is above k.
        A point with no negative label stops on a wall (a zero label, or
        level k) or inside.  A point still moving after _FOLD_LIMIT steps
        raises AssertionError.
        """
        rs, k = self.rs, self.k
        m, sign = list(point), 1
        for _ in range(_FOLD_LIMIT):
            i = next((i for i, v in enumerate(m) if v < 0), None)
            if i is not None:
                mi = m[i]
                m = [v - mi * c for v, c in zip(m, rs.cartan_matrix[i])]
            else:
                level = rs.level_of_labels(m)
                if 0 in m or level == k:
                    return None, 0
                if level < k:
                    return tuple(m), sign
                m = [v - (level - k) * t for v, t in zip(m, rs.highest_root_labels)]
            sign = -sign
        raise AssertionError(f"alcove folding did not terminate for {tuple(point)}")


def _require_budget(alphabet: LevelAlphabet, count: int, what: str, unit: str = "coefficients",
                    budget: int = MAX_FUSION_COEFFS) -> None:
    if count > budget:
        rs = alphabet.rs
        raise PreconditionError(
            f"{what} of {rs.type_label}{rs.rank} at k = {alphabet.k}: "
            f"{count} {unit}; the budget is {budget}"
        )


def fusion_matrix(alphabet: LevelAlphabet, gamma: Sequence[int],
                  folds: dict[int, tuple[int, int]] | None = None) -> Triples:
    """N_gamma[a, b] = N^{A[a]}_{gamma A[b]} over the level alphabet A, exactly,
    as its nonzero entries (a, b, N_gamma[a, b]) sorted by (a, b).

    N^lam_{gamma nu} = sum_{tau in W_k} sgn(tau) m_gamma(nu - tau(lam)).  For
    column b (nu = A[b]) and each weight beta in the support of m_gamma, the
    point nu + rho - beta equals tau(lam + rho) for at most one lam in A;
    alcove folding finds it and its sign (or a wall, where stabilized points
    contribute canceling pairs and are skipped).

    `folds` is the fold cache: it maps the key of every point folded so far
    to (row of the folded point in A, sign), sign 0 on a wall.
    `fusion_matrices` passes one cache to all its colours.  The key of a
    point x is sum_i (x_i + 3k) (7k)^(rank-1-i).  A weight beta of V(gamma) has
    |beta_i| < 3k: beta_i = <beta, alpha_i^vee> is at most the pairing of
    gamma with the highest coroot, which is at most the lacing number (at
    most 3) times the level of gamma (below k).  So every digit of nu + rho -
    beta lies in 0..7k-1, and its key is the key of nu + rho minus
    sum_i beta_i (7k)^(rank-1-i).
    """
    gamma = alphabet.require(gamma, "gamma")
    rs, k = alphabet.rs, alphabet.k
    n = len(alphabet.elements)
    _require_budget(alphabet, n * n, "one fusion matrix")
    folds = {} if folds is None else folds
    places = [(7 * k) ** p for p in range(rs.rank - 1, -1, -1)]
    shifted = [tuple(v + 1 for v in lam) for lam in alphabet.elements]
    rows = {x: a for a, x in enumerate(shifted)}
    support = [(beta, sum(v * p for v, p in zip(beta, places)), m)
               for beta, m in weight_multiplicities(rs, gamma).multiplicities.items()]
    qwg = QuantumWeylGroup(rs=rs, k=k)
    entries: dict[int, int] = {}  # a * n + b -> N_gamma[a, b]
    for b, x in enumerate(shifted):
        base = sum((v + 3 * k) * p for v, p in zip(x, places))
        for beta, offset, m in support:
            hit = folds.get(base - offset)
            if hit is None:
                folded, sign = qwg.fold([v - w for v, w in zip(x, beta)])
                row = 0 if folded is None else rows.get(folded)
                if row is None:
                    raise AssertionError(
                        f"a folded point for gamma = {gamma} is not in the alphabet")
                hit = folds[base - offset] = (row, sign)
            row, sign = hit
            if sign:
                at = row * n + b
                entries[at] = entries.get(at, 0) + sign * m
    triples = [(*divmod(at, n), c) for at, c in sorted(entries.items()) if c]
    if any(c < 0 for _, _, c in triples):
        raise AssertionError(f"negative fusion coefficient for gamma = {gamma}")
    return triples


def fusion_matrices(alphabet: LevelAlphabet, gammas: Iterable[Sequence[int]]) -> dict[Labels, Triples]:
    """N_gamma for each distinct gamma, in first-seen order, over one fold cache;
    refused as a whole when the |A|^2 coefficients per gamma add up to more
    than MAX_FUSION_COEFFS."""
    distinct = list(dict.fromkeys(tuple(int(v) for v in g) for g in gammas))
    _require_budget(alphabet, len(alphabet.elements) ** 2 * len(distinct), f"{len(distinct)} fusion matrices")
    folds: dict[int, tuple[int, int]] = {}
    return {g: fusion_matrix(alphabet, g, folds) for g in distinct}


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
    import numpy as np

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


def verlinde_table(alphabet: LevelAlphabet) -> np.ndarray:
    """V[l, m, n] = N^{A[l]}_{A[m] A[n]} from the Verlinde sum over one S-matrix.

    V = sum_sigma s[l, sigma] s[m, sigma] conj(s[n, sigma]) / s[0, sigma],
    divided by sum_sigma |s[0, sigma]|^2.  Every value is rounded from a
    float within ORACLE_TOL of an integer; a larger rounding residue is
    reported as an oracle failure (a bug, not bad input).
    """
    import numpy as np

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
    far = np.argwhere(residue > ORACLE_TOL)
    if len(far):
        l, m, n = far[0]
        rs, elems = alphabet.rs, alphabet.elements
        raise OracleError(
            f"Verlinde sum {vals[l, m, n]} for {(elems[l], elems[m], elems[n])} at "
            f"{rs.type_label}{rs.rank}, k={alphabet.k} is {residue[l, m, n]:.3e} from an "
            f"integer (tolerance {ORACLE_TOL:.1e})"
        )
    return rounded.astype(np.int64)


# -- tables -------------------------------------------------------------------


def build_fusion_table(alphabet: LevelAlphabet) -> np.ndarray:
    """T[l, m, n] = N^{A[l]}_{A[m] A[n]}: the triples of the |A| matrices scattered
    into one dense int64 array, |A|^3 coefficients."""
    import numpy as np

    matrices = fusion_matrices(alphabet, alphabet.elements)
    n = len(alphabet.elements)
    table = np.zeros((n, n, n), dtype=np.int64)
    for m, triples in enumerate(matrices.values()):
        t = np.array(triples, dtype=np.int64).reshape(-1, 3)
        table[t[:, 0], m, t[:, 1]] = t[:, 2]
    return table


def table_entries(alphabet: LevelAlphabet, table: np.ndarray):
    """(lam, mu, nu, N^lam_{mu nu}) for every triple in index order, which is
    sorted label order since the alphabet is sorted.  Each weight is one list,
    shared by every entry that names it."""
    labels = [list(w) for w in alphabet.elements]
    triples = itertools.product(labels, repeat=3)
    return ((*t, n) for t, n in zip(triples, table.ravel().tolist()))


def verify_against_verlinde(alphabet: LevelAlphabet, table: np.ndarray) -> None:
    """Raise OracleError on the first triple, in index order, disagreeing with
    the Verlinde table."""
    import numpy as np

    oracle = verlinde_table(alphabet)
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
