"""Fusion coefficients by alcove folding.

The fusion coefficient N^nu_{mu lam}, the multiplicity of nu in the level-k
fusion product of mu and lam, is the signed sum over the quantum Weyl group
W_k (the affine Weyl group conjugated by psi_k: b -> k b - rho) of weight
multiplicities of mu:

    N^nu_{mu lam} = sum_{tau in W_k} sgn(tau) m_mu(nu - tau(lam))

Only finitely many tau contribute, because m_mu vanishes outside the convex
hull of the mu-orbit; those are enumerated exactly by running over the (finite)
support of m_mu and folding each candidate point into the fundamental alcove of
the level-k action (Kac-Walton), by one affine `roots.to_dominant`.  `fusion_matrices` is
the one evaluator of that sum: for each distinct mu, all N^nu_{mu lam} as an
integer matrix over the level alphabet held by rows (`Rows`), lam the row and
nu the column: rows[a] maps each column b of a nonzero entry to it, a Python
int, with keys in increasing b.  The transpose holds N^lam_{mu nu} = N^nu_{mu* lam}
instead; the two agree only for a self-dual mu.  The matrices are sparse
(0.3-9% nonzero on small colours), so nothing dense is built for the state sum.
`QuantumWeylGroup.fold` folds one rho-shifted point.  The candidate points of one call repeat
across columns, weights and colours, so each is folded once: the one fold
cache of a call maps each point it has folded to its alphabet row and sign,
for every mu.  This is all a `shadow` job runs of fusion; the full table of
the `fusion` command, its Verlinde oracle and its export are `fusion_table`'s.
The module uses no numpy.
"""

from __future__ import annotations

from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .errors import OracleError, require_budget
from .reps import Labels, LevelAlphabet, weight_multiplicities, weyl_dimension
from .roots import RootSystem, to_dominant

# Budget of one call: the integers it computes, |A|^2 per matrix (|A|^3 for the full table).
MAX_FUSION_COEFFS = 10**6
# Budget of one call's Freudenthal recursions: sum over its colours of dim V(gamma) |R+|.
MAX_MULTIPLICITY_PAIRS = 10**6

# One fusion matrix M by rows: rows[a] = {b: M[a, b]} over its nonzero entries, b increasing.
Rows = list[dict[int, int]]


class QuantumWeylGroup(NamedTuple):
    """Level-k alcove data for the psi_k-conjugated affine Weyl group.

    In the rho-shifted picture x = lam + rho, the group acts by
    x -> w(x) + k*gamma (w in W, gamma a coroot-lattice vector), with
    fundamental domain {x dominant, <x, theta> <= k}: the dominant chamber of the
    affine Weyl group on the affine labels (k - <x, theta>, x), where `fold` runs
    `roots.to_dominant` on `RootSystem.affine_cartan_matrix`.  Points of the open
    alcove have trivial stabilizer; points on a wall are fixed by a
    reflection, so their orbit contributions cancel in signed sums.
    """

    rs: RootSystem
    k: int

    def fold(self, point: Sequence[int]) -> tuple[Labels | None, int]:
        """Fold one rho-shifted point, given by its labels, into the fundamental alcove.

        Returns (folded, sign): the folded point and the sign
        (-1)^(reflections applied) of an alcove-interior point, or (None, 0)
        for a point on a wall (a zero affine label: vanishing signed-orbit sum).
        The affine walk ends for every point, as k > 0.
        """
        m, sign = to_dominant(self.rs.affine_cartan_matrix,
                              (self.k - self.rs.level_of_labels(point), *point))
        return (None, 0) if 0 in m else (m[1:], sign)


def fusion_matrices(alphabet: LevelAlphabet, gammas: Iterable[Sequence[int]]) -> dict[Labels, Rows]:
    """N_gamma[a, b] = N^{A[b]}_{gamma A[a]} over the level alphabet A, exactly,
    for each distinct gamma in first-seen order, by rows: rows[a] = {b:
    N_gamma[a, b]} over the nonzero entries, b increasing, the fusion product
    of gamma and A[a].  Refused as a whole, before any fold, when the |A|^2
    coefficients per gamma add up to more than MAX_FUSION_COEFFS; then when a
    gamma lies outside the alphabet; then, before any Freudenthal recursion,
    when the sum of dim V(gamma) |R+| over the gammas, a count of the
    recursions' work (dim V is at least V's number of weights), passes
    MAX_MULTIPLICITY_PAIRS.

    N^nu_{gamma lam} = sum_{tau in W_k} sgn(tau) m_gamma(nu - tau(lam)).  For
    column b (nu = A[b]) and each weight beta in the support of m_gamma, the
    point nu + rho - beta equals tau(lam + rho) for at most one lam = A[a];
    alcove folding finds it and its sign (or a wall, where stabilized points
    contribute canceling pairs and are skipped).  The fold cache, one for all
    the colours, maps every point folded so far to (row of the folded point in
    A, sign), sign 0 on a wall.
    """
    distinct = list(dict.fromkeys(map(tuple, gammas)))
    rs, k = alphabet.rs, alphabet.k
    require_budget(len(alphabet.elements) ** 2 * len(distinct), MAX_FUSION_COEFFS,
                   f"{len(distinct)} fusion matrices of {rs.name} at k = {k}", "coefficients")
    colours = [alphabet.require(g, "gamma") for g in distinct]
    require_budget(sum(weyl_dimension(rs, g) for g in colours) * len(rs.root_forms),
                   MAX_MULTIPLICITY_PAIRS,
                   f"the weight multiplicities of {len(colours)} colour{'s' * (len(colours) != 1)} "
                   f"of {rs.name} at k = {k}",
                   "dimension-root pairs (dim V |R+|)")
    shifted = [tuple(v + 1 for v in lam) for lam in alphabet.elements]
    index = {x: a for a, x in enumerate(shifted)}
    qwg = QuantumWeylGroup(rs=rs, k=k)
    folds: dict[Labels, tuple[int, int]] = {}
    matrices: dict[Labels, Rows] = {}
    for gamma in colours:
        support = weight_multiplicities(rs, gamma).multiplicities.items()
        rows: Rows = [{} for _ in shifted]
        for b, x in enumerate(shifted):
            column: dict[int, int] = {}  # a -> N_gamma[a, b]
            for beta, m in support:
                point = tuple(map(sub, x, beta))
                hit = folds.get(point)
                if hit is None:
                    folded, sign = qwg.fold(point)
                    row = 0 if folded is None else index.get(folded)
                    if row is None:
                        raise OracleError(
                            f"a folded point for gamma = {gamma} is not in the alphabet")
                    hit = folds[point] = (row, sign)
                row, sign = hit
                if sign:
                    column[row] = column.get(row, 0) + sign * m
            for a, c in column.items():
                if c < 0:
                    raise OracleError(f"negative fusion coefficient for gamma = {gamma}")
                if c:
                    rows[a][b] = c
        matrices[gamma] = rows
    return matrices
