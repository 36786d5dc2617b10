"""Fusion coefficients and a Verlinde cross-check.

The fusion coefficient N^nu_{mu lam}, the multiplicity of nu in the level-k
fusion product of mu and lam, is the signed sum over the quantum Weyl group
W_k (the affine Weyl group conjugated by psi_k: b -> k b - rho) of weight
multiplicities of mu:

    N^nu_{mu lam} = sum_{tau in W_k} sgn(tau) m_mu(nu - tau(lam))

Only finitely many tau contribute, because m_mu vanishes outside the convex
hull of the mu-orbit; those are enumerated exactly by running over the
(finite) support of m_mu and folding each candidate point into the
fundamental alcove of the level-k action (Kac-Walton).  `fusion_matrices` is
the one evaluator of that sum: for each distinct mu, all N^nu_{mu lam} as an
integer matrix over the level alphabet held by rows (`Rows`), lam the row and
nu the column: rows[a] maps each column b of a nonzero entry to it, a Python
int, with keys in increasing b.  The transpose holds N^lam_{mu nu} = N^nu_{mu* lam}
instead; the two agree only for a self-dual mu.  The matrices are sparse
(0.3-9% nonzero on small colours), so nothing dense is built for the state sum.
`QuantumWeylGroup.fold` folds one rho-shifted point.  The candidate points of one call repeat
across columns, weights and colours, so each is folded once: the one fold
cache of a call maps a point's integer mixed-radix key to its alphabet row
and sign, for every mu.  The key of nu + rho - beta
is the key of nu + rho minus that of beta, one subtraction.  The full table
(`build_fusion_table`) folds only the fundamental weights, through
`fusion_matrices`, and builds every other matrix by the fusion-ring
recursion, in exact integers; it is one flat list of |A|^3 Python ints
in (lam, mu, nu) index order, and the module uses no numpy.  The Verlinde
oracle `verlinde_table` recomputes the whole table from one modular
S-matrix and shares nothing with the folding path but the budget check.
S is symmetric, so each entry is formed once per unordered pair, its phase
read from a table of roots of unity by an exact integer form; the
contraction runs in Python complex once per unordered triple and writes its
rounded value to each ordering of the triple.  Its gate is the fixed
ORACLE_TOL: a Verlinde value farther than that from an integer is an oracle
failure (at most 2.2e-12 measured, on alphabets up to G2 k=20).
"""

from __future__ import annotations

import cmath
import itertools
import math
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import OracleError, require_budget
from .reps import Labels, LevelAlphabet, weight_multiplicities
from .roots import RootSystem, weyl_group_order, weyl_orbit

_FOLD_LIMIT = 100_000
# Budget of one call: the integers it computes, |A|^2 per matrix (|A|^3 for the full table).
MAX_FUSION_COEFFS = 10**6
# Budget of `verlinde_table`: Weyl-orbit phases of the S-matrix, |W| * |A|^2.
MAX_VERLINDE_ORBIT_TERMS = 2 * 10**5
# Gate of `verlinde_table`: largest distance of a Verlinde value from its integer.
ORACLE_TOL = 1e-6

# One fusion matrix M by rows: rows[a] = {b: M[a, b]} over its nonzero entries, b increasing.
Rows = list[dict[int, int]]


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


def fusion_matrices(alphabet: LevelAlphabet, gammas: Iterable[Sequence[int]]) -> dict[Labels, Rows]:
    """N_gamma[a, b] = N^{A[b]}_{gamma A[a]} over the level alphabet A, exactly,
    for each distinct gamma in first-seen order, by rows: rows[a] = {b:
    N_gamma[a, b]} over the nonzero entries, b increasing, the fusion product
    of gamma and A[a].  Refused as a whole, before any fold, when the |A|^2
    coefficients per gamma add up to more than MAX_FUSION_COEFFS; a gamma
    outside the alphabet is refused before its own folds.

    N^nu_{gamma lam} = sum_{tau in W_k} sgn(tau) m_gamma(nu - tau(lam)).  For
    column b (nu = A[b]) and each weight beta in the support of m_gamma, the
    point nu + rho - beta equals tau(lam + rho) for at most one lam = A[a];
    alcove folding finds it and its sign (or a wall, where stabilized points
    contribute canceling pairs and are skipped).

    The fold cache, one for all the colours, maps the key of every point
    folded so far to (row of the folded point in A, sign), sign 0 on a wall.
    The key of a point x is sum_i (x_i + 3k) (7k)^(rank-1-i).  A weight beta
    of V(gamma) has |beta_i| < 3k: beta_i = <beta, alpha_i^vee> is at most the
    pairing of gamma with the highest coroot, which is at most the lacing
    number (at most 3) times the level of gamma (below k).  So every digit of
    nu + rho - beta lies in 0..7k-1, and its key is the key of nu + rho minus
    sum_i beta_i (7k)^(rank-1-i).
    """
    distinct = list(dict.fromkeys(tuple(int(v) for v in g) for g in gammas))
    rs, k = alphabet.rs, alphabet.k
    require_budget(len(alphabet.elements) ** 2 * len(distinct), MAX_FUSION_COEFFS,
                   f"{len(distinct)} fusion matrices of {rs.name} at k = {k}", "coefficients")
    places = [(7 * k) ** p for p in range(rs.rank - 1, -1, -1)]
    shifted = [tuple(v + 1 for v in lam) for lam in alphabet.elements]
    index = {x: a for a, x in enumerate(shifted)}
    bases = [sum((v + 3 * k) * p for v, p in zip(x, places)) for x in shifted]
    qwg = QuantumWeylGroup(rs=rs, k=k)
    folds: dict[int, tuple[int, int]] = {}
    matrices: dict[Labels, Rows] = {}
    for g in distinct:
        gamma = alphabet.require(g, "gamma")
        support = [(beta, sum(v * p for v, p in zip(beta, places)), m)
                   for beta, m in weight_multiplicities(rs, gamma).multiplicities.items()]
        rows: Rows = [{} for _ in shifted]
        for b, (x, base) in enumerate(zip(shifted, bases)):
            column: dict[int, int] = {}  # a -> N_gamma[a, b]
            for beta, offset, m in support:
                hit = folds.get(base - offset)
                if hit is None:
                    folded, sign = qwg.fold([v - w for v, w in zip(x, beta)])
                    row = 0 if folded is None else index.get(folded)
                    if row is None:
                        raise AssertionError(
                            f"a folded point for gamma = {gamma} is not in the alphabet")
                    hit = folds[base - offset] = (row, sign)
                row, sign = hit
                if sign:
                    column[row] = column.get(row, 0) + sign * m
            for a, c in column.items():
                if c < 0:
                    raise AssertionError(f"negative fusion coefficient for gamma = {gamma}")
                if c:
                    rows[a][b] = c
        matrices[gamma] = rows
    return matrices


# -- Verlinde oracle ---------------------------------------------------------


def _s_matrix(alphabet: LevelAlphabet) -> tuple[list[list[complex]], list[int]]:
    """Unnormalized S-matrix entries via the Weyl sum, as |A| rows of |A|, and
    the alphabet index of each weight's dual.

    s[lam][mu] = sum_{w in W} sgn(w) exp(-2 pi i <w(lam+rho), mu+rho> / k) = s[mu][lam],
    as <w(x), y> = <x, w^-1(y)> and sgn(w^-1) = sgn(w): the orbit of lam + rho
    gives s[lam][mu] for mu >= lam, copied into s[mu][lam].
    On labels <x, y> = x G y / weight_form_den with the integer Gram matrix
    G, so the phases of one orbit are one integer product, reduced exactly
    modulo the period k * weight_form_den and read from a table of the
    period's roots of unity.  The overall normalization constant cancels in
    the Verlinde ratio once divided by sum_sigma |s[0][sigma]|^2 (row-0
    unitarity).  The orbit of lam + rho that builds row lam holds one
    antidominant point, -(lam* + rho), which gives the dual lam*.
    """
    rs = alphabet.rs
    period = alphabet.k * rs.weight_form_den
    unit = [cmath.exp(-2j * math.pi * p / period) for p in range(period)]
    shifted = [tuple(m + 1 for m in lam) for lam in alphabet.elements]
    paired = [[sum(map(mul, row, y)) for row in rs.weight_gram_num] for y in shifted]
    rows, dual = [[0j] * len(shifted) for _ in shifted], []
    for a, x in enumerate(shifted):
        orbit = weyl_orbit(rs, x)
        plus = [p for p, sign in orbit if sign > 0]
        minus = [p for p, sign in orbit if sign < 0]
        for b, y in enumerate(paired[a:], a):
            rows[a][b] = rows[b][a] = (sum(unit[sum(map(mul, p, y)) % period] for p in plus)
                                       - sum(unit[sum(map(mul, p, y)) % period] for p in minus))
        anti = next(p for p, _ in orbit if max(p) < 0)
        dual.append(alphabet.index([-v - 1 for v in anti]))
    return rows, dual


def verlinde_table(alphabet: LevelAlphabet) -> list[int]:
    """V[l, m, n] = N^{A[n]}_{A[l] A[m]} from the Verlinde sum over one S-matrix,
    as one flat list of |A|^3 ints in (l, m, n) index order.

    V = sum_sigma s[l, sigma] s[m, sigma] conj(s[n, sigma]) / s[0, sigma],
    divided by sum_sigma |s[0, sigma]|^2.  N_{abc} = V[a, b, c*] is symmetric
    in a, b and c (c* the dual weight, read from the orbit pass of the S row
    of c: c* + rho is minus its antidominant point), so the sum runs once for
    each a <= b <= c and its value is written to V[l, m, x*] for every
    ordering (l, m, x) of (a, b, c).  Every value is rounded from a float
    within ORACLE_TOL of an integer; a larger residue is an oracle failure (a
    bug, not bad input), naming the first such triple in index order.
    """
    n, rs = len(alphabet.elements), alphabet.rs
    at = f"of {rs.name} at k = {alphabet.k}"
    require_budget(n ** 3, MAX_FUSION_COEFFS, f"the Verlinde table {at}", "coefficients")
    require_budget(weyl_group_order(rs) * n ** 2, MAX_VERLINDE_ORBIT_TERMS,
                   f"the Verlinde S-matrix {at}", "Weyl-orbit terms (|W| |A|^2)")
    s, dual = _s_matrix(alphabet)
    s0 = s[alphabet.index((0,) * rs.rank)]
    norm = sum(abs(z) ** 2 for z in s0)
    third = [[v.conjugate() / (z * norm) for v, z in zip(s[c], s0)] for c in dual]
    table, far = [0] * n ** 3, {}
    for a in range(n):
        for b in range(a, n):
            ab = list(map(mul, s[a], s[b]))
            for c, t in enumerate(third[b:], b):
                v = sum(map(mul, ab, t))
                value = round(v.real)
                if abs(v - value) > ORACLE_TOL:
                    far[a, b, c] = v
                for l, m, x in itertools.permutations((a, b, c)):
                    table[(l * n + m) * n + dual[x]] = value
    if far:
        # (a, b, c*) is the first of the orderings of a far (a, b, c) in index order
        l, m, nu = min((a, b, dual[c]) for a, b, c in far)
        v = far[l, m, dual[nu]]
        elems = alphabet.elements
        raise OracleError(
            f"Verlinde sum {v} for {(elems[l], elems[m], elems[nu])} at "
            f"{rs.name}, k={alphabet.k} is {abs(v - round(v.real)):.3e} from an "
            f"integer (tolerance {ORACLE_TOL:.1e})"
        )
    return table


# -- tables -------------------------------------------------------------------


def build_fusion_table(alphabet: LevelAlphabet) -> list[int]:
    """T[l, m, n] = N^{A[n]}_{A[l] A[m]} as one flat list of |A|^3 ints in
    (l, m, n) index order, by the fusion-ring recursion from the fundamental
    matrices.  Row l of N_{A[m]} (`fusion_matrices`) is T[l, m, :].

    N_0 is the identity, and `fusion_matrices` folds the fundamental weights of
    the alphabet, all through one fold cache.  Every other kappa, with first
    nonzero label i and lam = kappa - omega_i, follows from the ring relation
    N_{omega_i} N_lam = sum_nu N^nu_{omega_i lam} N_nu: the coefficients are
    row index(lam) of N_{omega_i}, that of N_kappa is 1, and every other nu
    lies below kappa in dominance order.  So the weights are visited by
    increasing height, the sum of their simple-root coordinates (ordered by
    det(C) > 0 times it, from the row sums of `cartan_adjugate`), and N_kappa is
    N_{omega_i} N_lam less the other terms, in exact sparse integer rows.  A
    coefficient of N_kappa other than 1, or a negative entry, raises AssertionError.
    """
    elems = alphabet.elements
    n = len(elems)
    require_budget(n ** 3, MAX_FUSION_COEFFS,
                   f"{n} fusion matrices of {alphabet.rs.name} at k = {alphabet.k}", "coefficients")
    heights = [sum(row) for row in alphabet.rs.cartan_adjugate]
    fundamentals = fusion_matrices(alphabet, (w for w in elems if sum(w) == 1))
    rows: list[Rows] = [[]] * n  # rows[m] = N_{A[m]}; keys unsorted past the fundamentals
    for kappa in sorted(range(n), key=lambda c: sum(map(mul, elems[c], heights))):
        labels = elems[kappa]
        if not any(labels):
            rows[kappa] = [{a: 1} for a in range(n)]
            continue
        if sum(labels) == 1:
            rows[kappa] = fundamentals[labels]
            continue
        i = next(i for i, v in enumerate(labels) if v)
        omega = rows[alphabet.index([int(j == i) for j in range(len(labels))])]
        lam = alphabet.index([v - (j == i) for j, v in enumerate(labels)])
        coeffs, lam_rows = omega[lam], rows[lam]
        if coeffs.get(kappa) != 1:
            raise AssertionError(f"N_{labels} has coefficient {coeffs.get(kappa, 0)} in the "
                                 "fusion-ring relation that defines it, not 1")
        product = []
        for row in omega:
            acc: dict[int, int] = {}
            for b, c in row.items():
                for d, e in lam_rows[b].items():
                    acc[d] = acc.get(d, 0) + c * e
            product.append(acc)
        for nu, c in coeffs.items():
            if nu != kappa:
                for acc, row in zip(product, rows[nu]):
                    for d, e in row.items():
                        acc[d] = acc.get(d, 0) - c * e
        if any(e < 0 for acc in product for e in acc.values()):
            raise AssertionError(f"negative fusion coefficient for gamma = {labels}")
        rows[kappa] = [{d: e for d, e in acc.items() if e} for acc in product]
    table = [0] * n ** 3
    for m, matrix in enumerate(rows):
        for l, row in enumerate(matrix):
            base = (l * n + m) * n
            for nu, c in row.items():
                table[base + nu] = c
    return table


def verify_against_verlinde(alphabet: LevelAlphabet, table: list[int]) -> None:
    """Raise OracleError on the first triple, in index order, disagreeing with
    the Verlinde table."""
    oracle = verlinde_table(alphabet)
    triples = itertools.product(alphabet.elements, repeat=3)
    for (lam, mu, nu), got, want in zip(triples, table, oracle):
        if got != want:
            raise OracleError(
                f"fusion table entry N^{nu}_({lam},{mu}) = {got} disagrees with "
                f"Verlinde oracle value {want}"
            )


def table_lines(alphabet: LevelAlphabet, table: list[int]) -> list[str]:
    """Plain-text export, one 'lam mu nu N' per line (label coords comma-joined),
    N = N^nu_{lam mu}."""
    labels = [",".join(map(str, w)) for w in alphabet.elements]
    triples = itertools.product(labels, repeat=3)
    return [f"{lam} {mu} {nu} {n}" for (lam, mu, nu), n in zip(triples, table)]
