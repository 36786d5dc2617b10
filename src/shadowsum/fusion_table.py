"""The full fusion table of the `fusion` command, its Verlinde cross-check and its export.

The full table (`build_fusion_table`) folds only the fundamental weights,
through `fusion.fusion_matrices`, and builds every other matrix by the
fusion-ring recursion, in exact integers; it is one flat list of |A|^3
Python ints in (lam, mu, nu) index order.  The Verlinde oracle
`verlinde_table` recomputes the whole table from one modular S-matrix and
shares nothing with the folding path but the budget check.  S is
symmetric, so each entry is formed once per unordered pair, its phase read
from a table of roots of unity by an exact integer form; the contraction
runs in Python complex once per unordered triple and writes its rounded
value to each ordering of the triple.  Its gate is the fixed ORACLE_TOL: a
Verlinde value farther than that from an integer is an oracle failure (at
most 2.2e-12 measured, on alphabets up to G2 k=20).  `table_lines` and
`table_json` write the table as `fusion --dump` prints it.  Only the
`fusion` command loads this module, so a `shadow` job compiles none of it.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from operator import mul

from .errors import OracleError, require_budget
from .fusion import MAX_FUSION_COEFFS, Rows, fusion_matrices
from .reps import LevelAlphabet
from .roots import to_dominant, weyl_group_order, weyl_orbit

# Budget of `verlinde_table`: Weyl-orbit phases of the S-matrix, |W| * |A|^2.
MAX_VERLINDE_ORBIT_TERMS = 2 * 10**5
# Gate of `verlinde_table`: largest distance of a Verlinde value from its integer.
ORACLE_TOL = 1e-6


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
    unitarity).  The dual lam* is to_dominant(-(lam + rho)) - rho, as -w_0 maps
    lam + rho to lam* + rho.
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
        dual_x, _ = to_dominant(rs.cartan_matrix, [-v for v in x])
        dual.append(alphabet.index([v - 1 for v in dual_x]))
    return rows, dual


def verlinde_table(alphabet: LevelAlphabet) -> list[int]:
    """V[l, m, n] = N^{A[n]}_{A[l] A[m]} from the Verlinde sum over one S-matrix,
    as one flat list of |A|^3 ints in (l, m, n) index order.

    V = sum_sigma s[l, sigma] s[m, sigma] conj(s[n, sigma]) / s[0, sigma],
    divided by sum_sigma |s[0, sigma]|^2.  N_{abc} = V[a, b, c*] is symmetric
    in a, b and c (c* the dual weight, c* + rho the dominant W-conjugate of
    -(c + rho)), so the sum runs once for each a <= b <= c and its value is
    written to V[l, m, x*] for every ordering (l, m, x) of (a, b, c).  Every
    value is rounded from a float within ORACLE_TOL of an integer; a larger
    residue is an oracle failure (a bug, not bad input), naming the first such
    triple in index order.
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
    coefficient of N_kappa other than 1, or a negative entry, raises OracleError.
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
            raise OracleError(f"N_{labels} has coefficient {coeffs.get(kappa, 0)} in the "
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
            raise OracleError(f"negative fusion coefficient for gamma = {labels}")
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
    the Verlinde table; the triples are walked only when the tables differ."""
    oracle = verlinde_table(alphabet)
    if table == oracle:
        return
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


def table_json(doc: dict, table: list[int]) -> str:
    """The `fusion` document `doc` with its "entries" count replaced by one {"lam",
    "mu", "n", "nu"} dict per triple, as json.dumps(..., sort_keys=True) writes it.

    Each label of doc["alphabet"] is serialized once, and the list takes the place of
    the count, the only "entries" key of `doc`."""
    labels = [json.dumps(w) for w in doc["alphabet"]]
    entries = ", ".join(
        f'{{"lam": {l}, "mu": {m}, "n": {v}, "nu": {n}}}'
        for (l, m, n), v in zip(itertools.product(labels, repeat=3), table))
    head, tail = json.dumps(doc, sort_keys=True).split(f'"entries": {len(table)}')
    return f'{head}"entries": [{entries}]{tail}'
