"""Quantum dimensions, fusion coefficients, and a Verlinde cross-check.

The fusion coefficient N^lam_{mu nu} is the signed sum over the quantum
Weyl group W_k (the affine Weyl group conjugated by psi_k: b -> k b - rho)
of weight multiplicities of the middle representation:

    N^lam_{mu nu} = sum_{tau in W_k} sgn(tau) m_mu(nu - tau(lam))

Only finitely many tau contribute, because m_mu vanishes outside the convex
hull of the mu-orbit; those are enumerated exactly by running over the
(finite) support of m_mu and folding each candidate point into the
fundamental alcove of the level-k action.  The Verlinde oracle recomputes
the same numbers from the modular S-matrix and is kept fully independent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import OracleError, PreconditionError
from .reps import Labels, LevelAlphabet, weight_multiplicities
from .roots import RootSystem, weyl_orbit

_FOLD_LIMIT = 100_000
MAX_FUSION_TRIPLES = 10**6  # budget of `build_fusion_table`: |A|^3 coefficients


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


def fusion_coefficient(
    qwg: QuantumWeylGroup,
    alphabet: LevelAlphabet,
    lam: Sequence[int],
    mu: Sequence[int],
    nu: Sequence[int],
) -> int:
    """N^lam_{mu nu} = sum_{tau in W_k} sgn(tau) m_mu(nu - tau(lam)), exactly.

    For each weight beta in the support of m_mu the point nu + rho - beta
    equals w(lam + rho) + k gamma for at most one group element; alcove
    folding finds it (or detects a wall, where stabilized points contribute
    canceling pairs and are skipped).
    """
    if qwg.k != alphabet.k or qwg.rs is not alphabet.rs:
        raise PreconditionError("fusion inputs built for different root system or level")
    lam = _require_in_alphabet(alphabet, lam, "lambda")
    mu = _require_in_alphabet(alphabet, mu, "mu")
    nu = _require_in_alphabet(alphabet, nu, "nu")
    rs = alphabet.rs
    rho = (1,) * rs.rank
    lam_shift = tuple(a + b for a, b in zip(lam, rho))
    total = 0
    for beta, m in weight_multiplicities(rs, mu).multiplicities.items():
        target = tuple(n + r - b for n, r, b in zip(nu, rho, beta))
        folded, sign = qwg.fold(target)
        if folded == lam_shift:
            total += sign * m
    if total < 0:
        raise AssertionError(f"negative fusion coefficient for {(lam, mu, nu)}")
    return total


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


@dataclass(frozen=True)
class FusionTable:
    """All coefficients N^lam_{mu nu} over one level alphabet."""

    alphabet: LevelAlphabet
    coefficients: dict[tuple[Labels, Labels, Labels], int]

    def get(self, lam, mu, nu) -> int:
        return self.coefficients[(tuple(lam), tuple(mu), tuple(nu))]


def build_fusion_table(alphabet: LevelAlphabet) -> FusionTable:
    """Compute every triple via the quantum-Weyl-group sum (at most MAX_FUSION_TRIPLES)."""
    triples = len(alphabet.elements) ** 3
    if triples > MAX_FUSION_TRIPLES:
        rs = alphabet.rs
        raise PreconditionError(
            f"the fusion table of {rs.type_label}{rs.rank} at k = {alphabet.k} holds "
            f"{triples} triples; the budget is {MAX_FUSION_TRIPLES}"
        )
    qwg = QuantumWeylGroup(rs=alphabet.rs, k=alphabet.k)
    coeffs = {}
    for mu in alphabet.elements:
        support = weight_multiplicities(alphabet.rs, mu).multiplicities
        rho = (1,) * alphabet.rs.rank
        for nu in alphabet.elements:
            sums: dict[Labels, int] = {}
            for beta, m in support.items():
                target = tuple(n + r - b for n, r, b in zip(nu, rho, beta))
                folded, sign = qwg.fold(target)
                if folded is not None:
                    sums[folded] = sums.get(folded, 0) + sign * m
            for lam in alphabet.elements:
                lam_shift = tuple(a + b for a, b in zip(lam, rho))
                n = sums.get(lam_shift, 0)
                if n < 0:
                    raise AssertionError(f"negative coefficient at {(lam, mu, nu)}")
                coeffs[(lam, mu, nu)] = n
    return FusionTable(alphabet=alphabet, coefficients=coeffs)


def verify_against_verlinde(table: FusionTable, tol: float = 1e-6) -> None:
    """Raise OracleError on the first triple disagreeing with the S-matrix."""
    for (lam, mu, nu), n in table.coefficients.items():
        v = verlinde_oracle(table.alphabet, lam, mu, nu, tol=tol)
        if v != n:
            raise OracleError(
                f"fusion table entry N^{lam}_({mu},{nu}) = {n} disagrees with "
                f"Verlinde oracle value {v}"
            )


def table_lines(table: FusionTable) -> list[str]:
    """Plain-text export, one 'lam mu nu N' per line (label coords comma-joined)."""
    out = []
    for (lam, mu, nu), n in sorted(table.coefficients.items()):
        out.append(
            " ".join(
                [
                    ",".join(map(str, lam)),
                    ",".join(map(str, mu)),
                    ",".join(map(str, nu)),
                    str(n),
                ]
            )
        )
    return out
