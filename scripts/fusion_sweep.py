#!/usr/bin/env python3
"""Sweep fusion tables against the Verlinde oracle and time the runs.

Covers A1 (k <= 10), A2 and B2 (k <= 6): every triple is computed twice,
once by the fusion-ring recursion seeded by the quantum-Weyl-group folds of
the fundamental weights (`build_fusion_table`) and once from the modular
S-matrix, and compared exactly.  Also reports the worst residual of the
quantum-dimension ring identity, sum_nu N^nu_{lam mu} dim_q(nu) =
dim_q(lam) dim_q(mu).
"""

import itertools
import time
from operator import mul

from shadowsum.fusion import build_fusion_table, verlinde_table
from shadowsum.reps import level_alphabet, quantum_dimension
from shadowsum.roots import build_root_system


def main():
    total = 0
    t0 = time.time()
    for label, ks in [("A1", range(3, 11)), ("A2", range(4, 7)), ("B2", range(4, 7))]:
        rs = build_root_system(label)
        for k in ks:
            alphabet = level_alphabet(rs, k)
            t1 = time.time()
            table = build_fusion_table(alphabet)
            mismatches = sum(v != t for v, t in zip(verlinde_table(alphabet), table))
            dims = [quantum_dimension(alphabet, lam) for lam in alphabet.elements]
            n = len(dims)
            # row (l, m) of the flat table is N^nu_{lam mu} over nu
            worst_ring = max(abs(sum(map(mul, table[i * n:(i + 1) * n], dims)) - dims[l] * dims[m])
                             for i, (l, m) in enumerate(itertools.product(range(n), repeat=2)))
            n_triples = len(table)
            total += n_triples
            status = "ok" if mismatches == 0 else f"{mismatches} MISMATCHES"
            print(f"{label} k={k:<2} alphabet {len(alphabet.elements):>3} "
                  f"triples {n_triples:>5}  {status}  ring residual {worst_ring:.2e}  "
                  f"({time.time() - t1:.2f}s)")
    print(f"\n{total} triples verified in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
