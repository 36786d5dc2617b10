"""Output checks for benchmark jobs.

Each check reads only what the CLI prints (or writes with --output) and
never the `colorings`/`retained` fields, so it keeps working when the
enumerator or the full fusion table is replaced.

* shadow: the value must lie within SHADOW_REL_TOL * sum|term| of the value
  recorded at the reference commit.  A value-relative tolerance is
  meaningless for sums that cancel to (near) zero.
* fusion: the nonzero coefficients must equal the recorded ones exactly, as
  integers (compared through a digest of their canonical listing).
* qdim: every quantum dimension within QDIM_REL_TOL of the recorded one.
* det: the quadrature must agree with det_rig_constant in the same output.
* regularize: det_rig_n against the closed form prod_f (2 sin(pi a_f))^chi_f
  within the error the stage-n construction documents (log fit to 4^-n,
  degree-n Taylor exp), and the indicator near 1 (every field value is at
  least 3/20 from the walls).
* holonomy: product_trace against closed_form, which is exact for vertical
  ribbons; the tolerance scales with the representation dimension.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

SHADOW_REL_TOL = 1e-9
QDIM_REL_TOL = 1e-9
DET_REL_TOL = 1e-9
REG_INDICATOR_TOL = 1e-2
HOLONOMY_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _complex(d) -> complex:
    return complex(float(d["re"]), float(d["im"]))


def fusion_entries(text: str, fmt: str) -> dict[tuple, int]:
    """Nonzero fusion coefficients from a JSON or text export."""
    out = {}
    if fmt == "text":
        for line in text.splitlines():
            if not line.strip():
                continue
            lam, mu, nu, n = line.split()
            if int(n):
                out[(lam, mu, nu)] = int(n)
        return out
    doc = json.loads(text)
    if doc.get("verified") is not True:
        raise CheckFailed("fusion export does not report verified = true")
    for e in doc["entries"]:
        if int(e["n"]):
            key = tuple(",".join(str(int(x)) for x in e[f]) for f in ("lam", "mu", "nu"))
            out[key] = int(e["n"])
    return out


def fusion_digest(entries: dict[tuple, int]) -> str:
    h = hashlib.sha256()
    for key in sorted(entries):
        h.update((" ".join(key) + f" {entries[key]}\n").encode())
    return h.hexdigest()


def stage_error_bound(n: int, z: float, abs_chi: int) -> float:
    """Twice the error bound of the stage-n determinant of an A1 stepped field.

    The stage-n value is exp^(n)(z + d): z = sum_f chi_f log(2 sin(pi a_f)),
    |d| <= eps = sum|chi_f| * max(4^-n, 2e-11) from the log fit, and exp^(n)
    the degree-n Taylor polynomial, off by at most |w|^(n+1)/(n+1)! e^|w|.
    """
    eps = abs_chi * max(4.0 ** -n, 2e-11)
    w = abs(z) + eps
    taylor = w ** (n + 1) / math.factorial(n + 1) * math.exp(w)
    return 2.0 * (math.exp(z) * math.expm1(eps) + taylor)


def _close(a: complex, b: complex, tol: float) -> bool:
    return math.isfinite(abs(a)) and abs(a - b) <= tol


def check(job: dict, text: str, refs: dict) -> None:
    """Raise CheckFailed unless `text` (the job's output) is correct."""
    spec = job["check"]
    kind = spec["kind"]
    if kind == "shadow":
        ref = refs[spec["ref"]]
        value = _complex(json.loads(text)["value"])
        want = complex(ref["re"], ref["im"])
        tol = SHADOW_REL_TOL * ref["abs_sum"]
        if not _close(value, want, tol):
            raise CheckFailed(f"shadow value {value} differs from {want} by more than {tol:.3g}")
    elif kind == "fusion":
        ref = refs[spec["ref"]]
        entries = fusion_entries(text, spec["format"])
        if len(entries) != ref["nonzero"] or fusion_digest(entries) != ref["digest"]:
            raise CheckFailed(f"fusion coefficients differ from the reference ({len(entries)} nonzero)")
    elif kind == "qdim":
        ref = refs[spec["ref"]]
        got = {tuple(q["weight"]): float(q["qdim"]) for q in json.loads(text)["qdims"]}
        want = {tuple(w): q for w, q in ref["qdims"]}
        if got.keys() != want.keys():
            raise CheckFailed("qdim weights differ from the reference")
        for w, q in want.items():
            if not _close(got[w], q, QDIM_REL_TOL * abs(q)):
                raise CheckFailed(f"qdim of {w} is {got[w]}, expected {q}")
    elif kind == "det":
        doc = json.loads(text)
        quad, const = float(doc["det_rig_quadrature"]), float(doc["det_rig_constant"])
        if not (const > 0 and _close(quad, const, DET_REL_TOL * const)):
            raise CheckFailed(f"quadrature {quad} disagrees with det_rig_constant {const}")
    elif kind == "regularize":
        doc = json.loads(text)
        n = int(spec["n"])
        z = sum(chi * math.log(2.0 * math.sin(math.pi * float(Fraction(a))))
                for a, chi in zip(spec["alphas"], spec["chis"]))
        closed = math.exp(z)
        tol = stage_error_bound(n, z, sum(abs(c) for c in spec["chis"]))
        if len(spec["chis"]) > 1 and doc["faces"] != len(spec["chis"]):
            raise CheckFailed(f"{doc['faces']} faces, expected {len(spec['chis'])}")
        det = _complex(doc["det_rig_n"])
        if not _close(det, closed, tol):
            raise CheckFailed(f"det_rig_n {det} is not within {tol:.3g} of {closed}")
        if not abs(float(doc["indicator"]) - 1.0) <= REG_INDICATOR_TOL:
            raise CheckFailed(f"indicator {doc['indicator']} is not near 1 on a regular field")
    elif kind == "holonomy":
        doc = json.loads(text)
        pt, cf = _complex(doc["product_trace"]), _complex(doc["closed_form"])
        if not _close(pt, cf, HOLONOMY_TOL * spec["dim"]):
            raise CheckFailed(f"product_trace {pt} disagrees with closed_form {cf}")
    else:
        raise CheckFailed(f"unknown check kind {kind!r}")
