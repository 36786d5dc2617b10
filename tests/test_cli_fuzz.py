"""Fuzz the one input path of the CLI with arbitrary and mutated link files.

`shadow` must end every input with exit 0, 2 or 3 and exactly one JSON
document, and `validate` must agree with it: ok for exit 0, otherwise the
same exit code with shadow's message as the first report entry.
`regularize` reads the same documents with one field value per face: it too
ends with exit 0, 2 or 3 and one JSON document, and exit 0 wherever shadow
has it, since a stepped field checks less of the file.  The budgets are
lowered so that the test stays fast and also reaches the refusals.
"""

import json

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from shadowsum import cli, fusion, reps

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
RANKS = {"A1": 1, "A2": 2, "B2": 2, "G2": 2}
AMBIENT_DIMS = {"A1": 2, "A2": 3, "B2": 2, "G2": 3}


@st.composite
def link_documents(draw):
    """A well-formed link file; k is any int, small ones more often, and ones of
    2200-4000 digits, which a refusal names by their order of magnitude."""
    group = draw(st.sampled_from(sorted(RANKS)))
    rank = RANKS[group]
    circles = []
    for i in range(draw(st.integers(0, 4))):
        circles.append({
            "id": f"c{i}",
            "parent": draw(st.sampled_from([None] + [f"c{j}" for j in range(i)])),
            "winding": draw(st.integers(-3, 3)),
            "positive_side": draw(st.sampled_from(["inside", "outside"])),
            "color": draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank)),
        })
    k = draw(st.integers(5, 9) | st.integers() | st.integers(10**2199, 10**4000 - 1))
    return {"group": group, "k": k, "circles": circles}


@st.composite
def mutated_link_documents(draw):
    """A well-formed link file with up to three keys deleted or replaced by any JSON."""
    doc = draw(link_documents())
    for _ in range(draw(st.integers(1, 3))):
        circles = doc.get("circles")
        targets = [doc]
        if isinstance(circles, list):
            targets += [c for c in circles if isinstance(c, dict)]
        target = draw(st.sampled_from(targets))
        key = draw(st.sampled_from(sorted(target) or ["k"]) | st.text(max_size=6))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(JSON | st.integers())
    return doc


def face_values(doc) -> str:
    """--face-values for `doc`: one regular field value per face when its circles
    are a list (one value otherwise), with the ambient dimension of its group."""
    doc = doc if isinstance(doc, dict) else {}
    circles, group = doc.get("circles"), doc.get("group")
    faces = len(circles) + 1 if isinstance(circles, list) else 1
    dim = AMBIENT_DIMS.get(group, 2) if isinstance(group, str) else 2
    return ";".join([",".join(["1/11", "-1/13", "1/17"][:dim])] * faces)


def _reject(constant):
    raise AssertionError(f"{constant} is not JSON")


def run(capsys, argv):
    """cli.main in this process: (exit code, the one strict JSON document on stdout)."""
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert out.count("\n") == 1, out
    return rc, json.loads(out, parse_constant=_reject)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=JSON | link_documents() | mutated_link_documents(), diagnostics=st.booleans())
def test_shadow_exits_cleanly_and_validate_agrees(doc, diagnostics, tmp_path, capsys, monkeypatch):
    # the least budget that admits every alphabet a box of 40 label vectors did:
    # G2 at k = 11, 20 weights of 6 positive roots
    monkeypatch.setattr(reps, "MAX_ALPHABET_PAIRS", 120)
    monkeypatch.setattr(fusion, "MAX_FUSION_COEFFS", 200)  # |A|^2 per colour: |A| <= 14 for one colour
    monkeypatch.setattr(cli, "MAX_LISTED_TERMS", 2000)
    path = tmp_path / "link.json"
    path.write_text(json.dumps(doc))

    rrc, _ = run(capsys, ["regularize", "--n", "1", str(path), "--face-values", face_values(doc)])
    assert rrc in (0, 2, 3)
    event(f"regularize exit {rrc}")
    rc, out = run(capsys, ["shadow", str(path)] + ["--diagnostics"] * diagnostics)
    assert rc in (0, 2, 3)
    assert rrc == 0 or rc != 0
    if rc and "budget" in out["error"]["message"]:
        event("shadow refused by a budget")
        return
    event(f"shadow exit {rc}")
    vrc, verdict = run(capsys, ["validate", str(path)])
    if rc == 0:
        assert (vrc, verdict) == (0, {"ok": True, "report": []})
    else:
        assert vrc == rc == out["error"]["exit"]
        assert verdict["report"][0]["message"] == out["error"]["message"]
