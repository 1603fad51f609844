"""Serialization contract: pinned bytes of trace and report files, and the
fast formatting paths checked against per-element references."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gdcert.harness import (
    RunConfig,
    _csv_scalar,
    _csv_vector,
    _json_scalar,
    json_dumps,
    run_experiment,
)

SMOOTH_VALUE = ["smooth-value-log", "smooth-value-scaled",
                "smooth-value-distance"]

# Short runs that together produce every row shape the serializers write.
GOLDEN_RUNS = {
    # f_ref-based gap, amortized report rows, numpy-bool step_ok
    "gd-experts-ball": dict(problem="experts-alt", method="gd", steps=40,
                            feasible_set="ball", theorems=["gd-regret"]),
    "smooth-gd-p2": dict(problem="p2", method="smooth-gd", steps=40,
                         theorems=SMOOTH_VALUE),
    # violating steps from t = 4 on: false step_ok and ok
    "failed-potential-p3": dict(problem="p3", method="smooth-gd", steps=60,
                                theorems=["failed-potential"]),
    # y / z / f_y columns
    "agm2-p2": dict(problem="p2", method="agm2", steps=40,
                    theorems=["agm-smooth"]),
    # l1 dual norm, end checks with and without a note
    "mirror-negentropy-experts": dict(problem="experts-alt",
                                      method="mirror-negentropy", steps=40,
                                      feasible_set="simplex",
                                      theorems=["mirror-regret"]),
    "sc-agm-p3": dict(problem="p3", method="sc-agm", steps=40,
                      theorems=["agm-sc"]),
    # certification off: no phi / step_ok keys and no report file
    "uncertified-gd-p1": dict(problem="p1", method="gd", steps=30),
}

# SHA-256 of (trace, report) per run and format; None: no report is written.
# Computed with the per-element serializers the fast paths replaced, and
# never regenerated: a changed hash is a changed file format.
GOLDEN = {
    ("agm2-p2", "json"): (
        "abb56126d5c5e11e9da6ee08a2aa2dab3f3fd2263b5532863025e0838ed087fb",
        "ec372132684cd2eea925cfd5c17f71fca3424a57c7461177162caa0c0cfa9365"),
    ("agm2-p2", "csv"): (
        "9619a3394c11b334cd76a36b7e1d461ad18859a322d13232597d240bc3ccfa45",
        "e34381ff7f0b7d2b0847d19cd9eaec26e0d2e4985471f6ed40e514eb0e2e360e"),
    ("failed-potential-p3", "json"): (
        "202adc0b1528f2ac25fdd8992fcff68be7cde851bfc89b6c973380d2946c45fa",
        "f37df8d71a1bc1e28a8bae3b73621e65866a965e4ffd56bfdbef57af1815f797"),
    ("failed-potential-p3", "csv"): (
        "b301d6fffc13740013d1a00ccdd137fa4c16a345b1a37daeba3f560e7a27b310",
        "d9a79d0d0f705b140d6b3d8ebec7335ad3c0ca666f2ec9e337367765c2ccfc4e"),
    ("gd-experts-ball", "json"): (
        "c7ebb1e1a4d0496c51f579977406e9d4974805f4d78f5d7ef92b6ab528e7f51f",
        "7998f9ed479907fcafe5830d5f5981ac3fcead9906bd967d55e5b118b148d9c4"),
    ("gd-experts-ball", "csv"): (
        "b33df0ea04935849ef3b80a2b376c5010d9c197cdbf9bb092b4fd5f603bd7ab0",
        "508f6b501165eb735cc1af6e7223cc04a6c5889b6773fa7bb0069861cbf8df2e"),
    ("mirror-negentropy-experts", "json"): (
        "8486b075affb83f57088c930c0755d5926967da067a612dd2117fbf8ace586de",
        "a62132c7b19d5dcdc1f9683b7fac7092908b17d1a12dfa0267b0fee3eaf700ac"),
    ("mirror-negentropy-experts", "csv"): (
        "07e2fc20f89e2c82fc80c28b57fb5fe8d7a0bcf68c5444de7fc1d897c5b21383",
        "6e90bfc1168d7b7a782697b6d5b14605ccf5dbb5e92a5bd6ea7289758c2e8833"),
    ("sc-agm-p3", "json"): (
        "f5a1127de9e3caba9133024aaf895cafbd0e507f7bbf5972eca9d3cd01caf09f",
        "a09a4a856e71088cf69c7b426ecc838821930d0c070bdb9c244bab83b3c237b2"),
    ("sc-agm-p3", "csv"): (
        "325e6c9ff92643ba33adaeee807bc56925699c833263c40931c9a972d4179eec",
        "db349b30f12cced7439c9363671b993d3242869e634060f68d929b8612f85fee"),
    ("smooth-gd-p2", "json"): (
        "f50c3b34a5e6c5409928df5acac88a36afa05553deead325967638c55cead9be",
        "67c075039e39d3b5b875ec742a420e83c212faaa05af04c4c84acd6b84ef1a94"),
    ("smooth-gd-p2", "csv"): (
        "e3ec24c1779e38a94f3df67d01c7dccf1abd47efbaec81947c52c84c5020f277",
        "d1192756e7c27912c9ee2840199f39e73fab3e56692da1aabc99070061905661"),
    ("uncertified-gd-p1", "json"): (
        "e64dc38bc5b4ca578801b725191b512e6a1f2f8fbe2b9e2b096f0b1025d98917",
        None),
    ("uncertified-gd-p1", "csv"): (
        "d37aa04b6e2c2b56a9c5ac70de8ecb389369c93b95ce10fed326499da400bd14",
        None),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def written_hashes(name: str, fmt: str, out_dir) -> tuple:
    cfg = GOLDEN_RUNS[name]
    out = out_dir / f"{name}.{fmt}"
    run_experiment(RunConfig(certify=bool(cfg.get("theorems")), out=str(out),
                             fmt=fmt, **cfg))
    report = out_dir / f"{name}.report.{fmt}"
    return _sha256(out), _sha256(report) if report.exists() else None


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_written_bytes_are_pinned(name, fmt, tmp_path):
    assert written_hashes(name, fmt, tmp_path) == GOLDEN[(name, fmt)]


# --- fast paths against per-element references ------------------------------

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
           2.2250738585072009e-308, 1.7976931348623157e308,
           -1.7976931348623157e308]

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
any_floats = st.one_of(st.floats(), st.sampled_from(SPECIAL))


def float_arrays(elements):
    return hnp.arrays(np.float64, st.integers(0, 2_000), elements=elements)


def json_reference(obj) -> str:
    """JSON formatted one element at a time."""
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, list):
        return "[" + ",".join(json_reference(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + json_reference(v)
                              for k, v in obj.items()) + "}"
    return _json_scalar(obj)


@settings(deadline=None, max_examples=60)
@given(float_arrays(st.one_of(finite_floats, st.sampled_from(SPECIAL[3:]))))
def test_finite_array_matches_per_element_json(a):
    assert json_dumps(a) == "[" + ",".join(_json_scalar(v) for v in a.tolist()) + "]"


@settings(deadline=None, max_examples=60)
@given(float_arrays(any_floats))
def test_array_with_non_finite_matches_per_element_json(a):
    assert json_dumps(a) == "[" + ",".join(_json_scalar(v) for v in a.tolist()) + "]"


# one strategy per column kind; "mixed" draws a different kind per cell
CELLS = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "np-float": finite_floats.map(np.float64),
    "any-float": any_floats.map(np.float64),
    "int": st.integers(-2**70, 2**70),
    "np-int": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "np-bool": st.booleans().map(np.bool_),
    "none": st.none(),
    "array": hnp.arrays(np.float64, st.integers(0, 4), elements=any_floats),
}
CELLS["mixed"] = st.one_of(*CELLS.values())

# keys that need JSON escaping or contain the template's "%"
KEYS = ["t", "x", "100%", 'say "hi"', "%d", "\\n", "phi"]


@st.composite
def records(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
    keys = draw(st.permutations(KEYS))[:len(kinds)]
    n = draw(st.integers(0, 30))
    rows = [{k: draw(CELLS[kind]) for k, kind in zip(keys, kinds)}
            for _ in range(n)]
    if rows and draw(st.booleans()):  # a row with another key sequence
        rows[draw(st.integers(0, n - 1))].pop(keys[-1])
    return rows


@settings(deadline=None, max_examples=200)
@given(records())
def test_records_match_per_element_json(rows):
    text = json_dumps(rows)
    assert text == json_reference(rows)
    assert len(json.loads(text)) == len(rows)


@settings(deadline=None, max_examples=60)
@given(float_arrays(any_floats))
def test_csv_vector_matches_per_element_cells(a):
    assert _csv_vector(a) == ",".join(_csv_scalar(v) for v in a)
