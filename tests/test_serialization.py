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

from gdcert.certify import CertReport
from gdcert.core import Norm, dual_norm
from gdcert.harness import (
    _BLOCK,
    RunConfig,
    _grad_norms,
    _json_scalar,
    _Table,
    _table_blocks,
    emit_report,
    json_dumps,
    report_to_csv,
    run_experiment,
    trace_to_csv,
    trace_to_dict,
)
from gdcert.trace import Trace

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
    # the end checks no run above reaches
    "sc-gd-p1": dict(problem="p1", method="sc-gd", steps=30,
                     theorems=["sc-regret", "sc-average"]),
    # the "projected" report constant and the projected-smoothness check
    "smooth-gd-p2-ball": dict(problem="p2", method="smooth-gd", steps=30,
                              feasible_set="ball", theorems=["smooth-projected"]),
    "frank-wolfe-p2-simplex": dict(problem="p2", method="frank-wolfe", steps=30,
                                   feasible_set="simplex", x0=[0.5, 0.5],
                                   theorems=["frank-wolfe"]),
    "frank-wolfe-log-p2-box": dict(problem="p2", method="frank-wolfe", steps=30,
                                   feasible_set="box", schedule="fw-1t",
                                   theorems=["frank-wolfe-log"]),
    "wellcond-gd-p3": dict(problem="p3", method="wellcond-gd", steps=30,
                           theorems=["well-conditioned",
                                     "well-conditioned-distance"]),
    # the grid prox costs milliseconds per step: keep T small
    "agm2-negentropy-lse3": dict(problem="lse3", method="agm2-negentropy",
                                 steps=15, feasible_set="simplex",
                                 x0=[0.6, 0.3, 0.1], theorems=["agm-mirror"]),
    # runners the entries above miss: momentum form, restart epochs, the
    # weight-recurrence schedule, the projected coupling, the Euclidean map
    "agm1-p3": dict(problem="p3", method="agm1", steps=40),
    # two 40-step epochs on kappa = 100
    "restart-agm-p3": dict(problem="p3", method="restart-agm", steps=80),
    "agm2-lambda-p2": dict(problem="p2", method="agm2", steps=40,
                           schedule="agm-lambda"),
    "agm2-p2-simplex": dict(problem="p2", method="agm2", steps=30,
                            feasible_set="simplex", x0=[0.5, 0.5],
                            theorems=["agm-smooth"]),
    "mirror-euclidean-experts-ball": dict(problem="experts-alt",
                                          method="mirror-euclidean", steps=40,
                                          feasible_set="ball",
                                          theorems=["mirror-regret"]),
}

# SHA-256 of (trace, report) per run and format; None: no report is written.
# Computed with the per-element serializers the fast paths replaced (and the
# runs from "sc-gd-p1" on with the per-theorem if-chains the theorem table
# replaced, and the runs from "agm1-p3" on with the per-method step loops that
# trace.drive replaced), and never regenerated: a changed hash is a changed
# file format.
GOLDEN = {
    ("agm2-negentropy-lse3", "json"): (
        "057257fc5d15cb6d2ca8ce063302801e9ea9dc73ea7b5b70f6675917c3d7e286",
        "3406bf08bbae517f6be0f6972b472ec98ead994cc5e3ee14c1a320c9231c08e7"),
    ("agm2-negentropy-lse3", "csv"): (
        "5cee7b1780eb0a463df798984e8909e47964fb8aeb91810f8d97a56db6065184",
        "c252dbe14163211ca0cee297b9216c03b639dbad2b89efffd07d29cf67e68fa7"),
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
    ("frank-wolfe-log-p2-box", "json"): (
        "881314bfa429fcadf7c8968b847ce0a9ace0aaba712b37e593b0471fe08b7efa",
        "305b8a0e927a27dd701a3b988077eff0b461491fb41baa4f6671fd7769fec98c"),
    ("frank-wolfe-log-p2-box", "csv"): (
        "eb2f08a727d86885549c32f90a09b9617da271fab3dfd9711a737cb3271afe13",
        "862023871c2e4cf5fcaa76e0cfd7d265c5760012ced876c12b0aa0577e1f6175"),
    ("frank-wolfe-p2-simplex", "json"): (
        "7ddf1ff9f59c7b924fc98d42ed6a25395d7a913479f455086fb195c0e53e677a",
        "966bb8d56b82d8fd1d887e7613ed0c8ffa1239246c7d07e2686f26f57154c0f8"),
    ("frank-wolfe-p2-simplex", "csv"): (
        "9bb97740203db2f708d476db0ea17f114c4283ebd9037306210c89e9d46117bc",
        "418c2915c2fd21a9fcee9a1b41c67a52a6107ebd6e05a34c69dc6db1594d2059"),
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
    ("sc-gd-p1", "json"): (
        "f5cb5ef8cbdc3ac16acb81d46b313f87612b596f232f6ae972b6081030e4ccc3",
        "9c0c1a8a1928bb31b3aa333a118e01a2ee3732cf84625e3ba6e3784bca0c5f6a"),
    ("sc-gd-p1", "csv"): (
        "e9e855e023e46277db541009ccf5ba71fc5a92698c2fe010ced1195a3480ad67",
        "8e296f552626b54082e0887296bab851628729edb429b4e18672b1bd6e93b32f"),
    ("smooth-gd-p2", "json"): (
        "f50c3b34a5e6c5409928df5acac88a36afa05553deead325967638c55cead9be",
        "67c075039e39d3b5b875ec742a420e83c212faaa05af04c4c84acd6b84ef1a94"),
    ("smooth-gd-p2", "csv"): (
        "e3ec24c1779e38a94f3df67d01c7dccf1abd47efbaec81947c52c84c5020f277",
        "d1192756e7c27912c9ee2840199f39e73fab3e56692da1aabc99070061905661"),
    ("smooth-gd-p2-ball", "json"): (
        "c41c551064e0b482cc39a3d645da1a0bbb22bcbb31ad67ccc0f32c0e9f01eaae",
        "6c18254b17e2897195f15f9909c8b7df1a2a256b6b1403c7410ac6d727333aa0"),
    ("smooth-gd-p2-ball", "csv"): (
        "24c1f2a23cf6b46e468c603fc7442448e06d11d3911324ade09c3160afbc7b2d",
        "b31dea6c3082a6aefa9b90edf920b7a1bf9215097ccad2c71c1148eedd797ec2"),
    ("uncertified-gd-p1", "json"): (
        "e64dc38bc5b4ca578801b725191b512e6a1f2f8fbe2b9e2b096f0b1025d98917",
        None),
    ("uncertified-gd-p1", "csv"): (
        "d37aa04b6e2c2b56a9c5ac70de8ecb389369c93b95ce10fed326499da400bd14",
        None),
    ("wellcond-gd-p3", "json"): (
        "a70d116df4a5724dbe77c1b1683db4995686585ed7296e9ca3871afdb20a78cb",
        "df8b982386222ddd802bfed82c4b597ae11d0fdd7e9e8089050772e59bd574f6"),
    ("wellcond-gd-p3", "csv"): (
        "78e42ad69999f0b2e3f8c897adb8b99146ac792b0f9f84eaa9d5c10eaf337649",
        "c6c246c8639d2b09411148fbe0bb38c58d27e1fe4e01bb7f1655ca98b19766e6"),
    ("agm1-p3", "json"): (
        "cd3e2b2de873c5ead48cb6ed2cca513034f32005e82b35347c543acfc14d5341",
        None),
    ("agm1-p3", "csv"): (
        "04862a30e5c597d9ced3fd3ba352922553d1288753933c7361eda322f13a0031",
        None),
    ("agm2-lambda-p2", "json"): (
        "80847ed6da15aea00085c43f2ab34969a336485d79fecf5fde04a8e15a63b8ef",
        None),
    ("agm2-lambda-p2", "csv"): (
        "552ad8b0fe897b0cb1bd1f8cf3b17553750937c9f1d4e056c4e3876776110c6a",
        None),
    ("agm2-p2-simplex", "json"): (
        "e5eec2ed41e0e2a857d00cef08115c5e6264986c58e4e101d972719a622b2327",
        "e34ebd554e252bffe3a098ee3fd3b0ff96e61a28e08a51c9cb41cc70d0c9aa57"),
    ("agm2-p2-simplex", "csv"): (
        "efc134d320847b0074293376e68628536186452b5f880aa8617508fbee55ebd7",
        "d4262dc7dbcc84a1dae05546c19eb8c483ac94f2c3e2a364ba5351dacdeb38f8"),
    ("mirror-euclidean-experts-ball", "json"): (
        "feba062359dee7a941ed1dc0f5f728a5027ed874324f59c0d4feb27f0d5f2acd",
        "0e0c2e40dec313d57e6f2dc6c0537cc51222343dfd3f548359a7e90e9d3e3a13"),
    ("mirror-euclidean-experts-ball", "csv"): (
        "37db14b3e3d8375d9e913e6f7e4bce05ce84022c56aab074534bee52f84dcdc4",
        "a219e2efd5b8d98383472d5c9caee6ff4fab7352e0fd084a6848e1d30f013df7"),
    ("restart-agm-p3", "json"): (
        "c28c7c9df7c31cf40b2945ea76ba163f024bae30f65649f02e9860f656c6514c",
        None),
    ("restart-agm-p3", "csv"): (
        "2c5957814f481daa17c14adcfa664fe5e2e94bd1a121778feff2019927e54e07",
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
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, list):
        return "[" + ",".join(json_reference(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + json_reference(v)
                              for k, v in obj.items()) + "}"
    return _json_scalar(obj)


def csv_reference(x) -> str:
    """One CSV cell formatted on its own; floats take their shortest
    round-trip repr."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


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
    (row,) = _table_blocks(_Table([("x", a[None, :])], "ok"), "csv")
    assert row == ",".join(csv_reference(v) for v in a)


@pytest.mark.parametrize("dim", [1, 2, 3, 10, 1000])
@pytest.mark.parametrize("map_id", ["euclidean", "negentropy"])
def test_grad_norm_columns_match_per_row_norms(dim, map_id):
    # magnitudes from 1e-8 to 1e8 per row, spread by 10x within a row
    rng = np.random.default_rng(dim)
    T = 3_000 if dim < 1000 else 60
    G = (rng.normal(size=(T, dim)) * 10.0 ** rng.uniform(-8, 8, (T, 1))
         * 10.0 ** rng.uniform(-1, 1, (T, dim)))
    trace = Trace(x=np.zeros((T + 1, dim)), f=np.zeros(T), grad=G, eta=np.zeros(T),
                  meta={"map": map_id})
    kind = Norm.L1 if map_id == "negentropy" else Norm.EUCLIDEAN
    norms, dual_norms = _grad_norms(trace)
    assert norms.tolist() == [float(np.linalg.norm(g)) for g in G]
    assert dual_norms.tolist() == [dual_norm(kind, g) for g in G]


def test_non_finite_gradient_not_serialized():
    trace = Trace(x=np.zeros((2, 2)), f=np.zeros(1), grad=np.array([[np.nan, 1.0]]),
                  eta=np.zeros(1))
    with pytest.raises(ValueError, match="non-finite"):
        json_dumps(trace_to_dict(trace))


# --- step tables against per-element references ------------------------------

def _column(rng, draw, shape, specials):
    """Values over many magnitudes, with some special values (nan, infinities,
    -0.0, subnormals) at random cells when ``specials``."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    if specials and values.size:
        cells = rng.integers(0, values.size, draw(st.integers(1, 4)))
        values.flat[cells] = rng.choice(SPECIAL, cells.size)
    return values


@st.composite
def step_traces(draw):
    """Traces whose step tables take every cell format: T and d across the
    block boundary, with or without y/z, a comparator, f* or neither (a null
    gap), and certificate columns with unchecked steps, violated steps and
    non-finite Phi."""
    T = draw(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]))
    d = draw(st.sampled_from([1, 2, 3, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = draw(st.booleans())

    def col(*shape):
        return _column(rng, draw, shape, specials)

    trace = Trace(x=col(T + 1, d), f=col(T + 1), grad=rng.standard_normal((T, d)),
                  eta=col(T), meta={"map": draw(st.sampled_from(["euclidean",
                                                                  "negentropy"]))})
    gap = draw(st.sampled_from(["f_ref", "f_star", "none"]))
    if gap == "f_ref":
        trace.f_ref = col(T)
    elif gap == "f_star":
        trace.constants["f_star"] = draw(st.sampled_from([0.0, -0.0, 1.5, -2.25e-300]))
    if draw(st.booleans()):
        trace.y, trace.z, trace.f_y = col(T + 1, d), col(T + 1, d), col(T + 1)
    if draw(st.booleans()):
        trace.phi = col(T)
        trace.step_ok = rng.choice([0.0, 1.0, np.nan] if draw(st.booleans())
                                   else [0.0, 1.0], T)
        trace.phi[np.isnan(trace.step_ok)] = np.nan
    return trace


def trace_rows(trace: Trace) -> list:
    """The trace's step rows as dicts of Python values, one step at a time."""
    norms, dual_norms = (v.tolist() for v in _grad_norms(trace))
    f_star = trace.constants.get("f_star")
    rows = []
    for t in range(trace.T):
        f = trace.f[t].item()
        gap = None if f_star is None else f - f_star
        if trace.f_ref is not None:
            gap = f - trace.f_ref[t].item()
        row = {"t": t, "x": trace.x[t].tolist(), "f": f, "gap": gap,
               "grad_norm": norms[t], "grad_dual_norm": dual_norms[t],
               "eta": trace.eta[t].item()}
        if trace.y is not None:
            row.update(y=trace.y[t].tolist(), f_y=trace.f_y[t].item())
        if trace.z is not None:
            row["z"] = trace.z[t].tolist()
        if trace.phi is not None and not math.isnan(trace.step_ok[t]):
            row.update(phi=trace.phi[t].item(), step_ok=trace.step_ok[t].item() == 1.0)
        rows.append(row)
    return rows


@settings(deadline=None, max_examples=25)
@given(step_traces())
def test_trace_table_matches_per_element_json(trace):
    with np.errstate(invalid="ignore", over="ignore"):
        text = json_dumps(trace_to_dict(trace)["steps"])
        assert text == json_reference(trace_rows(trace))


@settings(deadline=None, max_examples=25)
@given(step_traces())
def test_trace_table_matches_per_element_csv(trace):
    with np.errstate(invalid="ignore", over="ignore"):
        header, *lines = trace_to_csv(trace).splitlines()
        rows = trace_rows(trace)
    keys = ["x"] + (["y", "z", "f_y"] if trace.y is not None else [])
    keys += ["f", "gap", "grad_norm", "grad_dual_norm", "eta", "phi", "step_ok"]
    expected = []
    for row in rows:
        cells = [row["t"]]
        for k in keys:
            cells += row[k] if isinstance(row.get(k), list) else [row.get(k)]
        expected.append(",".join(map(csv_reference, cells)))
    assert lines == expected
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines)


@st.composite
def step_reports(draw):
    """Reports over the block boundary, with and without the amortized
    column, held and violated steps, non-finite and -0.0 values."""
    n = draw(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = draw(st.booleans())
    steps = {"t": np.sort(rng.choice(2 * n + 1, n, replace=False))}
    for name in ("phi", "dphi", "allowed", "ok", "slack", "amortized"):
        steps[name] = _column(rng, draw, (n,), specials)
    steps["ok"] = steps["ok"] <= 0.0
    if draw(st.booleans()):
        del steps["amortized"]
    return CertReport(theorem=draw(st.sampled_from(["gd-regret", "agm-smooth"])),
                      claim="c", potential_kind=None, constants={},
                      steps=steps if n or draw(st.booleans()) else {})


def report_rows(report: CertReport) -> list:
    """The report's step rows as dicts of Python values, one step at a time."""
    rows = []
    for i in range(len(report.steps.get("t", ()))):
        row = {k: report.steps[k][i].item() for k in
               ("t", "phi", "dphi", "allowed", "ok", "slack")}
        if "amortized" in report.steps:
            row["amortized"] = report.steps["amortized"][i].item()
        rows.append(row)
    return rows


@settings(deadline=None, max_examples=40)
@given(reports=st.lists(step_reports(), min_size=1, max_size=2))
def test_report_table_matches_per_element_json(reports, tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "report.json"
    emit_report(reports, str(path))
    assert path.read_text() == json_reference({"certificates": [
        {**r.to_dict(), "steps": report_rows(r)} for r in reports]})


@settings(deadline=None, max_examples=40)
@given(st.lists(step_reports(), min_size=1, max_size=2))
def test_report_table_matches_per_element_csv(reports):
    expected = [",".join([r.theorem] + [csv_reference(row.get(k)) for k in (
        "t", "phi", "dphi", "allowed", "amortized", "ok", "slack")])
        for r in reports for row in report_rows(r)]
    assert report_to_csv(reports).splitlines()[1:] == expected
