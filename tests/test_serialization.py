"""Serialization contract: pinned bytes of trace and report files, the
kernel's two styles checked against '%.17g' % and repr, and the fast
formatting paths checked against per-element references."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gdcert import _g17, harness
from gdcert.certify import CertReport
from gdcert.core import Norm, dual_norm
from gdcert.harness import (
    _CHUNK,
    RunConfig,
    RunResult,
    _grad_norms,
    _json_scalar,
    _Table,
    _table_rows,
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
    # f_ref-based gap, amortized report rows
    "gd-experts-ball": dict(problem="experts-alt", method="gd", steps=40,
                            feasible_set="ball", theorems=["gd-regret"]),
    "smooth-gd-p2": dict(problem="p2", method="smooth-gd", steps=40,
                         theorems=SMOOTH_VALUE),
    # violating steps from t = 4 on: false ok
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
    # certification off: no report file
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
# file format. The deliberate changes are derived from those files, not
# regenerated: the config echo lost its "seed" key, and the trace lost the
# certifier's "phi" and "step_ok" (its JSON keys and its last two CSV cells);
# then the JSON trace of a certified run that sets no flag lost the empty
# "flags" key that reading the flags used to add (the substring ,"flags":[]
# deleted; CSV traces and reports unchanged). The "agm2-negentropy-lse3"
# pins alone were regenerated when the grid search for its l1 smooth step
# gave way to the exact minimizer: its iterates moved by up to 6.4e-10.
# When a trace came to record only the constants its run used, six JSON pairs
# were derived from the previous files by moving or deleting "key":value
# tokens of "constants" objects: "gamma" and the "bregman_x_star_*" terms
# left every trace, "sc-gd-p1" lost "D", "G" and its one flag (its "flags"
# key with it), and each report's "gamma" and estimated "G" moved after
# "eta", where the certifier now adds them; "well-conditioned-distance",
# which reads no rate, lost its "gamma". No step table moved.
GOLDEN = {
    ("agm2-negentropy-lse3", "json"): (
        "5c40f3e8657e8d06716eab6511e8344fe3b0d4f82101377a42c4915d9fcd955c",
        "af52730efef415a414a999c3d9fa4d9d32591ee1c3d76f6bcc15bd3a0326ef9e"),
    ("agm2-negentropy-lse3", "csv"): (
        "f14522ea7290827a633593e79f986176104bb3dd0aab7975abf77de6f87f5ebb",
        "164589f1a14354684b5b51dd142a190a7deb1803ae7174d70c4318b3779aa6ec"),
    ("agm2-p2", "json"): (
        "b9c5bcbd7851bac8a0657928cd73581f32a46e54685df6cd2bdc2d04795d2c48",
        "6ac0af10c0c9d4aa119fef525ffcf3c68e9da481df2e93b998bfed7f8dab6690"),
    ("agm2-p2", "csv"): (
        "b460e7cc5eed0cf5ee8c02853d02de75b5891179eb170a7865562d9422a202c3",
        "e34381ff7f0b7d2b0847d19cd9eaec26e0d2e4985471f6ed40e514eb0e2e360e"),
    ("failed-potential-p3", "json"): (
        "c4ba14fe86ab941039072aea038bd93e9d53d5e932effd47fcdc01d94520b0b4",
        "40fc4306109271c63471dd3f7d831424562baffc4ff57f4624c17e1970bede82"),
    ("failed-potential-p3", "csv"): (
        "c7bf116fc220ba563ffe6e2fb8c02f5931f19aecd9c0864e44c2e65d5b68154d",
        "d9a79d0d0f705b140d6b3d8ebec7335ad3c0ca666f2ec9e337367765c2ccfc4e"),
    ("frank-wolfe-log-p2-box", "json"): (
        "936f11a48e749ca748082a273e0a1ab26f703bd1a343ef8503320f264a354649",
        "2b9d12a046d15570c82271971b4979a43917d91831d751c9234a492df4077c84"),
    ("frank-wolfe-log-p2-box", "csv"): (
        "83f80a33f12d7dfa040bebcfe6a6301405d4dedb2b85c190d88c5ce186c2e9e6",
        "862023871c2e4cf5fcaa76e0cfd7d265c5760012ced876c12b0aa0577e1f6175"),
    ("frank-wolfe-p2-simplex", "json"): (
        "d7b8da1d84fa69c589f438b9b2ae6757a45533e9ce6e17e5b9c1b33d5658cdba",
        "f65e557f09e7569bafa79dc2a1b05f1d2cefe68d74e67dfc999358dbd4e0fa89"),
    ("frank-wolfe-p2-simplex", "csv"): (
        "e4812f17df81a57f719a5831102515a4232c65e8b0d2fe42240babeaed2c736b",
        "418c2915c2fd21a9fcee9a1b41c67a52a6107ebd6e05a34c69dc6db1594d2059"),
    ("gd-experts-ball", "json"): (
        "93a9514fde676fb18c6a37bf260e35141e1d2aadefd2bc848194b61f7d5179fd",
        "65d32fb445357bccc542b8504e9b7fd8bd07a2847088984a343861db68c4387f"),
    ("gd-experts-ball", "csv"): (
        "2b3fe9e75d6feaaf11660342e1f5d645ecd402fd329f6216b289c7cc2c3cb244",
        "508f6b501165eb735cc1af6e7223cc04a6c5889b6773fa7bb0069861cbf8df2e"),
    ("mirror-negentropy-experts", "json"): (
        "20f21d1fdca9f9853928302bebc4ad326e08c6c23a0d0cfa2aa91eebb1cd1e29",
        "0245cdd694ad7165e6c598e1df9f661f3c164135b45837ffdd1134f0c38e2d0d"),
    ("mirror-negentropy-experts", "csv"): (
        "b8385ca8a9abec35807e64cf4c740b81ad355479ed0844e912043839badfc84a",
        "6e90bfc1168d7b7a782697b6d5b14605ccf5dbb5e92a5bd6ea7289758c2e8833"),
    ("sc-agm-p3", "json"): (
        "64e6cd88e031c13a8149ab30161bfe5276551339e38524835bc2c5a6110776aa",
        "db51e02012c6fcb0fdd52fb97e05f70acc8f14bd3d81ab807afb67cbbfd2d854"),
    ("sc-agm-p3", "csv"): (
        "ef0622af219b644e98cfa3decbbba59e92c69f94216fef98f3de2931b48ee29a",
        "db349b30f12cced7439c9363671b993d3242869e634060f68d929b8612f85fee"),
    ("sc-gd-p1", "json"): (
        "337ffc80b6d23f9e354509a39302ecb81b1a26bfa080f12151f1cd2de719e074",
        "483073476b7f00f2a562c9f79be6d6c16a98b5a2ebb2040a75bcf56a79bb259a"),
    ("sc-gd-p1", "csv"): (
        "4ef7aa37df031d0c6cd964d269e84f965a442600b6deb8e575d30d31f4abe969",
        "8e296f552626b54082e0887296bab851628729edb429b4e18672b1bd6e93b32f"),
    ("smooth-gd-p2", "json"): (
        "46d0db899ce828add073d6ab65d0b5a5a36010bbe194a4c4d624dd1427586d61",
        "55cb7586e5f1cd1a157a60d7d335893e2022407eb745a9132a52e888ecbcd8ca"),
    ("smooth-gd-p2", "csv"): (
        "8f9ae7aefe9fddd4d04172b9f5d685ce8c856bf6599447a80850d4aff805e653",
        "d1192756e7c27912c9ee2840199f39e73fab3e56692da1aabc99070061905661"),
    ("smooth-gd-p2-ball", "json"): (
        "90336ca97e6a58e8b53954963fe4f6c0248cd05610e513cc8baf44117fe73862",
        "0861bf59df73c9ef3406c1a65fd007acbc38b3b9c20234f26df85a4d4df0bed8"),
    ("smooth-gd-p2-ball", "csv"): (
        "fd5091ccf7f60510bec06c7e693fb791e57da9a6e7dc1660d4066c85f3ff3962",
        "b31dea6c3082a6aefa9b90edf920b7a1bf9215097ccad2c71c1148eedd797ec2"),
    ("uncertified-gd-p1", "json"): (
        "9558774876c1c2b32e2962dd39110a45e02d2b22e39372e13e2c71a3d6b0c2f8",
        None),
    ("uncertified-gd-p1", "csv"): (
        "0e9606d896023f89f5d94cd006f338d74e23d4ae802c9ac572cd11b1e3f7b29d",
        None),
    ("wellcond-gd-p3", "json"): (
        "06e8852d7eeb84e5426b52841f99f8ac007c889fd6c5e32f7e4a6b3bfb72060f",
        "b661f6478d37229aafa14a44b19cc7a94b08fe8b0fce4862bc3d5654d62e93a6"),
    ("wellcond-gd-p3", "csv"): (
        "8418a19d23b4d22d82e120a1a01301db0f1ac705c2f330bde5b01670468711a8",
        "c6c246c8639d2b09411148fbe0bb38c58d27e1fe4e01bb7f1655ca98b19766e6"),
    ("agm1-p3", "json"): (
        "eccd33d5fd9c80cb70dfd9476cf1b0b6ffbc959077ae21af287dbc4ebaeb0451",
        None),
    ("agm1-p3", "csv"): (
        "688866724e700b25c4ce96a2c10a807b79e7d9fb5c64b15bef702a7afad91e86",
        None),
    ("agm2-lambda-p2", "json"): (
        "3b0593af7f27c03e7de314bdc91da50ebec44445c86c589d0f532b879f3931bd",
        None),
    ("agm2-lambda-p2", "csv"): (
        "7b87ab9a5b92e3e25b5ed561e2465cf3a6b833dda669a2781c53fb57553a02f0",
        None),
    ("agm2-p2-simplex", "json"): (
        "0092080c824cb2f7d2fa45475113465cf7de65a3d00ce478c3a561a352cf9089",
        "3cbcd246c6ccdb6a48b7523ffc057093918f6e46cdcf4f9e19d58e57a8e26e5f"),
    ("agm2-p2-simplex", "csv"): (
        "affbf02eb91ea08c37fadb76fcefd9a5c06a2a1b21708473fb675fac1444284e",
        "d4262dc7dbcc84a1dae05546c19eb8c483ac94f2c3e2a364ba5351dacdeb38f8"),
    ("mirror-euclidean-experts-ball", "json"): (
        "d08f59d36e02f5c4aa014f7b400408fd7b053d3686c87b237499eb020d177b1f",
        "4f9c517e0029da458ce342b2b5036e5384d1fe01b38049a01e80208a4a615351"),
    ("mirror-euclidean-experts-ball", "csv"): (
        "b57039b406f33b69609249d3ee93829ad992eb5362d8f815a416f6be96b3b07a",
        "a219e2efd5b8d98383472d5c9caee6ff4fab7352e0fd084a6848e1d30f013df7"),
    ("restart-agm-p3", "json"): (
        "899993096f1c876a24630361387aeb9a8a19cd728779a1e308f967e2249685d8",
        None),
    ("restart-agm-p3", "csv"): (
        "e82b7b82b5645471b757dda66f6beee193bd70a654ef4927e4865d4b424ee6dc",
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


# --- the %.17g kernel against '%.17g' % -------------------------------------

def g17_texts(values) -> list:
    """The kernel's text of each value, with ``_json_scalar`` for the cells
    it leaves to the fallback."""
    v = np.asarray(values, dtype=float)
    out = np.zeros((v.size, _g17.SLOT_WORDS), np.uint64)
    _g17.format_floats(v, out, _json_scalar)
    slots = out.view(np.uint8).reshape(v.size, -1)
    slots[:, -1] = ord(",")  # a slot's last byte is always a hole
    return slots.tobytes().translate(None, b"\0").decode().split(",")[:-1]


def g17_reference(values) -> list:
    return ["%.17g" % x if math.isfinite(x) else _json_scalar(x) for x in values]


def test_g17_matches_on_random_bit_patterns():
    # every exponent: subnormals, nan and the infinities included
    bits = np.random.default_rng(17).integers(0, 2**64, 200_000, dtype=np.uint64)
    v = bits.view(np.float64)
    assert g17_texts(v) == g17_reference(v.tolist())


def test_g17_matches_at_powers_of_ten_and_their_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-300, 300)])
    v = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    v = np.concatenate([v, -v])
    assert g17_texts(v) == g17_reference(v.tolist())


def test_g17_rounds_exact_ties_half_to_even():
    # 18 significant digits ending in 5: 3 * 2**-24 through the fallback,
    # the others through rint on an exact power of ten; the last one rounds
    # down to its even 17th digit
    ties = [3 * 2.0**-24, 31867706181171.1875, 1176256028784796.75,
            891381373001006.125]
    assert g17_texts(ties) == ["1.7881393432617188e-07", "31867706181171.188",
                               "1176256028784796.8", "891381373001006.12"]
    assert g17_texts(ties) == g17_reference(ties)


def test_g17_writes_integers_as_percent_d():
    # the t column: integers up to 2**53 in the float64 cells of a chunk
    ints = np.random.default_rng(53).integers(0, 2**53, 20_000).tolist()
    ints += [0, 1, 9, 10, 2**53 - 1, 2**53]
    assert g17_texts(ints) == ["%d" % i for i in ints]


def test_g17_zeros_and_non_finite():
    assert g17_texts([0.0, -0.0, math.nan, math.inf, -math.inf]) == [
        "0", "-0", '"nan"', '"inf"', '"-inf"']


def test_g17_carries_into_the_next_power():
    # the doubles nearest 1e-14, 1e-70 and 1e-305 lie below them, within
    # half a unit of the 17th digit: D rounds to 10**17 and X moves up
    v = [9.9999999999999999e15, 1e-14, 1e-70, 1e-305, -1e-14]
    assert g17_texts(v) == ["10000000000000000", "1e-14", "1e-70", "1e-305", "-1e-14"]
    assert g17_texts(v) == g17_reference(v)


# --- the repr style against repr --------------------------------------------

def repr_texts(values) -> list:
    """The kernel's shortest-digits text of each value, with ``repr`` for
    the cells it leaves to the fallback."""
    v = np.asarray(values, dtype=float)
    out = np.zeros((v.size, _g17.SLOT_WORDS), np.uint64)
    _g17.format_floats(v, out, repr, shortest=True)
    slots = out.view(np.uint8).reshape(v.size, -1)
    slots[:, -1] = ord(",")
    return slots.tobytes().translate(None, b"\0").decode().split(",")[:-1]


def repr_mismatches(values) -> list:
    """(value, kernel text, repr) for each value the kernel writes otherwise
    than ``repr``: a short list to report when the check fails."""
    values = np.asarray(values, dtype=float).tolist()
    return [(x, text, repr(x)) for x, text in zip(values, repr_texts(values))
            if text != repr(x)]


def test_repr_matches_on_random_bit_patterns():
    # every exponent: subnormals, nan and the infinities included
    bits = np.random.default_rng(18).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert repr_mismatches(bits.view(np.float64)) == []


def test_repr_matches_at_powers_of_ten_and_their_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    v = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    assert repr_mismatches(np.concatenate([v, -v])) == []


def test_repr_matches_at_powers_of_two_and_their_neighbours():
    # 2^e has a rounding interval half as wide below as above
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    assert repr_mismatches(np.concatenate([p, np.nextafter(p, 0.0),
                                           np.nextafter(p, np.inf)])) == []
    assert repr_texts([0.5, 1024.0, 2.0**-20]) == ["0.5", "1024.0", "9.5367431640625e-07"]


def test_repr_matches_on_values_rounded_to_each_digit_count():
    # 1 to 17 significant digits over many magnitudes: every shortest count,
    # the ones below 15 included
    rng = np.random.default_rng(15)
    x = rng.standard_normal(6_000) * 10.0 ** rng.integers(-30, 30, 6_000)
    assert repr_mismatches([float("%.*g" % (k, y)) for y in x.tolist()
                            for k in range(1, 18)]) == []


def test_repr_writes_integral_floats_with_a_point_zero():
    ints = np.random.default_rng(53).integers(0, 2**53, 20_000).astype(float)
    assert repr_mismatches(np.concatenate(
        [ints, [1.0, 9.0, 10.0, 100.0, 123.0, 2.0**53 - 1, 2.0**53]])) == []
    assert repr_texts([100.0, -7.0, 1e15]) == ["100.0", "-7.0", "1000000000000000.0"]


def test_repr_switches_layout_at_1e16_and_1e_minus_4():
    v = [1e16, 9999999999999998.0, 1.5e16, 1e-4, 1.5e-4, 9.9e-5, 1e-5, 0.00012345]
    assert repr_texts(v) == ["1e+16", "9999999999999998.0", "1.5e+16", "0.0001",
                             "0.00015", "9.9e-05", "1e-05", "0.00012345"]
    assert repr_mismatches(v) == []


def test_repr_zeros_subnormals_and_non_finite():
    sub = np.ldexp(np.random.default_rng(1074).integers(1, 2**52, 2_000).astype(float), -1074)
    v = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                         math.nan, math.inf, -math.inf], sub])
    assert repr_texts(v)[:8] == ["0.0", "-0.0", "5e-324", "-5e-324",
                                 "2.225073858507201e-308", "nan", "inf", "-inf"]
    assert repr_mismatches(v) == []


def test_repr_rounds_ties_half_to_even():
    # 8 + 2^-16 = 8.0000152587890625 lies halfway between two 16-digit
    # candidates, both inside its interval: the fallback decides. The other
    # needs 17 digits and is an exact tie at an exact power of ten, which
    # rint rounds to even as the %.17g style does. Zeros stay on the
    # vectorized path
    seen = []
    v = np.array([8 + 2.0**-16, 31867706181171.1875, 0.0, -0.0])
    out = np.zeros((4, _g17.SLOT_WORDS), np.uint64)
    _g17.format_floats(v, out, lambda x: seen.append(x) or repr(x), shortest=True)
    assert seen == [8 + 2.0**-16]
    assert repr_texts(v) == ["8.000015258789062", "31867706181171.188", "0.0", "-0.0"]
    assert repr_mismatches(v) == []


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


def test_long_vectors_match_per_element_json():
    # past a chunk, at the kernel's least length, and empty
    rng = np.random.default_rng(7)
    v = rng.standard_normal(2 * _CHUNK + 5) * 10.0 ** rng.integers(-300, 300, 2 * _CHUNK + 5)
    v[[3, _CHUNK, 2 * _CHUNK]] = [math.nan, -math.inf, -0.0]
    for w in (v, v[:harness._VECTOR_CELLS], v[:0]):
        assert json_dumps(w) == "[" + ",".join(_json_scalar(x) for x in w.tolist()) + "]"


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
    text = b"".join(_table_rows(_Table([("x", a[None, :])]), is_json=False))
    assert text.decode() == ",".join(csv_reference(v) for v in a) + "\n"


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
    """Traces whose step tables take every cell format: d from 1 to 1000,
    with or without y/z, a comparator, f* or neither (a null gap), and T at
    the chunk edges: a row short of a chunk, one chunk, a row over."""
    d = draw(st.sampled_from([1, 2, 3, 1000]))
    coupled = draw(st.booleans())
    gap = draw(st.sampled_from(["f_ref", "f_star", "none"]))
    # t, x, f, gap, the two gradient norms and eta; y, f_y and z
    cells = (3 * d + 7 if coupled else d + 6) - (gap == "none")
    rows = max(1, _CHUNK // cells)
    T = draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = draw(st.booleans())
    return _trace(rng, T, d, coupled, gap, lambda *shape: _column(rng, draw, shape, specials),
                  draw(st.sampled_from(["euclidean", "negentropy"])),
                  draw(st.sampled_from([0.0, -0.0, 1.5, -2.25e-300])))


def _trace(rng, T, d, coupled, gap, col, map_id="euclidean", f_star=1.5) -> Trace:
    trace = Trace(x=col(T + 1, d), f=col(T + 1), grad=rng.standard_normal((T, d)),
                  eta=col(T), meta={"map": map_id})
    if gap == "f_ref":
        trace.f_ref = col(T)
    elif gap == "f_star":
        trace.constants["f_star"] = f_star
    if coupled:
        trace.y, trace.z, trace.f_y = col(T + 1, d), col(T + 1, d), col(T + 1)
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
    keys += ["f", "gap", "grad_norm", "grad_dual_norm", "eta"]
    expected = []
    for row in rows:
        cells = [row["t"]]
        for k in keys:
            cells += row[k] if isinstance(row.get(k), list) else [row.get(k)]
        expected.append(",".join(map(csv_reference, cells)))
    assert lines == expected
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines)


def test_row_wider_than_a_chunk_matches_per_element_json_and_csv(monkeypatch):
    # rows of 3,007 cells at d = 1000, each a chunk of its own
    monkeypatch.setattr(harness, "_CHUNK", 2_048)
    rng = np.random.default_rng(11)
    trace = _trace(rng, 3, 1000, True, "f_ref",
                   lambda *shape: rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 9, shape))
    rows = trace_rows(trace)
    assert json_dumps(trace_to_dict(trace)["steps"]) == json_reference(rows)
    lines = trace_to_csv(trace).splitlines()[1:]
    assert [line.split(",")[1:1001] for line in lines] == [
        [csv_reference(v) for v in row["x"]] for row in rows]


@st.composite
def step_reports(draw):
    """Reports at the chunk edges, with and without the amortized column,
    held and violated steps, non-finite and -0.0 values."""
    amortized = draw(st.booleans())
    rows = _CHUNK // (6 if amortized else 5)  # t, phi, dphi, allowed, slack
    n = draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = draw(st.booleans())
    steps = {"t": np.sort(rng.choice(2 * n + 1, n, replace=False))}
    for name in ("phi", "dphi", "allowed", "ok", "slack", "amortized"):
        steps[name] = _column(rng, draw, (n,), specials)
    steps["ok"] = steps["ok"] <= 0.0
    if not amortized:
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
    config = RunConfig(problem="p2", method="agm2", steps=1, certify=True,
                       theorems=[r.theorem for r in reports])
    emit_report(RunResult(config=config, trace=None, reports=reports), str(path))
    assert path.read_text() == json_reference({
        "config": config.echo(), "passed": all(r.passed for r in reports),
        "error": None,
        "certificates": [{**r.to_dict(), "steps": report_rows(r)} for r in reports]})


@settings(deadline=None, max_examples=40)
@given(st.lists(step_reports(), min_size=1, max_size=2))
def test_report_table_matches_per_element_csv(reports):
    expected = [",".join([r.theorem] + [csv_reference(row.get(k)) for k in (
        "t", "phi", "dphi", "allowed", "amortized", "ok", "slack")])
        for r in reports for row in report_rows(r)]
    assert report_to_csv(reports).splitlines()[1:] == expected
