"""Serialization contract: pinned bytes of trace and report files, the
float kernel checked against '%.17g' %, and the fast formatting paths
checked against per-element references."""

import hashlib
import json
import math
import tracemalloc

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
# When CSV floats went from repr to '%.17g' %, the text JSON uses, the 18
# CSV pairs were derived from the previous files by rewriting each cell
# that float() parses as '%.17g' % float(cell); no JSON pin moved.
GOLDEN = {
    ("agm2-negentropy-lse3", "json"): (
        "5c40f3e8657e8d06716eab6511e8344fe3b0d4f82101377a42c4915d9fcd955c",
        "af52730efef415a414a999c3d9fa4d9d32591ee1c3d76f6bcc15bd3a0326ef9e"),
    ("agm2-negentropy-lse3", "csv"): (
        "86cd2edf4bd2dde49ac082de4c29b052280c5aec90f9b7674cb51f0cbab8d062",
        "ea50e1d956b08b9f0c560e0677c7685a65614f9cd0e3bdc6c78d6a26d998a1f0"),
    ("agm2-p2", "json"): (
        "b9c5bcbd7851bac8a0657928cd73581f32a46e54685df6cd2bdc2d04795d2c48",
        "6ac0af10c0c9d4aa119fef525ffcf3c68e9da481df2e93b998bfed7f8dab6690"),
    ("agm2-p2", "csv"): (
        "4f1399fd103b391f6a39efed05a535aae9fb4a7e2a506e5b3e21e0c13f7611ae",
        "6bd4e80a3c7e323f3badf4cddd5ba50721eb71ad5d8634a2c45e0d7e938d2e04"),
    ("failed-potential-p3", "json"): (
        "c4ba14fe86ab941039072aea038bd93e9d53d5e932effd47fcdc01d94520b0b4",
        "40fc4306109271c63471dd3f7d831424562baffc4ff57f4624c17e1970bede82"),
    ("failed-potential-p3", "csv"): (
        "0b15005c2c6915bbc32613030bb3e86b22ce5aac76351afd448bf4842a212624",
        "e31fc4c06e751ff2d0598f97f36093bb8cf91c0abd32be678eb97afb2f0da32f"),
    ("frank-wolfe-log-p2-box", "json"): (
        "936f11a48e749ca748082a273e0a1ab26f703bd1a343ef8503320f264a354649",
        "2b9d12a046d15570c82271971b4979a43917d91831d751c9234a492df4077c84"),
    ("frank-wolfe-log-p2-box", "csv"): (
        "b78214cbd94067a2f0fd36d22e42a6d24009f20e20762767e882ac4cca2e28f2",
        "39b917217eeef78d1434ac72ceeb838b562333c53b62c80e2b546cb1a464a87d"),
    ("frank-wolfe-p2-simplex", "json"): (
        "d7b8da1d84fa69c589f438b9b2ae6757a45533e9ce6e17e5b9c1b33d5658cdba",
        "f65e557f09e7569bafa79dc2a1b05f1d2cefe68d74e67dfc999358dbd4e0fa89"),
    ("frank-wolfe-p2-simplex", "csv"): (
        "df506b3c4a5e5215e6dddec08a591d4b70bb8b5800e53e63f6827a7abdc32985",
        "0fc0d65822eeb2d5ae1d419106312cba800eee38145323b4504a4d17e65bf2ba"),
    ("gd-experts-ball", "json"): (
        "93a9514fde676fb18c6a37bf260e35141e1d2aadefd2bc848194b61f7d5179fd",
        "65d32fb445357bccc542b8504e9b7fd8bd07a2847088984a343861db68c4387f"),
    ("gd-experts-ball", "csv"): (
        "34269f4128089c41c07d9103852dc9bcf9261314bb078fa1be32ae7e4eb70594",
        "6a1238593fbff9c3a05a92a2bc18bcea5c72f78a563295964ce8542825bfe82f"),
    ("mirror-negentropy-experts", "json"): (
        "20f21d1fdca9f9853928302bebc4ad326e08c6c23a0d0cfa2aa91eebb1cd1e29",
        "0245cdd694ad7165e6c598e1df9f661f3c164135b45837ffdd1134f0c38e2d0d"),
    ("mirror-negentropy-experts", "csv"): (
        "d235535632e4ced8b1a973ed2cd39a412b433a48a19ca922799e2932ef711393",
        "c5c269c8c07dadaf558df2e98d804cb58060d38cc07e280def71eedf83188108"),
    ("sc-agm-p3", "json"): (
        "64e6cd88e031c13a8149ab30161bfe5276551339e38524835bc2c5a6110776aa",
        "db51e02012c6fcb0fdd52fb97e05f70acc8f14bd3d81ab807afb67cbbfd2d854"),
    ("sc-agm-p3", "csv"): (
        "ff5dd9fda342a6208302baecc757322b17627ecab26f208761064b64c638f3e3",
        "d59655974aadcce3502e3632775392e40c4abd35f1cf5a630a875a224e452e93"),
    ("sc-gd-p1", "json"): (
        "337ffc80b6d23f9e354509a39302ecb81b1a26bfa080f12151f1cd2de719e074",
        "483073476b7f00f2a562c9f79be6d6c16a98b5a2ebb2040a75bcf56a79bb259a"),
    ("sc-gd-p1", "csv"): (
        "76dd37ad1a722eb7309b7107574fd616a425971baca0ace48e75cd9313128176",
        "e41d7768de230e4b4464f77f090b7e54d239b2d39cacddb77b01323e6197ef74"),
    ("smooth-gd-p2", "json"): (
        "46d0db899ce828add073d6ab65d0b5a5a36010bbe194a4c4d624dd1427586d61",
        "55cb7586e5f1cd1a157a60d7d335893e2022407eb745a9132a52e888ecbcd8ca"),
    ("smooth-gd-p2", "csv"): (
        "38b032c757375b37d78537498052e8956747c65bca8b83dad580924ee41f9863",
        "b0e7e95cd8151761ebf91d27a4a6aac5c7ebfef9cd2c088911e284dc1ca66c8f"),
    ("smooth-gd-p2-ball", "json"): (
        "90336ca97e6a58e8b53954963fe4f6c0248cd05610e513cc8baf44117fe73862",
        "0861bf59df73c9ef3406c1a65fd007acbc38b3b9c20234f26df85a4d4df0bed8"),
    ("smooth-gd-p2-ball", "csv"): (
        "97b142ce0600d23ec886a5962f6ec9c4ff08e6ac40a3a237e7d778a00aa9a8b0",
        "5daccbc443d1f920d5347d6fb73b9f28eee529de01aad34c2daec13015a0c901"),
    ("uncertified-gd-p1", "json"): (
        "9558774876c1c2b32e2962dd39110a45e02d2b22e39372e13e2c71a3d6b0c2f8",
        None),
    ("uncertified-gd-p1", "csv"): (
        "d03271fb481ab6e2c1b61d566af17690af930593b5a3b282b8c73658ce3bf4aa",
        None),
    ("wellcond-gd-p3", "json"): (
        "06e8852d7eeb84e5426b52841f99f8ac007c889fd6c5e32f7e4a6b3bfb72060f",
        "b661f6478d37229aafa14a44b19cc7a94b08fe8b0fce4862bc3d5654d62e93a6"),
    ("wellcond-gd-p3", "csv"): (
        "9390c81c7426f41de66e8b9f0c404f9d8e03fa330e8e7145bafe865b6c50378d",
        "c3d9cb3a28531d89610654203129f3daa68737e02c801dac2779c0732d53e182"),
    ("agm1-p3", "json"): (
        "eccd33d5fd9c80cb70dfd9476cf1b0b6ffbc959077ae21af287dbc4ebaeb0451",
        None),
    ("agm1-p3", "csv"): (
        "9d689f766bb0d7a9071b83771b902f91252f65530fb1f2f15b6b08e106901c89",
        None),
    ("agm2-lambda-p2", "json"): (
        "3b0593af7f27c03e7de314bdc91da50ebec44445c86c589d0f532b879f3931bd",
        None),
    ("agm2-lambda-p2", "csv"): (
        "9e82996f58466ef34e1e8c9c95134cfe68d986fd8411ade5a16f178888923025",
        None),
    ("agm2-p2-simplex", "json"): (
        "0092080c824cb2f7d2fa45475113465cf7de65a3d00ce478c3a561a352cf9089",
        "3cbcd246c6ccdb6a48b7523ffc057093918f6e46cdcf4f9e19d58e57a8e26e5f"),
    ("agm2-p2-simplex", "csv"): (
        "366cf57892a7106d5179d5870e426b1b0caf259861ac1ee9ddd2ceffb012d277",
        "0f9a7e56dd32b6eceb2d5c336734889f0808bc077e98ec336a2c0adaef3ef832"),
    ("mirror-euclidean-experts-ball", "json"): (
        "d08f59d36e02f5c4aa014f7b400408fd7b053d3686c87b237499eb020d177b1f",
        "4f9c517e0029da458ce342b2b5036e5384d1fe01b38049a01e80208a4a615351"),
    ("mirror-euclidean-experts-ball", "csv"): (
        "20f4f3296d4be708d580a16c686c7ad7deb66faa76caeb8ff923ab8e2b6c42ca",
        "2a2f4f2a58435cd0f305e60acc871de6fed5d1da8ee983da1275cf615c676672"),
    ("restart-agm-p3", "json"): (
        "899993096f1c876a24630361387aeb9a8a19cd728779a1e308f967e2249685d8",
        None),
    ("restart-agm-p3", "csv"): (
        "4eefae34b5b39f97f64e22863650925bd8b64f9b39465151a77ac6ce41070aac",
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
    slots[:, 0] = ord(",")  # the literal byte, which the kernel leaves a hole
    return slots.tobytes().translate(None, b"\0").decode().split(",")[1:]


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


# --- the slot: byte 0 a hole, each text byte nonzero -------------------------

def slot_values() -> np.ndarray:
    """A value of each digit count 1..17 at each X from -4 to 16, both
    signs (fixed notation), values on both sides of that range and at the
    ends of the exponents (scientific), zeros, and values that go to the
    fallback or lie near it: nan, the infinities, a tie, subnormals and
    powers of two."""
    digits = "12345678912345678"
    fixed = [float(f"{sign}{digits[:n]}e{x - n + 1}") for sign in "+-"
             for x in range(-4, 17) for n in range(1, 18)]
    scientific = [float(f"-{digits[:n]}e{x - n + 1}") for n in range(1, 18)
                  for x in (-308, -300, -99, -5, 17, 99, 100, 308)]
    other = [0.0, -0.0, math.nan, math.inf, -math.inf, 3 * 2.0**-24, 5e-324,
             -2.2250738585072014e-308, 0.5, 1024.0, 2.0**60]
    return np.array(fixed + scientific + other)


# the two writers' fallbacks: CSV's is '%.17g' % itself, JSON's quotes nan
# and the infinities
FALLBACKS = {"%.17g": "%.17g".__mod__, "json": _json_scalar}


@pytest.mark.parametrize("style", sorted(FALLBACKS))
def test_every_slot_leaves_byte_0_a_hole_and_holds_its_text(style):
    v = slot_values()
    expected = [FALLBACKS[style](x) for x in v.tolist()]
    fallback = []
    # every byte starts nonzero: the kernel writes each one, its holes as 0
    out = np.full((v.size, _g17.SLOT_WORDS), 2**64 - 1, np.uint64)
    _g17.format_floats(v, out, lambda x: fallback.append(x) or FALLBACKS[style](x))
    slots = out.view(np.uint8).reshape(v.size, -1)
    assert not slots[:, 0].any()
    # the slot's nonzero bytes are the text, each text byte among them
    assert [bytes(slot).replace(b"\0", b"").decode() for slot in slots] == expected
    assert np.count_nonzero(slots, axis=1).tolist() == [len(t) for t in expected]
    assert max(map(len, expected)) == 24 and len(fallback) >= 4


def test_a_fallback_text_longer_than_the_slot_raises():
    v = np.array([1.0, math.nan])
    out = np.zeros((2, _g17.SLOT_WORDS), np.uint64)
    room = 8 * _g17.SLOT_WORDS - 1
    _g17.format_floats(v, out, lambda x: "n" * room)
    assert bytes(out.view(np.uint8)[1]) == b"\0" + b"n" * room
    for text in ("n" * (room + 1), "n\0n"):
        with pytest.raises(ValueError, match="fallback text"):
            _g17.format_floats(v, out, lambda x: text)


def _off_the_fallback(v: np.ndarray) -> np.ndarray:
    """``v`` with each cell that the kernel leaves to its fallback set to 1.5."""
    seen = []
    _g17.format_floats(v, np.empty(v.shape + (_g17.SLOT_WORDS,), np.uint64),
                       lambda x: seen.append(x) or repr(x))
    v = v.copy()
    v[np.isin(v, seen)] = 1.5
    return v


def test_a_call_through_a_workspace_allocates_nothing():
    """On a chunk of finite cells off the fallback, a call that reuses its
    workspace allocates none of its intermediates."""
    rng = np.random.default_rng(5)
    v = _off_the_fallback(rng.standard_normal(_CHUNK) * 10.0 ** rng.integers(-300, 300, _CHUNK))
    out = np.empty((_CHUNK, _g17.SLOT_WORDS), np.uint64)
    work = _g17.Workspace(_CHUNK)
    fallback = []
    _g17.format_floats(v, out, fallback.append, work)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _g17.format_floats(v, out, fallback.append, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fallback == []
    assert peak - start < 64 * 1024


def test_a_workspace_carries_nothing_between_calls():
    """A's slots are the same through a workspace that B, longer and with
    fallback cells, used in between, and the same as through a new one; a
    workspace too small for a call is refused."""
    rng = np.random.default_rng(6)
    a = _table_values(rng, 1_000)
    b = _table_values(rng, (3, 1_001))
    b[0, :3] = [math.nan, 5e-324, -2.0**-1070]
    work = _g17.Workspace(b.size)

    def slots(v, work):
        out = np.zeros(v.shape + (_g17.SLOT_WORDS,), np.uint64)
        _g17.format_floats(v, out, _json_scalar, work)
        return out

    first = slots(a, work)
    np.testing.assert_array_equal(slots(b, work), slots(b, None))
    np.testing.assert_array_equal(slots(a, work), first)
    np.testing.assert_array_equal(slots(a, None), first)
    with pytest.raises(ValueError, match="workspace"):
        slots(a, _g17.Workspace(a.size - 1))


def _table_values(rng, shape) -> np.ndarray:
    """Floats over every magnitude with -0.0, nan, the infinities and a
    subnormal among them."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    v.flat[::7] = rng.choice([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0, 0.1],
                             v.flat[::7].shape)
    return v


@pytest.mark.parametrize("width", [1, 2, 31, 32, 33])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_mixed_table_matches_per_element_cells(width, fmt):
    """Keyed and vector columns, a null column and a verdict, over row
    counts at the chunk edges: each cell as '%.17g' % gives it (JSON quoting
    nan and the infinities), its separator from its slot's byte 0."""
    is_json = fmt == "json"
    cells = 2 * width + 3  # t, x, f, z, eta
    rows = max(1, _CHUNK // cells)
    rng = np.random.default_rng(width)
    for n in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
        columns = [("t", np.arange(n) * 3), ("x", _table_values(rng, (n, width))),
                   ("f", _table_values(rng, n)), ("gap", None),
                   ("ok", rng.random(n) < 0.5), ("z", _table_values(rng, (n, width))),
                   ("eta", _table_values(rng, n))]
        text = b"".join(_table_rows(_Table(columns, verdict="ok"), is_json,
                                    "" if is_json else "agm-smooth,")).decode()
        records = [{k: None if v is None else v[i].tolist() for k, v in columns}
                   for i in range(n)]
        if is_json:
            assert text == json_reference(records)[1:-1]
        else:
            assert text == "".join(
                "agm-smooth," + ",".join(csv_reference(c) for v in r.values()
                                         for c in (v if isinstance(v, list) else [v])) + "\n"
                for r in records)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_one_cell_rows_match_per_element_cells_at_the_chunk_edges(fmt):
    """A table of one float column, a chunk of _CHUNK rows: a cell short of
    a chunk, one chunk, a cell over, and two chunks and a short one."""
    is_json = fmt == "json"
    rng = np.random.default_rng(12)
    for n in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 5):
        f = _table_values(rng, n)
        text = b"".join(_table_rows(_Table([("f", f)]), is_json)).decode()
        if is_json:
            assert text == json_reference([{"f": x} for x in f.tolist()])[1:-1]
        else:
            assert text == "".join(csv_reference(x) + "\n" for x in f.tolist())


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
    """One CSV cell formatted on its own: a float as '%.17g' %, nan and the
    infinities as such."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


@settings(deadline=None, max_examples=60)
@given(float_arrays(st.one_of(finite_floats, st.sampled_from(SPECIAL[3:]))))
def test_finite_array_matches_per_element_json(a):
    assert json_dumps(a) == "[" + ",".join(_json_scalar(v) for v in a.tolist()) + "]"


@settings(deadline=None, max_examples=60)
@given(float_arrays(any_floats))
def test_array_with_non_finite_matches_per_element_json(a):
    assert json_dumps(a) == "[" + ",".join(_json_scalar(v) for v in a.tolist()) + "]"


def test_long_vectors_match_per_element_json():
    # two chunks and a short one, at a chunk's edges, at the kernel's least
    # length, and empty
    rng = np.random.default_rng(7)
    v = rng.standard_normal(2 * _CHUNK + 5) * 10.0 ** rng.integers(-300, 300, 2 * _CHUNK + 5)
    v[[3, _CHUNK, 2 * _CHUNK]] = [math.nan, -math.inf, -0.0]
    for w in (v, v[:_CHUNK - 1], v[:_CHUNK], v[:_CHUNK + 1], v[:harness._VECTOR_CELLS], v[:0]):
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
    the chunk edges: a row short of a chunk, one chunk, a row over, two
    chunks and a row."""
    d = draw(st.sampled_from([1, 2, 3, 1000]))
    coupled = draw(st.booleans())
    gap = draw(st.sampled_from(["f_ref", "f_star", "none"]))
    # t, x, f, gap, the two gradient norms and eta; y, f_y and z
    cells = (3 * d + 7 if coupled else d + 6) - (gap == "none")
    rows = max(1, _CHUNK // cells)
    T = draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1, 2 * rows + 1]))
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
    # three rows of 3,007 cells at d = 1000: each a chunk of its own, two
    # chunks of two rows and one, one chunk, and at the default chunk
    rng = np.random.default_rng(11)
    trace = _trace(rng, 3, 1000, True, "f_ref",
                   lambda *shape: rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 9, shape))
    rows = trace_rows(trace)
    for chunk in (2_048, 2 * 3_007, 3 * 3_007, _CHUNK):
        monkeypatch.setattr(harness, "_CHUNK", chunk)
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


# --- CSV cells: exact round trip, and the text of the JSON cell --------------

def _json_cells(text: str):
    """The JSON text of a step table as rows of cells, each number as the
    ("num", token) it was written as, a quoted string as the str."""
    token = lambda s: ("num", s)  # noqa: E731
    return json.loads(text, parse_float=token, parse_int=token)


def _cells(row: dict, keys) -> list:
    return [c for k in keys for c in (row[k] if isinstance(row.get(k), list) else [row.get(k)])]


def assert_csv_cells_round_trip(lines, json_rows, rows, keys, lead=None):
    """Each CSV cell against the JSON cell and the value of the same place:
    empty for null, true or false for a verdict, and a number's text the
    JSON token, unquoted where JSON quotes a non-finite value; float() of
    it gives back the value's bits (a nan: a nan)."""
    assert len(lines) == len(json_rows) == len(rows)
    for line, json_row, row in zip(lines, json_rows, rows):
        cells = line.split(",")
        if lead is not None:
            assert cells.pop(0) == lead
        expected = list(zip(_cells(json_row, keys), _cells(row, keys), strict=True))
        for cell, (token, x) in zip(cells, expected, strict=True):
            if x is None or isinstance(x, bool):
                assert cell == ("" if x is None else json.dumps(x)) and token == x
                continue
            back = float(cell)
            assert (math.isnan(back) and math.isnan(x)
                    or np.float64(back).tobytes() == np.float64(x).tobytes()), (cell, x)
            if isinstance(token, str):
                assert cell == token and not math.isfinite(x)
            else:
                assert cell == token[1]


@settings(deadline=None, max_examples=25)
@given(step_traces())
def test_trace_csv_cells_round_trip_and_match_json(trace):
    with np.errstate(invalid="ignore", over="ignore"):
        lines = trace_to_csv(trace).splitlines()[1:]
        json_rows = _json_cells(json_dumps(trace_to_dict(trace)["steps"]))
        rows = trace_rows(trace)
    keys = ["t", "x"] + (["y", "z", "f_y"] if trace.y is not None else [])
    keys += ["f", "gap", "grad_norm", "grad_dual_norm", "eta"]
    assert_csv_cells_round_trip(lines, json_rows, rows, keys)


@settings(deadline=None, max_examples=40)
@given(st.lists(step_reports(), min_size=1, max_size=2))
def test_report_csv_cells_round_trip_and_match_json(reports):
    lines = report_to_csv(reports).splitlines()[1:]
    keys = ("t", "phi", "dphi", "allowed", "amortized", "ok", "slack")
    for r in reports:
        rows = report_rows(r)
        json_rows = _json_cells(json_dumps(_Table(list(r.steps.items()), "ok")))
        assert_csv_cells_round_trip(lines[:len(rows)], json_rows, rows, keys, r.theorem)
        lines = lines[len(rows):]
    assert lines == []
