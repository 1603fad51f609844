#!/usr/bin/env python3
"""Check the vectorized float formatter against Python, value by value.

``gdcert._g17.format_floats`` is compared with ``'%.17g' %``, the text of
every finite number in JSON and of every float in CSV, on seeded inputs.
Each batch mixes random 64-bit patterns (every exponent, subnormals, nan
and the infinities included), values rounded to 1..17 significant digits
over many magnitudes, integers below 2**53, and the neighbours of powers
of ten and of two. Each batch is formatted in slices of
``gdcert.harness._CHUNK`` cells through one workspace, reused by every call
as the step-table writer reuses it. Each slot must leave its byte 0 a hole
and hold its text in exactly as many nonzero bytes, so that no text byte is
0. The cells the kernel leaves to its fallback are counted, and so are the
minor page faults of its calls; the fallback is the reference itself. Exit
code 1 on the first mismatch.

Usage:
    python scripts/check_kernel.py [count] [seed]    (default 10000000 0)
"""

import pathlib
import resource
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gdcert import _g17  # noqa: E402
from gdcert.harness import _CHUNK  # noqa: E402

BATCH = 1 << 16


def g17(x: float) -> str:
    return "%.17g" % x


def batch(rng: np.random.Generator, n: int) -> np.ndarray:
    quarter = n // 4
    bits = rng.integers(0, 2**64, n - 3 * quarter, dtype=np.uint64).view(np.float64)
    x = rng.standard_normal(quarter) * 10.0 ** rng.integers(-300, 300, quarter)
    digits = rng.integers(1, 18, quarter)
    rounded = [float("%.*g" % (k, y)) for k, y in zip(digits.tolist(), x.tolist())]
    ints = rng.integers(0, 2**53, quarter).astype(float)
    k = rng.integers(-1074, 1024, quarter)
    edges = np.where(k % 2 == 0, np.ldexp(1.0, k),
                     10.0 ** np.clip(k // 3, -323, 308))
    edges = np.nextafter(edges, np.where(rng.random(quarter) < 0.5, 0.0, np.inf)
                         ) * np.where(rng.random(quarter) < 0.5, 1.0, -1.0)
    return np.concatenate([bits, rounded, ints, edges])


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def texts(v: np.ndarray, fallback, work: _g17.Workspace) -> tuple:
    calls, faults = [], 0

    def counted(x):
        calls.append(x)
        return fallback(x)

    # every byte starts nonzero, so the kernel writes each one, its holes as
    # 0; and every page is touched before the kernel's faults are counted
    out = np.full((v.size, _g17.SLOT_WORDS), 2**64 - 1, np.uint64)
    for lo in range(0, v.size, _CHUNK):
        before = minor_faults()
        _g17.format_floats(v[lo:lo + _CHUNK], out[lo:lo + _CHUNK], counted, work)
        faults += minor_faults() - before
    slots = out.view(np.uint8).reshape(v.size, -1)
    holes = not slots[:, 0].any()
    sizes = np.count_nonzero(slots, axis=1).tolist()
    slots[:, 0] = ord(",")  # the literal byte, which the kernel leaves a hole
    text = slots.tobytes().translate(None, b"\0").decode().split(",")[1:]
    return text, sizes, holes, len(calls), faults


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
    rng = np.random.default_rng(int(sys.argv[2]) if len(sys.argv) > 2 else 0)
    done, slow, faults, kernel_calls = 0, 0, 0, 0
    work = _g17.Workspace(_CHUNK)
    while done < count:
        v = batch(rng, min(BATCH, count - done))
        got, sizes, holes, calls, batch_faults = texts(v, g17, work)
        slow += calls
        faults += batch_faults
        kernel_calls += -(-v.size // _CHUNK)
        if not holes:
            print("SLOT: a slot's byte 0 is not a hole")
            return 1
        for x, text, size in zip(v.tolist(), got, sizes):
            expected = g17(x)
            if text != expected or size != len(expected):
                print(f"MISMATCH: {x!r} -> {text!r} in {size} nonzero bytes, "
                      f"expected {expected!r}")
                return 1
        done += v.size
    print(f"{done} values exact; fallback share {slow / done:.4%} (nan and the "
          f"infinities included); {faults / kernel_calls:.2f} minor faults a "
          f"kernel call of up to {_CHUNK} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
