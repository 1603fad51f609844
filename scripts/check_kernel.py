#!/usr/bin/env python3
"""Check the vectorized float formatter against Python, value by value.

Both styles of ``gdcert._g17.format_floats`` are compared with Python on
seeded inputs: the %.17g style with ``'%.17g' %`` and the repr style with
``repr``. Each batch mixes random 64-bit patterns (every exponent,
subnormals, nan and the infinities included), values rounded to 1..17
significant digits over many magnitudes, integers below 2**53, and the
neighbours of powers of ten and of two. The cells the kernel leaves to its
fallback are counted; the fallback is the reference itself. Exit code 1 on
the first mismatch.

Usage:
    python scripts/check_kernel.py [count] [seed]    (default 10000000 0)
"""

import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gdcert import _g17  # noqa: E402

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


def texts(v: np.ndarray, shortest: bool, fallback) -> tuple:
    calls = []

    def counted(x):
        calls.append(x)
        return fallback(x)

    out = np.zeros((v.size, _g17.SLOT_WORDS), np.uint64)
    _g17.format_floats(v, out, counted, shortest)
    slots = out.view(np.uint8).reshape(v.size, -1)
    slots[:, -1] = ord(",")  # a slot's last byte is always a hole
    return slots.tobytes().translate(None, b"\0").decode().split(",")[:-1], len(calls)


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
    rng = np.random.default_rng(int(sys.argv[2]) if len(sys.argv) > 2 else 0)
    done, slow = 0, {False: 0, True: 0}
    while done < count:
        v = batch(rng, min(BATCH, count - done))
        values = v.tolist()
        for shortest, reference in ((False, g17), (True, repr)):
            got, calls = texts(v, shortest, reference)
            slow[shortest] += calls
            for x, text in zip(values, got):
                if text != reference(x):
                    style = "repr" if shortest else "%.17g"
                    print(f"MISMATCH ({style}): {x!r} -> {text!r}, "
                          f"expected {reference(x)!r}")
                    return 1
        done += v.size
    print(f"{done} values, both styles exact; fallback share "
          f"%.17g {slow[False] / done:.4%}, repr {slow[True] / done:.4%} "
          f"(nan and the infinities included)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
