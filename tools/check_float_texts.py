"""Check motkit.floattext against repr on seeded random float64 bit patterns.

    PYTHONPATH=src python3 tools/check_float_texts.py [COUNT] [SEED]

Draws COUNT (default 10**6) uniformly random 64-bit patterns from
numpy.random.default_rng(SEED) (default 0), so every sign, exponent and
mantissa occurs, zeros, subnormals, infinities and NaNs among them. Formats
them with text_rows, one value a line, and compares the bytes with one
repr per value. Prints the count, the mismatches and the share of values
the kernel left to repr (its fallback); exits 1 on any mismatch.
"""

from __future__ import annotations

import sys

import numpy as np

from motkit import floattext


def main(argv) -> int:
    count = int(argv[0]) if argv else 10 ** 6
    seed = int(argv[1]) if len(argv) > 1 else 0
    values = np.random.default_rng(seed).integers(
        -2 ** 63, 2 ** 63 - 1, count, dtype=np.int64, endpoint=True).view(np.float64)
    got = b"".join(floattext.text_rows([values], b"", b"", b"\n")).split(b"\n")[:-1]
    want = [repr(v).encode() for v in values.tolist()]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    bad += list(range(min(len(got), len(want)), max(len(got), len(want))))
    fallback = 0
    for start in range(0, count, floattext.BLOCK):
        block = values[start:start + floattext.BLOCK]
        words = np.empty((len(block), floattext.WORDS), dtype="<u8")
        fallback += len(floattext._slots(block, words)[1])
    print(f"values {count} seed {seed} mismatches {len(bad)} "
          f"fallback {fallback} ({fallback / max(count, 1):.3%})")
    for i in bad[:10]:
        print(f"  {values[i]!r}: {got[i] if i < len(got) else None!r} "
              f"!= {want[i] if i < len(want) else None!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
