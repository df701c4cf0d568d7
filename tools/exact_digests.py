"""Print the SHA-256 of every exact route's output, and of seeded
sampled shots, over a sweep of shapes, one line per route and shape:

    python3 tools/exact_digests.py > digests.txt
    python3 tools/exact_digests.py --limit 3

Each line reads "<route> <a> <n> <s> <sha256>", the digest taken over
the bytes of the float64 probabilities (output_distribution,
dft_oracle_distribution), of the complex128 2x2 matrix
(control_reduced_density), or of the standard output of
`shorsim simulate --kind semiclassical --a A --n N --s S --seed K` for
K = 0, 1, 2, 3 in turn, run through cli.main in this process
(simulate). The shapes, in the order printed: every n
from 2 to 129, then n = 311, 337, 1009, 3127 and 65519; for
each n, the bases 2, 3, 5, 7, n - 1 and (n // 2) | 1, reduced mod n,
each once and only where it is a unit; for each base of order r, the
readout sizes s = 1, 2, 3, 4, 5, 7, 10, 13 and 16 with 2**s * r at
most 2**22 cells. --limit keeps the first shapes only.

The script imports shorsim from the checkout that holds it. To check
that a change leaves the exact outputs and the seeded shots
byte-identical, run it in both checkouts on one machine and diff the
two outputs. The digests depend on the machine (the BLAS kernels that
sum dgemm and zdotc), so none is committed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import sys
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shorsim import cli  # noqa: E402
from shorsim.compiler import build_semiclassical_stages  # noqa: E402
from shorsim.numtheory import multiplicative_order  # noqa: E402
from shorsim.simulator import (  # noqa: E402
    control_reduced_density,
    dft_oracle_distribution,
    output_distribution,
)

MODULI = (*range(2, 130), 311, 337, 1009, 3127, 65519)
READOUT_BITS = (1, 2, 3, 4, 5, 7, 10, 13, 16)
MAX_CELLS = 1 << 22
SHOT_SEEDS = (0, 1, 2, 3)


def shapes():
    """Every (a, n, s) of the sweep, in the order printed."""
    for n in MODULI:
        bases = dict.fromkeys(b % n for b in (2, 3, 5, 7, n - 1, (n // 2) | 1))
        for a in bases:
            if math.gcd(a, n) != 1:
                continue
            r = multiplicative_order(a, n)
            for s in READOUT_BITS:
                if r << s <= MAX_CELLS:
                    yield a, n, s


def simulate_output(a: int, n: int, s: int) -> str:
    """What `shorsim simulate` writes for the shape at each seed of
    SHOT_SEEDS, one after another."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for seed in SHOT_SEEDS:
            argv = ["simulate", "--kind", "semiclassical", "--a", str(a),
                    "--n", str(n), "--s", str(s), "--seed", str(seed)]
            if cli.main(argv) != 0:
                raise RuntimeError(f"shorsim {' '.join(argv)} failed")
    return out.getvalue()


def digests(a: int, n: int, s: int):
    """(route name, SHA-256 of its output bytes) for each exact route,
    then for the seeded shots."""
    circuit = build_semiclassical_stages(a, n, s)
    outputs = (
        ("output_distribution", output_distribution(circuit).as_array()),
        ("control_reduced_density", control_reduced_density(circuit)),
        ("dft_oracle_distribution", dft_oracle_distribution(a, n, s)
         .as_array()),
    )
    for route, array in outputs:
        yield route, hashlib.sha256(array.tobytes()).hexdigest()
    yield "simulate", hashlib.sha256(
        simulate_output(a, n, s).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=int, default=None,
                        help="print the first LIMIT shapes only")
    args = parser.parse_args(argv)
    for a, n, s in islice(shapes(), args.limit):
        for route, digest in digests(a, n, s):
            print(route, a, n, s, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
