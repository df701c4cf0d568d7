"""tools/exact_digests.py on the first shapes of its sweep."""

import hashlib
import importlib.util
import re
from itertools import islice
from pathlib import Path

from shorsim import cli
from shorsim.compiler import build_semiclassical_stages
from shorsim.simulator import control_reduced_density

_PATH = Path(__file__).resolve().parent.parent / "tools" / "exact_digests.py"
_SPEC = importlib.util.spec_from_file_location("exact_digests", _PATH)
exact_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(exact_digests)

ROUTES = ("output_distribution", "control_reduced_density",
          "dft_oracle_distribution", "simulate")


def test_first_three_shapes(capsys):
    assert exact_digests.main(["--limit", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    shapes = list(islice(exact_digests.shapes(), 3))
    assert len(shapes) == 3
    assert [line.rsplit(" ", 1)[0] for line in lines] \
        == [f"{route} {a} {n} {s}" for a, n, s in shapes for route in ROUTES]
    assert all(re.fullmatch(r"[a-z_]+ \d+ \d+ \d+ [0-9a-f]{64}", line)
               for line in lines)
    a, n, s = shapes[2]
    density = control_reduced_density(build_semiclassical_stages(a, n, s))
    assert lines[9].split()[-1] \
        == hashlib.sha256(density.tobytes()).hexdigest()


def test_simulate_digest_covers_four_seeded_runs(capsys):
    # the last shape's simulate line, recomputed from four runs of the
    # command, each captured on its own
    assert exact_digests.main(["--limit", "3"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    route, a, n, s, digest = line.split()
    assert (route, (int(a), int(n), int(s))) \
        == ("simulate", list(islice(exact_digests.shapes(), 3))[2])
    outs = []
    for seed in range(4):
        assert cli.main(["simulate", "--kind", "semiclassical", "--a", a,
                         "--n", n, "--s", s, "--seed", str(seed)]) == 0
        outs.append(capsys.readouterr().out)
    assert digest == hashlib.sha256("".join(outs).encode()).hexdigest()
