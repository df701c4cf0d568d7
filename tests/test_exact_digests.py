"""tools/exact_digests.py on the first shapes of its sweep."""

import hashlib
import importlib.util
import re
from itertools import islice
from pathlib import Path

from shorsim.compiler import build_semiclassical_stages
from shorsim.simulator import control_reduced_density

_PATH = Path(__file__).resolve().parent.parent / "tools" / "exact_digests.py"
_SPEC = importlib.util.spec_from_file_location("exact_digests", _PATH)
exact_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(exact_digests)

ROUTES = ("output_distribution", "control_reduced_density",
          "dft_oracle_distribution")


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
    assert lines[7].split()[-1] \
        == hashlib.sha256(density.tobytes()).hexdigest()

