"""Spans around shorsim's public functions, recorded from outside it.

Tracer.install replaces each name in TARGETS, in every loaded shorsim
module that holds a reference to it, with a wrapper that counts calls
and times them. Modules that import a name directly (postprocess takes
mod_pow and gcd from numtheory) therefore see the wrapper too, and so
do calls made through module attributes. A class is traced by wrapping
its __init__. A name that no longer exists is listed in `absent` and
the workload runs without it.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

TARGETS = {
    "compiler": ("work_orbit", "build_semiclassical_stages",
                 "find_period2_base"),
    "simulator": ("run_circuit", "output_distribution",
                  "control_reduced_density", "dft_oracle_distribution"),
    "_kernels": ("branch_probabilities", "branch_states_numpy"),
    "postprocess": ("run_full_algorithm", "extract_period", "derive_factors"),
    "numtheory": ("Semiprime", "is_probable_prime", "mod_pow", "gcd",
                  "mod_inverse", "to_decimal", "parse_decimal"),
    "coinlab": ("coin_factor_demo",),
    "fixtures": ("load_fixture", "verify_fixture"),
    "cli": ("dispatch",),
}


def _count_cells(counts, args, kwargs, result) -> None:
    """2**s * span amplitude cells behind one exact enumeration."""
    circuit = args[0] if args else kwargs["circuit"]
    counts["kernels.cells"] += (1 << circuit.num_readout_bits) \
        * circuit.work_register_span


def _count_attempts(counts, args, kwargs, report) -> None:
    """Simulated attempts and those that factored, per factoring run.

    Coin runs toss instead of simulating and gcd shortcuts skip the
    circuit, so neither counts as a simulated attempt.
    """
    if report.mode == "coin":
        return
    simulated = [d for d in report.attempt_details if not d.gcd_shortcut]
    counts["postprocess.attempts"] += len(simulated)
    counts["postprocess.factored_attempts"] += sum(
        d.outcome == "factored" for d in simulated)


HOOKS = {
    "simulator.output_distribution": _count_cells,
    "simulator.control_reduced_density": _count_cells,
    "postprocess.run_full_algorithm": _count_attempts,
}


class Tracer:
    def __init__(self) -> None:
        self.absent: list[str] = []
        self._spans: dict[str, list] = {}
        self._counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._active: Counter[str] = Counter()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "shorsim" or name.startswith("shorsim.")]
        for module_name, names in TARGETS.items():
            module = sys.modules.get(f"shorsim.{module_name}")
            for attr in names:
                span = f"{module_name.lstrip('_')}.{attr}"
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(span)
                    continue
                self._spans[span] = [0, 0.0, 0.0]
                if isinstance(original, type):
                    original.__init__ = self._wrap(span, original.__init__)
                    continue
                traced = self._wrap(span, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, traced)

    def _wrap(self, span: str, fn):
        hook = HOOKS.get(span)
        stack, active = self._stack, self._active
        record = self._spans[span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time spent in traced callees
            stack.append(frame)
            active[span] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active[span] -= 1
                record[0] += 1
                record[2] += elapsed - frame[0]
                if not active[span]:  # recursion counts once, inclusively
                    record[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                try:
                    hook(self._counts, args, kwargs, result)
                except AttributeError:
                    if span not in self.absent:
                        self.absent.append(span)
            return result

        return traced

    def snapshot(self) -> dict:
        """Totals since the last snapshot: calls, inclusive and self
        seconds per span, plus the derived counts. Resets them."""
        out = {
            "spans": {k: tuple(v) for k, v in self._spans.items()},
            "counts": dict(self._counts),
            "absent": list(self.absent),
        }
        for record in self._spans.values():
            record[:] = [0, 0.0, 0.0]
        self._counts.clear()
        return out
