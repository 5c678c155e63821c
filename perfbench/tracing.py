"""Per-layer spans recorded from outside the program.

For a traced pass, :func:`instrumented` replaces each layer's public
functions at the names through which ``memorymodes.cli`` and
``memorymodes.trajectories`` call them with wrappers that record one span per
call: name, start, end and parent. The layers are the package modules. Spans
stay in memory; the caller writes them out when the benchmark ends.

A span's self time is its duration minus that of its direct children. Calls
are single-threaded and properly nested, so the children never overlap and
the self times of one pass sum to at most its wall time.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# name in memorymodes.cli -> span; every csvio function the CLI imports is
# also wrapped, as "csvio.write"
CLI_SPANS = {
    "validate_config": "config.validate",
    "validate_config_text": "config.validate",
    "propagate_single": "amplitudes.propagate",
    "propagate_double": "amplitudes.propagate",
    "rates_from_amplitudes": "rates.extract",
    "memory_identity_single": "rates.identity",
    "memory_identity_double": "rates.identity",
    "intermode_memory_identity": "rates.identity",
    "evolve_atom_timelocal": "density.timelocal",
    "evolve_lindblad_single": "density.lindblad",
    "evolve_lindblad_double": "density.lindblad",
    "atom_density_from_amplitudes": "density.reduce",
    "partial_trace_pseudomodes": "density.reduce",
    "info_series": "info.series",
    "run_nmqj": "trajectories.nmqj",
    "run_mcwf_pseudomode": "trajectories.mcwf",
    "compare_unravelings": "trajectories.compare",
    "run": "cli.run",
}

# the MCWF engine propagates its no-jump state through the amplitudes layer
TRAJECTORIES_SPANS = {
    "propagate_single": "amplitudes.propagate",
    "propagate_double": "amplitudes.propagate",
}

#: self-time metric of each span; cli.self_s is the cli.run span minus its
#: children, which leaves the route-diff loop and manifest writing
SELF_TIME_METRICS = {
    "config.validate": "config.validate_s",
    "amplitudes.propagate": "amplitudes.propagate_s",
    "rates.extract": "rates.extract_s",
    "rates.identity": "rates.identity_s",
    "density.timelocal": "density.timelocal_s",
    "density.lindblad": "density.lindblad_s",
    "density.reduce": "density.reduce_s",
    "info.series": "info.series_s",
    "trajectories.nmqj": "trajectories.nmqj_s",
    "trajectories.mcwf": "trajectories.mcwf_s",
    "trajectories.compare": "trajectories.compare_s",
    "csvio.write": "csvio.write_s",
    "cli.run": "cli.self_s",
}

#: counts that must repeat exactly across passes with one seed
COUNT_METRICS = (
    "amplitudes.calls",
    "density.states",
    "csvio.rows",
    "csvio.bytes",
    "trajectories.member_steps",
    "trajectories.draws",
    "trajectories.jumps",
)


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.rate_points = [0, 0]  # valid, total
        self.written: list[Path] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            self._count(name, args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, args, kwargs, result) -> None:
        counts = self.counts
        if name == "amplitudes.propagate":
            counts["amplitudes.calls"] += 1
        elif name.startswith("density."):
            counts["density.states"] += len(result) if isinstance(result, list) else 1
        elif name == "rates.extract":
            self.rate_points[0] += int(np.count_nonzero(result.valid))
            self.rate_points[1] += result.valid.size
        elif name in ("trajectories.nmqj", "trajectories.mcwf"):
            # Computed from the returned arrays: the members at risk on each
            # step (direct steps: n0; reverse steps: n1), which is how many
            # uniforms a per-member sampler draws, and the members that moved.
            n0, n1 = result.n0, result.n1
            counts["trajectories.member_steps"] += result.n_members * (len(n0) - 1)
            if name == "trajectories.nmqj":
                gamma = (args[0] if args else kwargs["rates"]).gamma[:-1]
                at_risk = np.where(gamma >= 0.0, n0[:-1], n1[:-1])
                jumps = np.abs(np.diff(n0)).sum()
            else:
                at_risk = n0[:-1]
                jumps = result.jump_counts.sum()
            counts["trajectories.draws"] += int(at_risk.sum())
            counts["trajectories.jumps"] += int(jumps)
        elif name == "csvio.write":
            self.written.append(Path(args[0] if args else kwargs["path"]))

    def count_files(self) -> None:
        """Rows and bytes of the CSVs written; call before the files are removed."""
        for path in self.written:
            data = path.read_bytes()
            header_lines = 2 if data.startswith(b"#") else 1
            self.counts["csvio.rows"] += data.count(b"\n") - header_lines
            self.counts["csvio.bytes"] += len(data)
        self.written.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer plus the counts and ratios, for this pass."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics: dict[str, float] = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        for (name, start, end, _parent), inner in zip(self.spans, child_time):
            metrics[SELF_TIME_METRICS[name]] += end - start - inner
        metrics.update(self.counts)
        valid, total = self.rate_points
        metrics["rates.valid_fraction"] = valid / total if total else 0.0
        jumps = self.counts["trajectories.jumps"]
        metrics["trajectories.draws_per_jump"] = self.counts["trajectories.draws"] / jumps if jumps else 0.0
        return metrics


@contextmanager
def instrumented(tracer: Tracer):
    """Route the CLI's and the samplers' layer calls through ``tracer`` while active."""
    from memorymodes import cli, trajectories

    targets = [(cli, attr, span) for attr, span in CLI_SPANS.items()]
    targets += [
        (cli, attr, "csvio.write")
        for attr, value in vars(cli).items()
        if callable(value) and getattr(value, "__module__", None) == "memorymodes.csvio"
    ]
    targets += [(trajectories, attr, span) for attr, span in TRAJECTORIES_SPANS.items()]
    originals = []
    try:
        for module, attr, span in targets:
            fn = getattr(module, attr, None)
            if fn is None:  # a layer function the program no longer has reads 0
                continue
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(span, fn))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
