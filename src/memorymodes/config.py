"""Flat key-value run configuration: parsing, validation, reservoir assembly.

Format: UTF-8 text, one ``key = value`` per line, ``#`` starts a comment.
All numeric values share the preset unit system (see models module).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

from .errors import ConsistencyWarning, NonPhysical, ParseError
from .models import Reservoir, TimeGrid

__all__ = ["ModelConfig", "validate_config", "validate_config_text"]

_COMMON_KEYS = ("omega0", "omega_c", "t_end", "n_steps")
_MODEL_KEYS = {
    "lorentzian": ("gamma", "omega_coupling"),
    "bandgap": ("w1", "w2", "gamma1", "gamma2", "omega_coupling"),
}
_KNOWN_KEYS = {"model", "t_start", *_COMMON_KEYS, *_MODEL_KEYS["lorentzian"], *_MODEL_KEYS["bandgap"]}


@dataclass(frozen=True)
class ModelConfig:
    """Validated model and grid portion of a run configuration."""

    model: Reservoir
    grid: TimeGrid
    raw: dict


def _parse_lines(text: str):
    entries: dict[str, tuple[str, int]] = {}
    problems: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            problems.append(f"line {lineno}: empty key")
            continue
        if key in entries:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        entries[key] = (value, lineno)
    return entries, problems


def validate_config_text(
    text: str, *, source: str = "<config>", allow_nonphysical: bool = False
) -> ModelConfig:
    """Parse and validate configuration text; see :func:`validate_config`."""
    entries, problems = _parse_lines(text)

    for key, (_value, lineno) in entries.items():
        if key not in _KNOWN_KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")

    model_kind = entries.get("model", (None, 0))[0]
    if model_kind is None:
        problems.append("missing required key 'model'")
        required = _COMMON_KEYS
    elif model_kind not in _MODEL_KEYS:
        lineno = entries["model"][1]
        problems.append(
            f"line {lineno}: model must be 'lorentzian' or 'bandgap', got {model_kind!r}"
        )
        required = _COMMON_KEYS
    else:
        required = _COMMON_KEYS + _MODEL_KEYS[model_kind]

    values: dict[str, float] = {}
    for key in required + ("t_start",):
        if key not in entries:
            if key != "t_start":
                problems.append(f"missing required key {key!r}")
            continue
        raw_value, lineno = entries[key]
        try:
            if key == "n_steps":
                values[key] = int(raw_value)
            else:
                values[key] = float(raw_value)
                if not math.isfinite(values[key]):
                    raise ValueError
        except ValueError:
            kind = "an integer" if key == "n_steps" else "a finite number"
            problems.append(f"line {lineno}: {key} must be {kind}, got {raw_value!r}")

    grid_problems = len(problems)
    if "n_steps" in values and values["n_steps"] < 2:
        problems.append(f"n_steps must be at least 2, got {values['n_steps']}")
    t_start = values.get("t_start", 0.0)
    if "t_end" in values:
        if not values["t_end"] > t_start:
            problems.append(f"t_end must exceed t_start, got t_end={values['t_end']}")
        elif not math.isfinite(values["t_end"] - t_start):
            problems.append(
                f"t_end - t_start must be finite, got t_start={t_start}, t_end={values['t_end']}"
            )
    if len(problems) == grid_problems and {"t_end", "n_steps"} <= values.keys():
        try:
            grid = TimeGrid(t_start=t_start, t_end=values["t_end"], n_steps=values["n_steps"])
        except ValueError as exc:  # a step too small to advance the times
            problems.append(str(exc))

    if problems:
        raise ParseError([f"{source}: {p}" for p in problems])

    try:
        model = _reservoir(model_kind, values, allow_nonphysical)
    except NonPhysical as exc:
        raise NonPhysical(f"{source}: {exc}") from None
    raw = {key: entries[key][0] for key in entries}
    return ModelConfig(model=model, grid=grid, raw=raw)


def _reservoir(kind: str, values: dict, allow_nonphysical: bool) -> Reservoir:
    """The reservoir of one config kind: a peak at ``omega_c``, for ``bandgap`` minus a dip.

    Band-gap weights are physical, so ``w2 >= 0`` is checked and ``omega_coupling**2``
    is compared with the integrated weight ``w1 - w2`` here.
    """
    omega0, omega_c, coupling = values["omega0"], values["omega_c"], values["omega_coupling"]
    if kind == "lorentzian":
        peaks = ((1.0, values["gamma"], omega_c),)
        return Reservoir(omega0, coupling, peaks, allow_nonphysical)
    w1, w2 = values["w1"], values["w2"]
    peaks = ((w1, values["gamma1"], omega_c), (-w2, values["gamma2"], omega_c))
    reservoir = Reservoir(omega0, coupling, peaks, allow_nonphysical)
    if not w2 >= 0:  # a negative w2 would be a second positive peak, not a dip
        raise NonPhysical(f"weights must satisfy w1 > w2 >= 0, got w1={w1}, w2={w2}")
    total_weight = w1 - w2
    if abs(coupling**2 - total_weight) > 0.01 * total_weight:
        warnings.warn(
            f"omega_coupling**2 = {coupling**2:.6g} differs from the "
            f"integrated spectral weight w1 - w2 = {total_weight:.6g} by more "
            "than 1%; proceeding with the given coupling",
            ConsistencyWarning,
            stacklevel=3,
        )
    return reservoir


def validate_config(path, *, allow_nonphysical: bool = False) -> ModelConfig:
    """Parse and physically validate a configuration file.

    Every violation is collected before failing: syntax and schema problems
    raise ``ParseError`` listing all of them with line numbers, and a
    syntactically sound file with invalid physics raises ``NonPhysical``
    naming the violated inequality.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    return validate_config_text(text, source=str(path), allow_nonphysical=allow_nonphysical)
