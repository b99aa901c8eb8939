"""Flat experiment configuration: ``section.key = value`` lines, one level deep.

Sections: ``model`` (the scalar coefficients and time windows), ``disc``
(mode cutoff, basis degree, grids), ``data`` (initial fields, source tables,
noise), ``task`` (command-specific options).  Lists are comma separated,
tables are semicolon-separated rows of comma/whitespace separated entries,
complex entries use the Python ``1+2j`` notation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .forward import SourceSpec
from .modes import ModelParams, SpectralField, analyze

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_integer", "load_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _parse_scalar(text: str):
    text = text.strip()
    for cast in (int, float, complex):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _real(section: dict, key: str, default: str) -> float:
    """The value of ``key`` ('section.name') in its parsed section, as a finite real number."""
    text = section.get(key.split(".", 1)[1], default)
    value = _parse_scalar(text)
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ConfigError(f"{key} must be a finite real number, got {text!r}")
    return float(value)


def parse_integer(text: str, key: str) -> int:
    """``text`` as an integer: an integer or an integral float such as ``2.0``.

    Anything else raises ``ConfigError`` naming ``key`` and the text.
    """
    value = _parse_scalar(text)
    if not (isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise ConfigError(f"{key} must be an integer, got {text!r}")
    return int(value)


def _integer(section: dict, key: str, default: str) -> int:
    """The value of ``key`` ('section.name') in its parsed section, as an integer."""
    return parse_integer(section.get(key.split(".", 1)[1], default), key)


def _number(entry: str, key: str, text: str) -> complex:
    """One entry of ``text``, the value of ``key``, as a finite (complex) number."""
    value = _parse_scalar(entry)
    if not (isinstance(value, (int, float, complex)) and np.isfinite(value)):
        raise ConfigError(f"{key} entries must be finite numbers, got {entry.strip()!r} in {text!r}")
    return complex(value)


def _parse_list(text: str, key: str) -> list[complex]:
    return [_number(p, key, text) for p in text.split(",") if p.strip()]


def _parse_table(text: str, key: str) -> list[list[complex]]:
    rows = (row.replace(",", " ").split() for row in text.split(";"))
    return [[_number(p, key, text) for p in row] for row in rows if row]


def parse_config(text: str) -> dict[str, dict[str, str]]:
    """Raw parse: dotted keys into {section: {key: value-string}}."""
    out: dict[str, dict[str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key.count(".") != 1:
            raise ConfigError(f"line {lineno}: key must be 'section.key', got {key!r}")
        section, name = key.split(".")
        out.setdefault(section.strip(), {})[name.strip()] = value.strip()
    return out


_PRESETS = {
    # x(pi - x): smooth hump vanishing at both endpoints
    "parabola": lambda x: x * (math.pi - x),
    # a single-hump bump shifted off center
    "offcenter": lambda x: np.sin(x) * np.exp(-((x - 1.0) ** 2)),
}


_MODEL_DEFAULTS = {
    "alpha": "0.7",
    "kappa": "1.0",
    "varkappa": "1.0",
    "a": "0.0",
    "b": "0.0",
    "c": "0.0",
    "d": "0.0",
    "t0": "1.0",
    "t1": "2.0",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration ready to drive the solvers."""

    model: ModelParams
    K: int
    degree: int
    t_points: int
    t_grid_kind: str
    phi: SpectralField
    psi: SpectralField
    source: SourceSpec
    noise: float
    seed: int
    task: dict = field(default_factory=dict)

    def time_grid(self) -> np.ndarray:
        """Solver grid on [0, t1] (uniform) used by the forward command."""
        return np.linspace(0.0, self.model.t1, self.t_points)

    def observation_grid(self) -> np.ndarray:
        """Data grid of t_points inside (t0, t1), uniform or geometrically refined toward t0."""
        m = self.t_points
        p = self.model
        if self.t_grid_kind == "geometric":
            return p.t0 + (p.t1 - p.t0) * np.geomspace(1e-4, 1.0, m + 1)[:-1]
        return np.linspace(p.t0, p.t1, m + 2)[1:-1]


def _field_from(data: dict, key: str, K: int) -> SpectralField:
    preset = data.get(f"{key}_preset")
    if preset is not None:
        if preset not in _PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(_PRESETS)}")
        return analyze(_PRESETS[preset], K)
    raw = data.get(key)
    if raw is None:
        return SpectralField.zero(K)
    vals = _parse_list(raw, f"data.{key}")
    if len(vals) > K:
        raise ConfigError(f"data.{key} has {len(vals)} entries, disc.K = {K}")
    coeffs = np.zeros(K, dtype=complex)
    coeffs[: len(vals)] = vals
    return SpectralField(coeffs)


def _source_table(data: dict, key: str, K: int, degree: int, t0: float) -> np.ndarray:
    raw = data.get(key)
    out = np.zeros((K, degree + 1), dtype=complex)
    if raw is None:
        return out
    rows = _parse_table(raw, f"data.{key}")
    if len(rows) > K:
        raise ConfigError(f"data.{key} has {len(rows)} rows, disc.K = {K}")
    for i, row in enumerate(rows):
        if len(row) > degree + 1:
            raise ConfigError(f"data.{key} row {i + 1} has {len(row)} entries, disc.M = {degree}")
        out[i, : len(row)] = row
    return out


def load_config(text: str) -> ExperimentConfig:
    raw = parse_config(text)
    model_raw = raw.get("model", {})
    coeffs = {name: _real(model_raw, f"model.{name}", default) for name, default in _MODEL_DEFAULTS.items()}
    try:
        model = ModelParams(**coeffs)
    except ValueError as exc:
        # AdmissibilityError subclasses ValueError; keep its message verbatim
        raise ConfigError(str(exc)) from exc

    disc = raw.get("disc", {})
    K = _integer(disc, "disc.K", "5")
    degree = _integer(disc, "disc.M", "3")
    t_points = _integer(disc, "disc.t_points", "201")
    t_grid_kind = str(disc.get("t_grid", "uniform"))
    if K < 1 or degree < 0 or t_points < 2:
        raise ConfigError("disc.K >= 1, disc.M >= 0, disc.t_points >= 2 required")
    if t_grid_kind not in ("uniform", "geometric"):
        raise ConfigError(f"disc.t_grid must be 'uniform' or 'geometric', got {t_grid_kind!r}")

    data = raw.get("data", {})
    phi = _field_from(data, "phi", K)
    psi = _field_from(data, "psi", K)
    source = SourceSpec(
        degree=degree,
        t0=model.t0,
        f_coeffs=_source_table(data, "f", K, degree, model.t0),
        chi_coeffs=_source_table(data, "chi", K, degree, model.t0),
    )
    noise = _real(data, "data.noise", "0.0")
    seed = _integer(data, "data.seed", "0")
    if noise < 0:
        raise ConfigError("data.noise must be >= 0")

    task_raw = raw.get("task", {})
    task = {k: _parse_scalar(v) for k, v in task_raw.items()}
    task["mu"] = _real(task_raw, "task.mu", "0.0")
    task["s_imag"] = _real(task_raw, "task.s_imag", "0.0")
    if task["mu"] < 0:
        raise ConfigError(f"task.mu must be >= 0, got {task_raw['mu']!r}")
    # the coupling decides the problem family; a leftover task.problem is
    # accepted only where it agrees with model.a
    family = "ip2" if model.coupled else "ip1"
    if str(task.pop("problem", family)) != family:
        raise ConfigError(f"task.problem must be {family!r} (or absent) when model.a = {model.a}")
    return ExperimentConfig(
        model=model,
        K=K,
        degree=degree,
        t_points=t_points,
        t_grid_kind=t_grid_kind,
        phi=phi,
        psi=psi,
        source=source,
        noise=noise,
        seed=seed,
        task=task,
    )
