"""Flat key-value run configuration with dotted section names.

The on-disk format is one ``key = value`` pair per line, ``#`` comment
lines, blank lines ignored. Keys are dotted (``model.d1``, ``stop.t_end``);
values are plain text interpreted by the typed getters. Serialization is
canonical (sorted keys), so configs round-trip through parse/serialize
unchanged. The full schema lives in docs/config.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .fbsolver import SolverNumerics, StopRule
from .model import BoundaryKind, InitialData, ModelParams, Nonlinearity
from .semiwave import SemiwaveNumerics
from ._format import fmt


class ConfigError(ValueError):
    """Malformed or out-of-schema configuration."""


_KNOWN_KEYS = {
    "nonlinearity.name", "nonlinearity.hp", "nonlinearity.hq",
    "nonlinearity.gp", "nonlinearity.gq", "nonlinearity.c",
    "model.d1", "model.d2", "model.a", "model.b",
    "model.mu1", "model.mu2", "model.boundary",
    "init.h0", "init.shape", "init.amplitude", "init.table", "init.nodes",
    "numerics.n",
    "numerics.dx_semiwave",
    "semiwave.c",
    "stop.t_end",
    "output.dir", "output.cadence", "output.snapshots",
    "sweep.h0", "sweep.amplitude", "sweep.mu",
}


@dataclass(frozen=True)
class RunConfig:
    entries: tuple  # sorted (key, value) text pairs

    # -- parsing / serialization ------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        pairs = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in pairs:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            pairs[key] = value
        return cls(entries=tuple(sorted(pairs.items())))

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r") as fh:
            return cls.parse(fh.read())

    def serialize(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.entries)

    def override(self, updates: dict) -> "RunConfig":
        pairs = dict(self.entries)
        for key, value in updates.items():
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            pairs[key] = value if isinstance(value, str) else fmt(value)
        return RunConfig(entries=tuple(sorted(pairs.items())))

    # -- typed access ------------------------------------------------------

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.entries:
            if k == key:
                return v
        return default

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ConfigError(f"missing required key {key!r}")
        return value

    def getfloat(self, key: str, default: float | None = None) -> float | None:
        value = self.get(key)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: not a number: {value!r}") from exc

    def getint(self, key: str, default: int | None = None) -> int | None:
        value = self.get(key)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer: {value!r}") from exc

    def getfloats(self, key: str) -> list[float] | None:
        value = self.get(key)
        if value is None or value == "":
            return None
        try:
            return [float(tok) for tok in value.split(",")]
        except ValueError as exc:
            raise ConfigError(f"{key}: not a comma list of numbers: {value!r}") from exc


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_nonlinearity(cfg: RunConfig) -> Nonlinearity:
    """The reaction pair; ``cholera`` spells hp = nonlinearity.c, hq = 0."""
    name = cfg.get("nonlinearity.name", "saturating")
    if name == "saturating":
        hp, hq = cfg.getfloat("nonlinearity.hp", 2.0), cfg.getfloat("nonlinearity.hq", 1.0)
    elif name == "cholera":
        hp, hq = cfg.getfloat("nonlinearity.c", 1.0), 0.0
    else:
        raise ConfigError(f"unknown nonlinearity {name!r}")
    return Nonlinearity(hp=hp, hq=hq, gp=cfg.getfloat("nonlinearity.gp", 2.0),
                        gq=cfg.getfloat("nonlinearity.gq", 1.0))


def build_params(cfg: RunConfig) -> ModelParams:
    boundary = cfg.get("model.boundary", "neumann").lower()
    try:
        kind = BoundaryKind(boundary)
    except ValueError as exc:
        raise ConfigError(f"model.boundary: {boundary!r}") from exc
    try:
        return ModelParams(
            d1=cfg.getfloat("model.d1", 1.0), d2=cfg.getfloat("model.d2", 1.0),
            a=cfg.getfloat("model.a", 1.0), b=cfg.getfloat("model.b", 1.0),
            mu1=cfg.getfloat("model.mu1", 1.0), mu2=cfg.getfloat("model.mu2", 1.0),
            boundary=kind,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_initial_data(cfg: RunConfig) -> InitialData:
    h0 = cfg.getfloat("init.h0")
    shape = cfg.get("init.shape", "sine")
    amplitude = cfg.getfloat("init.amplitude", 0.5)
    nodes = cfg.getint("init.nodes", 401)
    if shape == "table":
        return InitialData.from_table(cfg.require("init.table"))
    if h0 is None:
        raise ConfigError("missing required key 'init.h0'")
    if shape == "sine":
        return InitialData.sine(h0, amplitude, nodes)
    if shape == "cosine-bump":
        return InitialData.cosine_bump(h0, amplitude, nodes)
    raise ConfigError(f"unknown init.shape {shape!r}")


def build_solver_numerics(cfg: RunConfig) -> SolverNumerics:
    snaps = cfg.getfloats("output.snapshots") or ()
    return SolverNumerics(
        n=cfg.getint("numerics.n", 400),
        trace_cadence=cfg.getfloat("output.cadence", 0.1),
        snapshot_times=tuple(snaps),
    )


def build_semiwave_numerics(cfg: RunConfig) -> SemiwaveNumerics:
    return SemiwaveNumerics(dx=cfg.getfloat("numerics.dx_semiwave", 0.02))


def build_stop(cfg: RunConfig) -> StopRule:
    return StopRule(t_end=cfg.getfloat("stop.t_end", 10.0))


# sweep axis -> the keys each of its values sets (the mu ladder moves both)
_SWEEP_AXES = (
    ("sweep.h0", ("init.h0",)),
    ("sweep.amplitude", ("init.amplitude",)),
    ("sweep.mu", ("model.mu1", "model.mu2")),
)


def sweep_cells(cfg: RunConfig) -> list[dict]:
    """Cross product of the sweep axes; each cell is an override mapping."""
    axes = []
    for axis, keys in _SWEEP_AXES:
        values = cfg.getfloats(axis)
        if values:
            axes.append([{key: fmt(v) for key in keys} for v in values])
    return [{k: v for part in cell for k, v in part.items()} for cell in product(*axes)]
