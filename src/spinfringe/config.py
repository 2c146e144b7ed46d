"""Plain-text key/value configuration with defaults, validation, and echo.

The format is one ``group.key = value`` per line, ``#`` comments, no
nesting.  Frequencies may be given as ordinary GHz via ``*_ghz`` keys
and are converted to angular rad/ns exactly once, here.  Parsing errors
carry line and column.  A value that breaks an invariant raises a
ConfigValidationError that states it as the checking dataclass does,
at the key the message names and with that key's line.  A parsed
configuration echoes back to text that re-parses to an identical
configuration, including which values were defaulted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any

from .constants import TWO_PI, ghz_to_rad_per_ns
from .errors import ConfigParseError, ConfigValidationError
from .fringe import trion_flip_rate
from .meanfield import _scan_step
from .params import (
    _MAX_FLOATS,
    HoleNuclearParams,
    Lattice,
    MeanFieldParams,
    ModelParams,
    SweepSchedule,
)

__all__ = ["RunConfig", "OracleConfig", "OutputConfig", "MapConfig",
           "parse_config", "config_to_text", "RATIO_UNIT_FACTORS"]

# Interpretations of the bare decay-to-walk ratio kappa/alpha.  The
# internal value is always ns^2/rad^2 (omega in rad/ns, time in ns):
#   ns2   ratio already in ns^2/rad^2
#   ghz2  modeler used ordinary GHz frequencies, ns time: factor (2 pi)^-2
#   ps2   modeler used rad/ps and ps time: factor 1e-6
RATIO_UNIT_FACTORS = {"ns2": 1.0, "ghz2": 1.0 / (TWO_PI * TWO_PI), "ps2": 1e-6}


@dataclass(frozen=True)
class OracleConfig:
    """Driver settings for the density-oracle subcommand.

    ``method`` "auto" runs the grid solver on a one-site lattice and the
    trajectory ensemble on a larger one; "langevin" runs the ensemble on
    any lattice.  ``init_width`` = 0 gives the trajectory ensemble a
    point start, a hand-set grid (m_min < m_max) a width of
    (m_max - m_min) / 40 and an auto-sized grid the width ``auto_grid``
    gives it: half the stationary width, at least 1e-3.  For an
    auto-sized grid (m_min == m_max) ``n_cells`` is the nominal cell
    count: ``auto_grid`` drops the nominal cells beyond six linear-noise
    deviations of the mean-field window, so fewer cells are solved.
    """

    tau: float = 0.17
    t_end: float = 0.0          # 0 -> 10 / d_bath
    method: str = "auto"        # auto | langevin
    n_traj: int = 10000
    dt: float = 0.0             # 0 -> auto
    n_outputs: int = 40
    m_min: float = 0.0          # m_min == m_max -> auto-sized grid
    m_max: float = 0.0
    n_cells: int = 640
    init_mean: float = 0.0
    init_width: float = 0.0     # 0 -> per oracle (see above)
    cfl: float = 0.8

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("oracle.tau >= 0 required")
        if self.method not in ("auto", "langevin"):
            raise ValueError("oracle.method must be auto|langevin")
        if self.n_traj < 100:
            raise ValueError("oracle.n_traj >= 100 required")
        if self.n_outputs < 1:
            raise ValueError("oracle.n_outputs >= 1 required")
        if self.m_min > self.m_max:
            raise ValueError("oracle.m_min <= oracle.m_max required")
        if self.n_cells < 16:
            raise ValueError("oracle.n_cells >= 16 required")
        if not 0.0 < self.cfl <= 0.9:
            raise ValueError("0 < oracle.cfl <= 0.9 required")
        for key in ("t_end", "dt", "init_width"):
            if getattr(self, key) < 0:
                raise ValueError(f"oracle.{key} >= 0 required (0 picks the default)")


@dataclass(frozen=True)
class OutputConfig:
    format: str = "csv"         # csv | ndjson
    precision: int = 12

    def __post_init__(self):
        if self.format not in ("csv", "ndjson"):
            raise ValueError("output.format must be csv|ndjson")
        if not 3 <= self.precision <= 17:
            raise ValueError("output.precision must be in [3, 17]")


@dataclass(frozen=True)
class MapConfig:
    """Grid sizes for the fringe-map subcommand (ranges come from
    meanfield.omega_bracket and the sweep tau window)."""

    n_omega: int = 241
    n_tau: int = 301

    def __post_init__(self):
        for key in ("n_omega", "n_tau"):
            if getattr(self, key) < 2:
                raise ValueError(f"map.{key} >= 2 required")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated effective configuration for one run.

    ``effective`` maps every schema key to its effective raw value
    (user-set or default, with derived defaults resolved); ``defaulted``
    lists the keys the user did not set.  Both are provenance metadata
    and excluded from equality.
    """

    model: ModelParams
    meanfield: MeanFieldParams
    sweep: SweepSchedule
    lattice: Lattice
    hole: HoleNuclearParams
    oracle: OracleConfig
    output: OutputConfig
    map: MapConfig
    seed: int
    defaulted: tuple[str, ...] = field(default=(), compare=False)
    effective: tuple[tuple[str, Any], ...] = field(default=(), compare=False)


# Params fields, as validation messages name them, whose config key is
# not "<group>.<field>".
_RENAMED = {"omega0": "model.omega0_ghz", "sigma": "model.sigma_ghz",
            "gamma_rad": "hole.gamma_ghz", "alpha": "meanfield.ratio",
            "gamma": "lattice.gamma_peak"}

# Schema: key -> (kind, default), kind float, int or str.  DERIVED defaults
# are resolved in _build.  The sweep, oracle, output and map keys are the
# fields of their dataclass, which also checks their values.
_DERIVED = object()


def _group(name: str, cls) -> dict[str, tuple[str, Any]]:
    return {f"{name}.{f.name}": (f.type, f.default) for f in fields(cls)}


_SCHEMA: dict[str, tuple[str, Any]] = {
    "model.omega0_ghz": ("float", 10.0),
    "model.sigma_ghz": ("float", 1.6),
    "model.T": ("float", ModelParams.T),
    "model.beta0": ("float", _DERIVED),        # 3 / T
    "model.s_p": ("float", ModelParams.s_p),
    "meanfield.ratio": ("float", 1.0e4),
    "meanfield.ratio_units": ("str", "ps2"),
    "meanfield.kappa": ("float", 1.0e-3),
    "meanfield.omega_bracket": ("float", _DERIVED),  # 6 sigma
    "meanfield.relax_tol": ("float", MeanFieldParams.relax_tol),
    **_group("sweep", SweepSchedule),
    "lattice.n": ("int", 1),
    "lattice.a_peak": ("float", 1.0),
    "lattice.gamma_peak": ("float", _DERIVED),  # kappa / (ratio_internal * a_peak^2)
    "lattice.envelope_width": ("float", 0.0),   # 0 -> n/4 sites
    "lattice.d": ("float", 1.0e-3),
    "lattice.f": ("float", 1.0e-4),
    "lattice.d_bath": ("float", _DERIVED),      # kappa
    "hole.b0": ("float", HoleNuclearParams.b0),
    "hole.g_h": ("float", HoleNuclearParams.g_h),
    "hole.gamma_ghz": ("float", 0.1),
    "hole.inv_r3_avg": ("float", HoleNuclearParams.inv_r3_avg),
    **_group("oracle", OracleConfig),
    **_group("output", OutputConfig),
    **_group("map", MapConfig),
    "seed": ("int", 12345),
}


def _parse_value(kind: str, text: str, key: str, line: int) -> Any:
    if kind == "str":
        return text
    try:
        v = float(text) if kind == "float" else int(text)
    except ValueError:
        what = "a number" if kind == "float" else "an integer"
        raise ConfigParseError(f"expected {what} for '{key}', got {text!r}", line)
    if kind == "float" and not math.isfinite(v):
        raise ConfigValidationError(f"'{key}' must be finite", key=key, line=line)
    return v


def _parse_lines(lines: list[tuple[int, str]]) -> tuple[dict[str, Any], dict[str, int]]:
    """key -> value and key -> line number from (lineno, text) pairs."""
    raw: dict[str, Any] = {}
    where: dict[str, int] = {}
    for lineno, line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigParseError("expected 'key = value'", lineno,
                                   column=len(line) - len(line.lstrip()) + 1)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or any(c not in
                          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                          "0123456789_." for c in key):
            raise ConfigParseError(f"malformed key {key!r}", lineno)
        if key not in _SCHEMA:
            raise ConfigValidationError(f"unknown key {key!r}", key=key, line=lineno)
        if key in raw:
            raise ConfigValidationError(f"duplicate key {key!r}", key=key, line=lineno)
        if not value:
            raise ConfigParseError(f"missing value for '{key}'", lineno,
                                   column=line.index("=") + 2)
        raw[key] = _parse_value(_SCHEMA[key][0], value, key, lineno)
        where[key] = lineno
    return raw, where


def _build(raw: dict[str, Any], where: dict[str, int]) -> RunConfig:
    def get(key: str) -> Any:
        return raw.get(key, _SCHEMA[key][1])

    def valid(group: str, check) -> Any:
        """``check()``, or the requirement ``check = (ok, message)``.  A
        failure is a ConfigValidationError at the key its message names (a
        word that is a key, a field of ``group`` or a renamed field; the
        first one the user set, if any), with that key's line, or at
        ``group`` if it names none."""
        try:
            if callable(check):
                return check()
            if not check[0]:
                raise ValueError(check[1])
        except ValueError as exc:
            words = [w.strip("()[],'") for w in str(exc).split()]
            named = [k for w in words for k in (w, f"{group}.{w}", _RENAMED.get(w))
                     if k in _SCHEMA] or [group]
            key = next((k for k in named if k in where), named[0])
            raise ConfigValidationError(str(exc), key=key, line=where.get(key))

    def build(group: str, cls) -> Any:
        return valid(group, lambda: cls(**{f.name: get(f"{group}.{f.name}")
                                           for f in fields(cls)}))

    derived: dict[str, Any] = {}  # the value of each derived key, for the echo

    def derive(key: str, default: Any, message: str = "") -> Any:
        """The user's value of a derived key or ``default``, recorded for
        the echo; with a ``message``, a value that is not finite fails at
        the key's group."""
        value = derived[key] = raw.get(key, default)
        if message:
            valid(key.partition(".")[0], (math.isfinite(value), message))
        return value

    defaulted = tuple(sorted(k for k in _SCHEMA if k not in raw))

    # Model (GHz -> rad/ns here and nowhere else).
    t_pump = get("model.T")
    beta0 = derive("model.beta0", 3.0 / t_pump if t_pump > 0 else 0.0,
                   "model.T is too small: the model.beta0 default 3 / T is not finite")
    sigma = ghz_to_rad_per_ns(get("model.sigma_ghz"))
    model = valid("model", lambda: ModelParams(
        omega0=ghz_to_rad_per_ns(get("model.omega0_ghz")),
        T=t_pump, beta0=beta0, sigma=sigma, s_p=get("model.s_p")))

    units = get("meanfield.ratio_units")
    valid("meanfield", (units in RATIO_UNIT_FACTORS,
                        f"meanfield.ratio_units must be {'|'.join(RATIO_UNIT_FACTORS)}"))
    ratio_internal = get("meanfield.ratio") * RATIO_UNIT_FACTORS[units]
    valid("meanfield", (ratio_internal > 0,
                        "meanfield.ratio > 0 required, also in ns^2/rad^2"))
    kappa = get("meanfield.kappa")
    omega_bracket = derive("meanfield.omega_bracket", 6.0 * sigma,
                           "model.sigma_ghz is too large: the meanfield.omega_bracket "
                           "default 6 sigma is not finite")
    meanfield = valid("meanfield", lambda: MeanFieldParams(
        kappa=kappa, alpha=kappa / ratio_internal, omega_bracket=omega_bracket,
        relax_tol=get("meanfield.relax_tol")))
    valid("meanfield", (omega_bracket >= 4.0 * sigma,
                        "meanfield.omega_bracket >= 4 sigma required"))

    sweep = build("sweep", SweepSchedule)

    a_peak = get("lattice.a_peak")
    # The density oracles' moments take a_peak**3, which overflows first.
    valid("lattice", (math.isfinite(a_peak * a_peak * a_peak),
                      "lattice.a_peak is too large: a_peak**3 is not finite"))
    denom = ratio_internal * a_peak * a_peak
    # A nonzero a_peak whose ratio * a_peak**2 underflows gives no finite default.
    gamma_peak = derive("lattice.gamma_peak",
                        kappa / denom if denom else (math.inf if a_peak else 0.0),
                        "lattice.a_peak is too small: the lattice.gamma_peak default "
                        "kappa / (ratio * a_peak**2) is not finite")
    envelope = get("lattice.envelope_width")
    valid("lattice", (envelope >= 0, "lattice.envelope_width >= 0 required (0 is auto)"))
    # Checked here because a one-site chain has no bond for Lattice to check.
    valid("lattice", (get("lattice.d") >= 0, "lattice.d >= 0 required"))
    lattice = valid("lattice", lambda: Lattice.chain(
        n=get("lattice.n"), a_peak=a_peak, gamma_peak=gamma_peak,
        d=get("lattice.d"), f=get("lattice.f"),
        d_bath=derive("lattice.d_bath", kappa),
        envelope_width=envelope or None))

    hole = valid("hole", lambda: HoleNuclearParams(
        b0=get("hole.b0"), g_h=get("hole.g_h"),
        gamma_rad=ghz_to_rad_per_ns(get("hole.gamma_ghz")),
        inv_r3_avg=get("hole.inv_r3_avg")))
    valid("hole", (math.isfinite(trion_flip_rate(hole)),
                   "the trion flip rate of hole.b0, hole.g_h, hole.gamma_ghz and "
                   "hole.inv_r3_avg is not finite"))

    oracle = build("oracle", OracleConfig)
    # The root scan lays out 2 W / step float64 points at a delay, the most
    # at the largest delay a run scans.  Its fringe nulls, about W tau / pi,
    # are at most a twentieth as many.
    step = float(_scan_step(max(sweep.tau_end, oracle.tau), sigma))
    valid("meanfield", (2.0 * omega_bracket < _MAX_FLOATS * step,
                        "meanfield.omega_bracket, model.sigma_ghz and the largest delay, "
                        "sweep.tau_end or oracle.tau, give a root scan of 2 omega_bracket "
                        "/ step points that do not fit in an array"))
    output = build("output", OutputConfig)
    map_cfg = build("map", MapConfig)
    seed = get("seed")
    valid("seed", (0 <= seed < 2 ** 128, "seed must be in [0, 2**128)"))

    effective = tuple((key, derived[key] if key in derived else get(key)) for key in _SCHEMA)
    return RunConfig(model=model, meanfield=meanfield, sweep=sweep,
                     lattice=lattice, hole=hole, oracle=oracle, output=output,
                     map=map_cfg, seed=seed, defaulted=defaulted,
                     effective=effective)


def parse_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Parse a configuration document, apply ``key=value`` overrides.

    Overrides use the same syntax as file lines and are reported with
    pseudo line numbers beyond the document when they fail.
    """
    lines = [(i + 1, line) for i, line in enumerate(text.splitlines())]
    raw, where = _parse_lines(lines)
    if overrides:
        o_lines = [(len(lines) + i + 1, line) for i, line in enumerate(overrides)]
        o_raw, o_where = _parse_lines(o_lines)
        raw.update(o_raw)
        where.update(o_where)
    return _build(raw, where)


def config_to_text(cfg: RunConfig, mark_defaults: bool = False) -> str:
    """Canonical text form; re-parsing yields an equivalent RunConfig.

    With mark_defaults, keys that were not explicitly set carry a
    trailing ``# default`` marker (the echo block format).
    """
    out = []
    for key, value in cfg.effective:
        text = repr(value) if isinstance(value, float) else str(value)
        line = f"{key} = {text}"
        if mark_defaults and key in cfg.defaulted:
            line += "  # default"
        out.append(line)
    return "\n".join(out) + "\n"
