"""Domain types: pulse-sequence, mean-field, sweep, and lattice parameters.

All dataclasses validate their invariants on construction and raise
``ValueError`` with a message naming the violated condition; the config
layer converts those into ``ConfigValidationError`` with key locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import TWO_PI

_DEF_SIGMA = TWO_PI * 1.6  # rad/ns, Gaussian pumping-profile width
_DEF_T = 26.0              # ns, optical pumping duration
# The most float64 values one array holds: numpy's arrays hold at most
# intp-max bytes.  A delay grid or a root scan must count fewer.
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def _require_finite(obj) -> None:
    """Raise ValueError naming the first non-finite field of a dataclass
    (a tuple field is finite when all its items are; text and integer
    fields are skipped: an int is finite, and one past the float range
    would make math.isfinite raise OverflowError)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (str, int)):
            continue
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{f.name} must be finite")


def _require_finite_args(nonnegative: tuple[str, ...] = (), /, **values: float) -> None:
    """Raise ValueError naming the first non-finite one of the scalar
    arguments ``values``, in their order, and then the first negative one
    of those named in ``nonnegative``."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} {float(value)!r}")
    for name in nonnegative:
        if values[name] < 0.0:
            raise ValueError(f"negative {name} {float(values[name])!r}")


@dataclass(frozen=True)
class ModelParams:
    """Pulse-sequence and optical-pumping constants.

    omega0   bare electron Larmor angular frequency [rad/ns]
    T        optical pumping duration [ns]
    beta0    peak pumping rate [1/ns]
    sigma    pumping-profile width in angular frequency [rad/ns]
    s_p      saturation polarization, 1/2 for perfect pumping [spin-z]
    """

    omega0: float = TWO_PI * 10.0
    T: float = _DEF_T
    beta0: float = 3.0 / _DEF_T
    sigma: float = _DEF_SIGMA
    s_p: float = 0.5

    def __post_init__(self):
        _require_finite(self)
        if not self.T > 0:
            raise ValueError("T > 0 required")
        if self.beta0 < 0:
            raise ValueError("beta0 >= 0 required")
        if not self.sigma > 0:
            raise ValueError("sigma > 0 required")
        k = self.sigma * self.sigma
        if not (k > 0.0 and math.isfinite(1.0 / k)):
            raise ValueError("sigma is too small: 1 / sigma**2 is not finite")
        if not 0.0 < self.s_p <= 0.5:
            raise ValueError("0 < s_p <= 1/2 required")


@dataclass(frozen=True)
class HoleNuclearParams:
    """Inputs for the golden-rule trion-hole nuclear flip-rate estimate.

    b0          external magnetic field [T]
    g_h         hole gyromagnetic factor [dimensionless]
    gamma_rad   trion radiative linewidth, angular [rad/ns]
    inv_r3_avg  hole-wavefunction average <|r - r_h|^-3> [1/nm^3]

    The defaults for ``g_h`` and ``inv_r3_avg`` have no first-principles
    source here; they are placeholders chosen so that the estimate at
    b0 = 4 T and gamma_rad = 2*pi*0.1 rad/ns lands at ~5e-8 1/ns, the
    scale expected for a flat self-assembled dot.
    """

    b0: float = 4.0
    g_h: float = 0.5
    gamma_rad: float = TWO_PI * 0.1
    inv_r3_avg: float = 1.3

    def __post_init__(self):
        _require_finite(self)
        for name in ("b0", "g_h", "gamma_rad", "inv_r3_avg"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} > 0 required")


@dataclass(frozen=True)
class PulseMapState:
    """Polarization state of the per-period pulse map at its fixed point.

    s_f  polarization reached at the end of optical pumping [spin-z]
    s_i  polarization after the second rotation, before pumping [spin-z]
    """

    s_f: float
    s_i: float


@dataclass(frozen=True)
class MeanFieldParams:
    """Parameters of the mean-field nuclear drift equation and its root search.

    kappa          boundary-diffusion decay rate [1/ns]
    alpha          trion-walk strength [rad^2/ns^3]
    omega_bracket  half-width W of the root search window [rad/ns]
    relax_tol      dimensionless residual tolerance; roots have
                   |drift| <= relax_tol * kappa * sigma or end at float
                   resolution, and kept relaxation seeds are within it
    """

    kappa: float
    alpha: float
    omega_bracket: float = 6.0 * _DEF_SIGMA
    relax_tol: float = 1e-6

    def __post_init__(self):
        _require_finite(self)
        if self.kappa < 0 or self.alpha < 0:
            raise ValueError("kappa >= 0 and alpha >= 0 required")
        if self.kappa == 0 and self.alpha == 0:
            raise ValueError("kappa and alpha must not both be zero")
        if not self.omega_bracket > 0:
            raise ValueError("omega_bracket > 0 required")
        if not self.relax_tol > 0:
            raise ValueError("relax_tol > 0 required")


@dataclass(frozen=True)
class SteadyState:
    """One quasi-equilibrium point of the mean-field drift.

    tau         the two-pulse delay the root belongs to [ns]
    omega_f     steady Overhauser shift [rad/ns]
    stable      a root refined from a scan bracket: the drift falls
                through zero there.  An exact scan zero or a kept seed:
                the closed-form slope
                g' = -kappa + alpha (3 C'' + omega C''') is <= 0, so g' = 0
                is stable (kappa = 0, tau = 0: the drift vanishes, every
                scan point is a root, and all are stable)
    residual    |drift(omega_f)| [rad/ns^2]: <= relax_tol*kappa*sigma, or,
                where the drift moves by more than that per ulp, the root
                ends at float resolution on the bracket end with the
                smaller |drift| (1.29e-7 against 1.005e-7 at tau = 1.5,
                kappa = 0.01, alpha = 100)
    basin_seed  the seed for ``relax_to_steady``, the root itself for
                ``steady_states`` [rad/ns]
    """

    tau: float
    omega_f: float
    stable: bool
    residual: float
    basin_seed: float = 0.0


@dataclass(frozen=True)
class SweepSchedule:
    """Ordered two-pulse delay scan with direction and initial shift.

    direction is one of "forward", "backward", "round-trip"; a round
    trip emits the forward pass and then the backward pass over the
    same grid.  ``reset_omega_every`` > 0 reseeds the nuclear memory
    to ``omega_init`` every that many points (stage-move modeling aid,
    off by default).
    """

    tau_start: float = 0.05
    tau_end: float = 1.5
    tau_step: float = 0.002
    direction: str = "round-trip"
    omega_init: float = 0.0
    reset_omega_every: int = 0

    def __post_init__(self):
        _require_finite(self)
        if not self.tau_step > 0:
            raise ValueError("tau_step > 0 required")
        if not self.tau_start < self.tau_end:
            raise ValueError("tau_start < tau_end required")
        if self.tau_start < 0:
            raise ValueError("tau_start >= 0 required")
        # grid() lays out a float64 per delay.
        if not (self.tau_end - self.tau_start) / self.tau_step < _MAX_FLOATS:
            raise ValueError("tau_step is too small for tau_end: (tau_end - tau_start) "
                             "/ tau_step delays do not fit in an array")
        if self.direction not in ("forward", "backward", "round-trip"):
            raise ValueError("direction must be forward|backward|round-trip")
        if self.reset_omega_every < 0:
            raise ValueError("reset_omega_every >= 0 required")

    def grid(self) -> np.ndarray:
        """Tau values of one pass, ascending [ns]."""
        n = int(math.floor((self.tau_end - self.tau_start) / self.tau_step + 1e-9)) + 1
        return self.tau_start + self.tau_step * np.arange(n)


@dataclass(frozen=True)
class TraceSample:
    """One sweep point.

    count equals count_rate(omega_f, tau) exactly and beta_f equals
    pump_rate(omega_f); ``jumped`` marks a branch switch at this step
    (|omega_f - seed| > pi/tau, half a fringe).  The seed is the previous
    sample's omega_f, or omega_init at a reset; the first sample is never
    flagged.
    """

    tau: float
    omega_f: float
    count: float
    beta_f: float
    stable: bool
    jumped: bool
    direction: str = "fwd"


@dataclass(frozen=True)
class Lattice:
    """Nuclear sites on a 1-D chain.

    a       per-site hyperfine weights A_j [rad/ns per unit magnetization]
    gamma   per-site trion flip rates Gamma_j [1/ns]
    d       nearest-neighbor diffusion rates D_{j,j+1} [1/ns], length n-1
    f       per-site fluctuation constants F_j [magnetization^2/ns]
    d_bath  boundary-to-bath rate applied to the chain ends [1/ns];
            the bath magnetization is fixed at zero; ``rates()`` holds
            the bath and chain rates as one matrix
    """

    n: int
    a: tuple[float, ...]
    gamma: tuple[float, ...]
    d: tuple[float, ...]
    f: tuple[float, ...]
    d_bath: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n >= 1 required")
        for name, want in (("a", self.n), ("gamma", self.n), ("f", self.n), ("d", max(self.n - 1, 0))):
            got = len(getattr(self, name))
            if got != want:
                raise ValueError(f"lattice field '{name}' must have length {want}, got {got}")
        _require_finite(self)
        for name in ("gamma", "d", "f"):
            if any(x < 0 for x in getattr(self, name)):
                raise ValueError(f"{name} >= 0 required")
        if self.d_bath < 0:
            raise ValueError("d_bath >= 0 required")

    @staticmethod
    def chain(n: int, a_peak: float, gamma_peak: float, d: float, f: float,
              d_bath: float, envelope_width: float | None = None) -> "Lattice":
        """Gaussian hyperfine envelope over a chain; trion rates track it.

        A_j = a_peak * exp(-x_j^2 / 2w^2) with x_j the site offset from the
        chain center, w = envelope_width (defaults to n/4 sites), and
        Gamma_j = gamma_peak * A_j / a_peak.
        """
        if envelope_width is None:
            envelope_width = max(n / 4.0, 1.0)
        x = np.arange(n) - (n - 1) / 2.0
        env = np.exp(-0.5 * (x / envelope_width) ** 2)
        return Lattice(
            n=n,
            a=tuple(float(v) for v in a_peak * env),
            gamma=tuple(float(v) for v in gamma_peak * env),
            d=tuple(float(d) for _ in range(max(n - 1, 0))),
            f=tuple(float(f) for _ in range(n)),
            d_bath=float(d_bath),
        )

    def a_array(self) -> np.ndarray:
        return np.asarray(self.a, dtype=float)

    def gamma_array(self) -> np.ndarray:
        return np.asarray(self.gamma, dtype=float)

    def f_array(self) -> np.ndarray:
        return np.asarray(self.f, dtype=float)

    def rates(self) -> np.ndarray:
        """The (n, n) spin-diffusion matrix L: L m is the linear part of the site drift.

        Each bond adds d * [[-1, 1], [1, -1]] to its 2x2 block, and -d_bath
        sits on both chain ends (once for one site)."""
        rates = np.zeros((self.n, self.n))
        rates[[0, -1], [0, -1]] = -self.d_bath  # the same entry twice for one site
        for j, d in enumerate(self.d):
            rates[j:j + 2, j:j + 2] += d * np.array([[-1.0, 1.0], [1.0, -1.0]])
        return rates
