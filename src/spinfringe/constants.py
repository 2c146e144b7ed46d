"""Physical constants and unit conversion helpers.

Internal unit convention used throughout the package: angular frequencies
in rad/ns, times in ns, rates in 1/ns.  Configuration accepts ordinary
frequencies in GHz and converts by 2*pi once, here, so that no other
module ever multiplies by 2*pi.
"""

import math

TWO_PI = 2.0 * math.pi

# CODATA 2018 values, SI.
MU_0 = 1.25663706212e-06  # vacuum magnetic permeability [T m / A]
MU_B = 9.2740100783e-24   # Bohr magneton [J / T]

# SI <-> internal conversions.
NS_PER_S = 1e9
M3_PER_NM3 = 1e-27


def ghz_to_rad_per_ns(freq_ghz: float) -> float:
    """Ordinary frequency in GHz to angular frequency in rad/ns."""
    return TWO_PI * freq_ghz
