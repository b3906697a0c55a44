"""Leakage power models.

Two models, used at different places exactly as in the paper:

* :class:`LinearLeakage` — the paper's on-line estimation model, Eq. (6):
  ``P_leak_m = (P_TDP_leak + a * (T_m - T_TDP)) * A_m / A_chip``.
  Linear-in-temperature leakage is what TECfan's controller hardware can
  evaluate (Shin et al.; Su et al. show it is accurate over the limited
  operating range).

* :class:`QuadraticLeakage` — a second-order polynomial in temperature
  (Su et al., ISLPED'03), which the paper uses on the *simulation* side,
  calibrated to the SCC leakage measurement. Using the quadratic model in
  the plant and the linear model in the controller reproduces the
  model-mismatch the real system would see.

Both distribute chip leakage to components in proportion to area and
optionally scale with supply voltage (leakage ~ V in the weak-inversion
regime; the paper holds V's effect inside the TDP constant, so the
voltage factor defaults to off).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class LinearLeakage:
    """Eq. (6): chip leakage linear in component temperature.

    Parameters
    ----------
    p_tdp_leak_w:
        Leakage share of TDP at ``t_tdp_c`` [W], chip-wide.
    alpha_w_per_k:
        Chip-wide leakage-temperature slope [W/K].
    t_tdp_c:
        Reference (TDP limit) temperature [degC].
    areas_mm2:
        Per-component areas; defines the ``A_m / A_chip`` split.
    """

    p_tdp_leak_w: float
    alpha_w_per_k: float
    t_tdp_c: float
    areas_mm2: np.ndarray

    def __post_init__(self) -> None:
        if self.p_tdp_leak_w <= 0:
            raise ConfigurationError("P_TDP_leak must be positive")
        if self.alpha_w_per_k < 0:
            raise ConfigurationError("leakage slope must be non-negative")
        a = np.asarray(self.areas_mm2, dtype=float)
        if np.any(a <= 0):
            raise ConfigurationError("component areas must be positive")
        object.__setattr__(self, "areas_mm2", a)

    @property
    def chip_area_mm2(self) -> float:
        """Total die area [mm^2]."""
        return float(self.areas_mm2.sum())

    @property
    def t_tdp_k(self) -> float:
        """Reference temperature [K]."""
        return units.c_to_k(self.t_tdp_c).item()

    def per_component_w(self, t_components_k: np.ndarray) -> np.ndarray:
        """Per-component leakage [W] at temperatures ``t_components_k``."""
        t = np.asarray(t_components_k, dtype=float)
        frac = self.areas_mm2 / self.chip_area_mm2
        chipwise = self.p_tdp_leak_w + self.alpha_w_per_k * (t - self.t_tdp_k)
        # Eq. (6) evaluates the chip-level expression at each component's
        # own temperature, then takes the component's area share.
        return np.maximum(chipwise, 0.0) * frac

    def chip_total_w(self, t_components_k: np.ndarray) -> float:
        """Total chip leakage [W]."""
        return float(self.per_component_w(t_components_k).sum())


@dataclass(frozen=True)
class QuadraticLeakage:
    """Second-order leakage polynomial (plant-side model).

    ``P_leak(T) = p0 + p1 (T - T_ref) + p2 (T - T_ref)^2`` chip-wide,
    area-distributed. Calibrate with :meth:`fit_to_linear` so both models
    agree at the reference point (value and slope) while the quadratic
    term captures the convexity of subthreshold leakage.
    """

    p0_w: float
    p1_w_per_k: float
    p2_w_per_k2: float
    t_ref_c: float
    areas_mm2: np.ndarray
    #: Area shares and the reference in kelvin, derived once: the plant
    #: calls :meth:`per_component_w` on every leakage fixed-point pass.
    _frac: np.ndarray = field(init=False, repr=False, compare=False)
    _t_ref_k: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.areas_mm2, dtype=float)
        if np.any(a <= 0):
            raise ConfigurationError("component areas must be positive")
        if self.p0_w <= 0:
            raise ConfigurationError("p0 must be positive")
        object.__setattr__(self, "areas_mm2", a)
        object.__setattr__(self, "_frac", a / a.sum())
        object.__setattr__(self, "_t_ref_k", units.c_to_k(self.t_ref_c).item())

    @classmethod
    def fit_to_linear(
        cls, linear: LinearLeakage, curvature_w_per_k2: float = 0.004
    ) -> "QuadraticLeakage":
        """Quadratic model tangent to ``linear`` at the TDP point."""
        return cls(
            p0_w=linear.p_tdp_leak_w,
            p1_w_per_k=linear.alpha_w_per_k,
            p2_w_per_k2=curvature_w_per_k2,
            t_ref_c=linear.t_tdp_c,
            areas_mm2=linear.areas_mm2,
        )

    def per_component_w(self, t_components_k: np.ndarray) -> np.ndarray:
        """Per-component leakage [W]."""
        t = np.asarray(t_components_k, dtype=float)
        dt = t - self._t_ref_k
        chipwise = self.p0_w + self.p1_w_per_k * dt + self.p2_w_per_k2 * dt**2
        return np.maximum(chipwise, 0.0) * self._frac

    def chip_total_w(self, t_components_k: np.ndarray) -> float:
        """Total chip leakage [W]."""
        return float(self.per_component_w(t_components_k).sum())
