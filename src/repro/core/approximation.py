"""Piecewise-constant approximation of the charging power (Lemma 4.1).

For a (charger type, device type) pair with coefficients ``(a, b)`` and
radial extent ``[dmin, dmax]``, the distance levels

.. math:: l(k) = b\\big((1+\\varepsilon_1)^{k/2} - 1\\big),\\qquad l(K) = d_{max}

with ``k0 = ⌈2 ln(dmin/b + 1) / ln(1+ε1)⌉`` and
``K = ⌈2 ln(dmax/b + 1) / ln(1+ε1)⌉`` induce the approximated power
``P̃(d) = P(l(k))`` for ``d ∈ (l(k-1), l(k)]``.  Lemma 4.1 guarantees

.. math:: 1 \\le P(d)/\\tilde P(d) \\le 1 + \\varepsilon_1
          \\quad (d_{min} \\le d \\le d_{max}).

The level circles around each device are the concentric boundaries of the
geometric areas of §4.1.2; :meth:`PairApproximation.boundary_radii` feeds the
candidate extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..model.power import PowerEvaluator
from ..model.types import ChargerType, DeviceType, PairCoefficients

__all__ = ["epsilon1_for", "PairApproximation", "ApproxPowerCalculator"]


def epsilon1_for(eps: float) -> float:
    """The paper's parameter coupling (Theorem 4.2): ``ε1 = 2ε / (1 − 2ε)``.

    This makes the end-to-end greedy ratio ``1/(2(1+ε1)) = 1/2 − ε``.
    """
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must be in (0, 0.5)")
    return 2.0 * eps / (1.0 - 2.0 * eps)


@dataclass(frozen=True)
class PairApproximation:
    """Distance levels for one (charger type, device type) pair."""

    coeff: PairCoefficients
    dmin: float
    dmax: float
    eps1: float
    levels: np.ndarray  # ascending radii l(k0), ..., l(K) with l(K) == dmax
    powers: np.ndarray  # approximated power per level: P(l(k))

    @classmethod
    def build(cls, coeff: PairCoefficients, ctype: ChargerType, eps1: float) -> "PairApproximation":
        """Construct the Lemma 4.1 level set for one (charger, device) pair."""
        if eps1 <= 0.0:
            raise ValueError("eps1 must be positive")
        a, b = coeff.a, coeff.b
        dmin, dmax = ctype.dmin, ctype.dmax
        if b <= 0.0:
            # Degenerate power law 1/d^2: a single level at dmax still gives a
            # valid (coarse) underestimate; not used by the paper's tables.
            levels = np.array([dmax])
        else:
            log1p = math.log1p(eps1)
            k0 = max(1, math.ceil(2.0 * math.log(dmin / b + 1.0) / log1p - 1e-12))
            K = math.ceil(2.0 * math.log(dmax / b + 1.0) / log1p - 1e-12)
            K = max(K, k0)
            ks = np.arange(k0, K + 1, dtype=float)
            levels = b * ((1.0 + eps1) ** (ks / 2.0) - 1.0)
            levels[-1] = dmax  # l(K) = dmax by definition
            # Guard against a penultimate level that overshoots dmax due to the
            # ceiling: keep levels strictly increasing and capped at dmax.
            levels = np.minimum(levels, dmax)
            # Always keep the last level (== dmax) so the outermost bin is
            # anchored at the true boundary.
            keep = np.concatenate([np.diff(levels) > 1e-12, [True]])
            levels = levels[keep]
        powers = coeff.a / (levels + coeff.b) ** 2
        return cls(coeff, dmin, dmax, eps1, levels, powers)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def boundary_radii(self) -> np.ndarray:
        """Radii of the geometric-area boundary circles: ``dmin`` plus every
        level radius (the outermost being ``dmax``)."""
        if self.dmin > 1e-12 and (self.levels.size == 0 or self.dmin < self.levels[0] - 1e-12):
            return np.concatenate([[self.dmin], self.levels])
        return self.levels.copy()

    def approx_power(self, d: np.ndarray | float) -> np.ndarray | float:
        """Approximated power ``P̃(d)`` (0 outside ``[dmin, dmax]``)."""
        scalar = np.isscalar(d)
        dd = np.atleast_1d(np.asarray(d, dtype=float))
        idx = np.searchsorted(self.levels, dd - 1e-12, side="left")
        idx = np.clip(idx, 0, self.num_levels - 1)
        out = self.powers[idx]
        out = np.where((dd < self.dmin - 1e-12) | (dd > self.dmax + 1e-12), 0.0, out)
        return float(out[0]) if scalar else out

    def exact_power(self, d: np.ndarray | float) -> np.ndarray | float:
        """Exact in-range power law (0 outside ``[dmin, dmax]``)."""
        scalar = np.isscalar(d)
        dd = np.atleast_1d(np.asarray(d, dtype=float))
        out = self.coeff.a / (dd + self.coeff.b) ** 2
        out = np.where((dd < self.dmin - 1e-12) | (dd > self.dmax + 1e-12), 0.0, out)
        return float(out[0]) if scalar else out


class ApproxPowerCalculator:
    """Per-scenario quantizer: approximated powers of (position, device) pairs.

    Labels every device with its device type so that one ``searchsorted``
    per (charger type, device type) pair quantizes all pairs of that type
    at once.
    """

    def __init__(self, evaluator: PowerEvaluator, charger_types, eps1: float):
        self.evaluator = evaluator
        self.eps1 = eps1
        self._pairs: dict[tuple[str, str], PairApproximation] = {}
        dtypes = {dev.dtype.name: dev.dtype for dev in evaluator.devices}
        self._dtypes = list(dtypes.values())
        # Device index -> index of its device type in ``_dtypes``.
        names = list(dtypes)
        self._type_of = np.array([names.index(dev.dtype.name) for dev in evaluator.devices], dtype=int)
        for ct in charger_types:
            for dt in self._dtypes:
                coeff = evaluator.table.get(ct, dt)
                self._pairs[(ct.name, dt.name)] = PairApproximation.build(coeff, ct, eps1)

    def pair(self, ctype: ChargerType, dtype: DeviceType) -> PairApproximation:
        """The (cached) level set for one charger/device type pair."""
        key = (ctype.name, dtype.name)
        if key not in self._pairs:
            self._pairs[key] = PairApproximation.build(
                self.evaluator.table.get(ctype, dtype), ctype, self.eps1
            )
        return self._pairs[key]

    def approx_powers(self, ctype: ChargerType, dists: np.ndarray, devices: np.ndarray) -> np.ndarray:
        """Approximated power from a *ctype* charger on (position, device)
        pairs: ``dists[k]`` is the distance of pair *k* and ``devices[k]``
        the index of its device.  Geometry/LOS masking is the caller's job.

        One ``searchsorted`` per device type quantizes all pairs of that
        type.
        """
        dd = np.asarray(dists, dtype=float)
        out = np.zeros_like(dd)
        types = self._type_of[devices]
        for t, dt in enumerate(self._dtypes):
            sel = np.nonzero(types == t)[0]
            pa = self._pairs[(ctype.name, dt.name)]
            d = dd[sel]
            # Inlined quantization (hot path; see PairApproximation.approx_power).
            k = np.searchsorted(pa.levels, d - 1e-12, side="left")
            np.minimum(k, pa.num_levels - 1, out=k)
            vals = pa.powers[k]
            vals[(d < pa.dmin - 1e-12) | (d > pa.dmax + 1e-12)] = 0.0
            out[sel] = vals
        return out

    def boundary_radii(self, ctype: ChargerType, device_index: int) -> np.ndarray:
        """Boundary circle radii around one device for *ctype*."""
        dt = self.evaluator.devices[device_index].dtype
        return self.pair(ctype, dt).boundary_radii()
