"""Reference solutions that share no code with the package under test.

* :func:`solve` integrates the generated problems with a fixed-step RK4
  scheme written in numpy.  For this linear pair each RK4 step is an
  affine map, A_{i+1} = g_i A_i and B_{i+1} = g_i B_i + f_i, so a whole
  interval is one cumulative product and one prefix sum.  The
  coefficients come from the numpy twins of the generated expressions,
  not from the package's parser.
* :func:`criterion_integrals` gives i_plus and i_minus in closed form for
  a = -p and b = -q0 + b1 sin(2 pi t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

# a multiple of every samples_per_interval used by the workloads, so each
# sampled time of the program's dense output lands exactly on a node
REFERENCE_STEPS = 2048


def _affine_rk4(a: Callable, b: Callable, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """RK4 for A' = aA, A(lo) = 1 and B' = aB + b, B(lo) = 0, on the nodes."""
    h = np.diff(nodes)
    mid = nodes[:-1] + 0.5 * h
    a0, am, a1 = a(nodes[:-1]), a(mid), a(nodes[1:])
    b0, bm, b1 = b(nodes[:-1]), b(mid), b(nodes[1:])
    k1 = a0
    k2 = am * (1.0 + 0.5 * h * k1)
    k3 = am * (1.0 + 0.5 * h * k2)
    k4 = a1 * (1.0 + h * k3)
    g = 1.0 + h * (k1 + 2.0 * (k2 + k3) + k4) / 6.0
    l1 = b0
    l2 = am * (0.5 * h * l1) + bm
    l3 = am * (0.5 * h * l2) + bm
    l4 = a1 * (h * l3) + b1
    f = h * (l1 + 2.0 * (l2 + l3) + l4) / 6.0
    A = np.concatenate(([1.0], np.cumprod(g)))
    B = A * np.concatenate(([0.0], np.cumsum(f / A[1:])))
    return A, B


@dataclass
class Solution:
    """Reference trajectory of a problem on the grid t_k = k (h = 1, t0 = 0).

    ``dense[k][j]`` is z at t = k + j / steps inside interval k, ``left[k]``
    and ``right[k]`` the one-sided values at knot k.
    """

    steps: int
    dense: List[np.ndarray]
    left: List[float]
    right: List[float]
    denominators: List[float]

    def scale(self, k: int) -> float:
        return float(np.max(np.abs(self.dense[k])))

    def well_conditioned(self, zero_free: bool = False) -> bool:
        """True when the program can be checked against this reference
        without a near-singular kernel, an ambiguous knot sign or, with
        ``zero_free``, a zero of z inside an interval."""
        for k, Z in enumerate(self.dense):
            if not np.all(np.isfinite(Z)):
                return False
            scale = float(np.max(np.abs(Z)))
            if not 1e-100 < scale < 1e100:
                return False
            if abs(self.left[k + 1]) < 1e-6 * scale:
                return False
            if zero_free and float(np.min(np.abs(Z))) < 1e-2 * scale:
                return False
        return all(abs(d) >= 0.05 for d in self.denominators)


def solve(cfg: dict, a_fn: Callable, b_fn: Callable, steps: int = REFERENCE_STEPS) -> Solution:
    pc = cfg["problem"]
    params, grid = pc["params"], pc["grid"]
    if grid["t0"] != 0 or grid["h"] != 1 or pc["tau"] != 0.0:
        raise ValueError("reference supports t0 = 0, h = 1, tau = 0 only")
    horizon = int(pc["horizon"])
    C = params["C"] if pc["impulse"]["type"] == "multiplier" else 1.0
    lagged = grid["type"] == "lagged"
    j_zeta = round(float(grid.get("alpha", 0.0)) * steps)
    a = lambda t: a_fn(params, t)
    b = lambda t: b_fn(params, t)
    z = float(pc["z0"])
    prev = float(pc["history"][0]) if lagged else 0.0
    sol = Solution(steps, [], [z], [z], [])
    for k in range(horizon):
        A, B = _affine_rk4(a, b, k + np.arange(steps + 1) / steps)
        if lagged:
            z_arg = prev
        else:
            d = 1.0 - B[j_zeta]
            sol.denominators.append(float(d))
            z_arg = A[j_zeta] * z / d
        Z = A * z + B * z_arg
        sol.dense.append(Z)
        prev = z
        z = C * float(Z[-1])
        sol.left.append(float(Z[-1]))
        sol.right.append(z)
    return sol


# -- closed form of the criterion integrals (long_sweep family) ----------------------

def _flow_integral(params: dict, lo, hi, anchor):
    """int_lo^hi exp(-p (anchor - s)) (-q0 + b1 sin(2 pi s)) ds, elementwise."""
    p, q0, b1 = params["p"], params["q0"], params["b1"]
    w = 2.0 * math.pi

    def antiderivative(s):
        e = np.exp(p * (s - anchor))
        return -q0 * e / p + b1 * e * (p * np.sin(w * s) - w * np.cos(w * s)) / (p * p + w * w)

    return antiderivative(hi) - antiderivative(lo)


def criterion_integrals(params: dict, h: float, ks: np.ndarray, alpha: float = 0.5):
    """(i_plus, i_minus) arrays over the interval indices ``ks``."""
    tk, tk1, zeta = ks * h, (ks + 1) * h, (ks + alpha) * h
    return _flow_integral(params, tk, zeta, zeta), _flow_integral(params, zeta, tk1, zeta)


def window_extrema(params: dict, h: float, window: Tuple[int, int]):
    """(sup i_plus, inf i_plus, sup i_minus, inf i_minus) over burn-in/width."""
    burn, width = window
    ip, im = criterion_integrals(params, h, np.arange(burn, burn + width, dtype=float))
    return float(ip.max()), float(ip.min()), float(im.max()), float(im.min())


def sweep_crossing(params: dict, h: float, window: Tuple[int, int], threshold: float) -> float:
    """q0 at which inf i_minus over the window equals ``threshold``.

    i_minus falls linearly in q0 on every interval, so its infimum does too
    and the crossing is unique; bisect it to the last bit.
    """
    lo, hi = -100.0, 100.0
    g = lambda q: window_extrema(dict(params, q0=q), h, window)[3] - threshold
    if not g(lo) > 0.0 > g(hi):
        raise ValueError("no q0 crossing in [-100, 100]")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
