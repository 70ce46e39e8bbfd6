"""First Dirichlet eigenvalue of radial balls on model space forms (p = 2).

The continuous problem is the self-adjoint Sturm-Liouville form

    (s_kappa^{n-1}(t) v'(t))' + lambda s_kappa^{n-1}(t) v(t) = 0,  t in (0, R),

with v bounded at 0 (the density vanishes there, a natural boundary) and
v(R) = 0.  Discretization is a cell-centered finite-volume scheme on the
shifted grid t_j = (j + 1/2) h: the flux coefficient at the leftmost face
sits exactly at t = 0 where the density vanishes, so the natural boundary
needs no special casing and the scheme stays O(h^2).  The smallest
eigenvalue of the pencil is located by Sturm bisection (LDL^T inertia
counts below a shift, started from a Gershgorin bound); inverse iteration
with tridiagonal solves, shifted just below it, only supplies the
eigenvector.  The returned estimate is the Richardson extrapolation of the
N/2 and N solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .geometry import ModelGeometry, s_value

__all__ = ["SpectralResult", "spectral_lambda1"]


@dataclass
class SpectralResult:
    lambda1: float          # Richardson-extrapolated estimate
    lambda1_raw: float      # plain estimate at resolution N
    lambda1_coarse: float   # estimate at resolution N/2
    N: int
    ts: np.ndarray          # grid abscissae at resolution N
    v: np.ndarray           # eigenfunction samples, sup-normalized


def _solve_tridiag(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                   rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm; raises on a vanishing pivot."""
    n = diag.size
    gam = np.empty(n)
    x = np.empty(n)
    beta = diag[0]
    if beta == 0.0:
        raise ZeroDivisionError("zero pivot")
    x[0] = rhs[0] / beta
    for i in range(1, n):
        gam[i] = upper[i - 1] / beta
        beta = diag[i] - lower[i - 1] * gam[i]
        if beta == 0.0:
            raise ZeroDivisionError("zero pivot")
        x[i] = (rhs[i] - lower[i - 1] * x[i - 1]) / beta
    for i in range(n - 2, -1, -1):
        x[i] -= gam[i + 1] * x[i + 1]
    return x


def _count_below(sym_diag: np.ndarray, sym_off: np.ndarray, b_diag: np.ndarray,
                 sigma: float) -> int:
    """Eigenvalues of the pencil (A, B) strictly below sigma, by LDL^T inertia.

    A is symmetric tridiagonal (sym_diag, sym_off), B positive diagonal.
    """
    count = 0
    d = sym_diag[0] - sigma * b_diag[0]
    if d == 0.0:
        d = -1e-300
    if d < 0.0:
        count += 1
    for j in range(1, sym_diag.size):
        d = sym_diag[j] - sigma * b_diag[j] - sym_off[j - 1] ** 2 / d
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
    return count


def _lambda1_fixed_grid(geo: ModelGeometry, R: float, N: int,
                        max_iter: int = 10_000) -> tuple[float, np.ndarray, np.ndarray]:
    h = R / (N + 0.5)
    ts = (np.arange(N) + 0.5) * h
    faces = np.arange(N + 1) * h          # t = 0 face carries zero density
    a_face = np.array([s_value(geo.kappa, t) ** (geo.n - 1) for t in faces])
    a_cell = np.array([s_value(geo.kappa, t) ** (geo.n - 1) for t in ts])

    h2 = h * h
    sym_diag = (a_face[:N] + a_face[1:]) / h2
    sym_off = -a_face[1:N] / h2

    # Sturm bisection pins the smallest pencil eigenvalue with certainty;
    # nearby higher modes (large hyperbolic balls cluster them within a few
    # percent) cannot capture it the way a misplaced Rayleigh shift can.
    hi = float(np.max(sym_diag / a_cell) + 2.0 * np.max(np.abs(sym_off))
               / np.min(a_cell))  # Gershgorin upper bound on B^{-1}A
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _count_below(sym_diag, sym_off, a_cell, mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    lam = 0.5 * (lo + hi)

    # eigenvector: inverse iteration shifted just below the pinned eigenvalue
    sigma = lo - 1e-10 * max(1.0, lam)
    lower = sym_off / a_cell[1:]
    upper = sym_off / a_cell[:-1]
    diag = sym_diag / a_cell - sigma
    v = np.sin(math.pi * ts / R)
    v /= np.linalg.norm(v)
    for _ in range(8):
        try:
            w = _solve_tridiag(lower, diag, upper, v)
        except ZeroDivisionError:
            sigma -= 1e-8 * max(1.0, lam)
            diag = sym_diag / a_cell - sigma
            continue
        nrm = np.linalg.norm(w)
        if not np.isfinite(nrm) or nrm == 0.0:
            break
        v = w / nrm
    v = v / np.max(np.abs(v))
    if v[0] < 0.0:
        v = -v
    return lam, ts, v


def spectral_lambda1(geo: ModelGeometry, R: float, N: int = 2000) -> SpectralResult:
    """Smallest Dirichlet eigenvalue of the radial ball of radius R.

    Solves at N/2 and N and Richardson-extrapolates the O(1/N^2) error.
    """
    if geo.p != 2.0:
        raise ParameterError(f"spectral solver supports p = 2 only, got p={geo.p!r}")
    if R <= 0.0:
        raise ParameterError(f"need R > 0, got {R!r}")
    if N < 200:
        raise ParameterError(f"need N >= 200, got {N!r}")
    lam_coarse, _, _ = _lambda1_fixed_grid(geo, R, N // 2)
    lam_fine, ts, v = _lambda1_fixed_grid(geo, R, N)
    lam_extrap = lam_fine + (lam_fine - lam_coarse) / 3.0
    return SpectralResult(lambda1=lam_extrap, lambda1_raw=lam_fine,
                          lambda1_coarse=lam_coarse, N=N, ts=ts, v=v)
