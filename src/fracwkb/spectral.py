"""Exact spectral references on the periodic box.

Flat propagators and functional calculus act as Fourier multipliers, so they
are exact up to rounding and serve as oracles for the oscillatory-integral
machinery.  Variable 1-D metrics get a dense eigendecomposition of the
divergence-form operator P = -Delta_g, symmetrized in the volume-weighted
inner product; that path is the only fully general functional calculus at
desk scale and is deliberately capped at modest grid sizes.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .metric import check_h, check_sigma, loglog_fit

__all__ = [
    "BoxGrid",
    "StateField",
    "SpectralOperator",
    "AssemblyError",
    "make_grid",
    "state_from_values",
    "state_from_fourier",
    "plane_wave",
    "modulated_gaussian",
    "flat_operator",
    "discretize_P_1d",
    "propagate",
    "frequency_localize",
    "localized_gaussian",
    "sobolev_norm",
    "lp_lq_norm",
    "BernsteinFit",
    "measure_bernstein",
]

EIG_MAX_POINTS = 1024
BERNSTEIN_STATES = 3


class AssemblyError(RuntimeError):
    """The discretized operator failed its symmetry or positivity checks."""


@dataclass(frozen=True)
class BoxGrid:
    """Uniform periodic grid on [0, L)^d with n points per axis."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.n < 1 or not 0.0 < self.length < np.inf:
            raise ValueError(f"a grid needs n >= 1 and a finite length > 0, got {self}")

    @property
    def spacing(self):
        return self.length / self.n

    @property
    def cell_volume(self):
        return self.spacing**self.dim

    def axis(self):
        return np.arange(self.n) * self.spacing

    def axes(self):
        """The trailing array axes a field on this grid occupies."""
        return tuple(range(-self.dim, 0))

    def meshes(self):
        return np.meshgrid(*([self.axis()] * self.dim), indexing="ij")

    def omega_axis(self):
        """Integer frequencies scaled to angular form 2 pi k / L."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=1.0 / self.n) / self.length

    def lam(self):
        """Multiplier of P = -Laplacian: |omega|^2 on the FFT layout."""
        axes = np.meshgrid(*([self.omega_axis()] * self.dim), indexing="ij")
        return sum(w**2 for w in axes)


@dataclass
class StateField:
    """Complex field on a BoxGrid with its Fourier coefficients, computed on first read.

    The normalization is c_k = FFT(u) / n^d, so u = sum_k c_k e^{i omega_k x}
    and the Riemann L2 norm equals sqrt(L^d sum |c_k|^2) exactly on the grid.
    Leading axes in front of the grid's d axes hold a stack of fields, which
    the transforms take in one call; `l2_norm` is for a single field, and
    `lq_norm` gives a stack's norms field by field.
    """

    grid: BoxGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)

    @cached_property
    def fourier(self):
        return np.fft.fftn(self.values, axes=self.grid.axes()) / self.grid.n**self.grid.dim

    def l2_norm(self):
        return float(np.sqrt(self.grid.cell_volume * np.sum(np.abs(self.values) ** 2)))

    def lq_norm(self, q):
        """The L^q norm of the field, one per field of a stack."""
        axes, modulus = self.grid.axes(), np.abs(self.values)
        if q == np.inf:
            return np.max(modulus, axis=axes)
        return (self.grid.cell_volume * np.sum(modulus ** q, axis=axes)) ** (1.0 / q)


def make_grid(dim=1, n=256, length=2.0 * np.pi):
    return BoxGrid(dim=int(dim), n=int(n), length=float(length))


def state_from_values(grid, values):
    return StateField(grid=grid, values=np.asarray(values, dtype=complex))


def state_from_fourier(grid, fourier):
    fourier = np.asarray(fourier, dtype=complex)
    u = StateField(grid, np.fft.ifftn(fourier * grid.n**grid.dim, axes=grid.axes()))
    u.fourier = fourier             # fills the cache: the given coefficients, not an FFT
    return u


def plane_wave(grid, k):
    """Single Fourier mode e^{i omega_k . x} for an integer index vector k."""
    k = np.atleast_1d(np.asarray(k, dtype=int))
    meshes = grid.meshes()
    phase = sum((2.0 * np.pi * kk / grid.length) * m for kk, m in zip(k, meshes))
    return state_from_values(grid, np.exp(1j * phase))


def modulated_gaussian(grid, center, width, omega=0.0):
    """Gaussian envelope of the given width, modulated to frequency `omega`.

    Displacements are wrapped to the principal cell, so the state is periodic
    to machine precision whenever width << L.
    """
    center = np.broadcast_to(np.asarray(center, dtype=float), (grid.dim,))
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (grid.dim,))
    meshes = grid.meshes()
    arg = np.zeros_like(meshes[0])
    phase = np.zeros_like(meshes[0])
    for j, m in enumerate(meshes):
        delta = m - center[j]
        delta = (delta + 0.5 * grid.length) % grid.length - 0.5 * grid.length
        arg += delta**2
        phase += omega[j] * delta
    return state_from_values(grid, np.exp(-arg / (2.0 * width**2) + 1j * phase))


@dataclass
class SpectralOperator:
    """Functional calculus data for P = -Delta_g.

    Without a basis (`kind` "flat") it holds the multiplier |omega|^2 on the
    FFT layout; with one (`kind` "eig") the eigenpairs of the 1-D
    divergence-form discretization, with the basis orthonormal in the
    volume-weighted inner product and `weight` the volume density on the grid.

    The transforms take a stack of fields (leading axes) as readily as one
    field: on the flat path they are one batched FFT, on the eig path one
    real matrix product with the basis for the whole stack.
    """

    grid: BoxGrid
    lam: np.ndarray = field(repr=False)
    basis: np.ndarray = field(default=None, repr=False)   # (n, n), column j = e_j
    weight: np.ndarray = field(default=None, repr=False)

    @property
    def kind(self):
        return "flat" if self.basis is None else "eig"

    @property
    def parseval_factor(self):
        """c in ||u||^2 = c sum |coefficients|^2: L^d on the flat path, 1 on
        the weighted-orthonormal eigenbasis."""
        return self.grid.length**self.grid.dim if self.kind == "flat" else 1.0

    def coefficients(self, u):
        """Expansion coefficients of u in the operator's eigenbasis."""
        if self.kind == "flat":
            return u.fourier
        return _real_product(self.basis.T, u.values * self.weight) * self.grid.spacing

    def synthesize(self, coeffs):
        if self.kind == "flat":
            return state_from_fourier(self.grid, coeffs)
        return state_from_values(self.grid, _real_product(self.basis, coeffs))

    def apply_function(self, u, fn):
        """f(P) u for a scalar function of the eigenvalue."""
        return self.synthesize(self.coefficients(u) * fn(self.lam))


def flat_operator(grid):
    return SpectralOperator(grid=grid, lam=grid.lam(), weight=np.ones((grid.n,) * grid.dim))


def _real_product(matrix, z):
    """matrix @ z along the last axis of the complex stack z.

    The stack's fields become the columns of one real product on their float
    view, so the real matrix is read once and never cast to a complex copy.
    """
    cols = np.ascontiguousarray(np.asarray(z, dtype=complex).T)
    out = matrix @ cols.reshape(cols.shape[0], -1).view(float)
    return out.view(complex).reshape(cols.shape).T


def _derivative_matrix(n, length):
    """Spectral first derivative: the circulant D[i, j] = col[(i - j) % n],
    whose first column col is the derivative of the unit impulse."""
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / length
    col = np.real(np.fft.ifft(1j * omega))
    idx = np.arange(n)
    return col[np.subtract.outer(idx, idx) % n]


def discretize_P_1d(metric, n_points):
    """Eigendecomposition of -Delta_g on the 1-D periodic box.

    The divergence form -|g|^{-1/2} d/dx (G |g|^{1/2} d/dx) is assembled with
    spectral differentiation and conjugated by sqrt(weight) into a symmetric
    positive semidefinite matrix; eigenvectors are rescaled back so they are
    orthonormal in the weighted inner product sum(u conj(v) w dx).

    An odd point count is required: the even-n Nyquist mode makes the
    first-derivative matrix singular and fakes a second kernel mode.

    The metric is sampled at centered coordinates axis - L/2, putting its
    (origin-centered) perturbation mid-grid; sampling the axis directly would
    split the perturbation across the periodic wrap and the coefficient jump
    there would drop the eigenvalue convergence to first order.
    """
    if metric.dim != 1:
        raise ValueError("the eigensolver path is 1-D only")
    n = int(n_points)
    if n % 2 == 0:
        raise ValueError("n_points must be odd for the spectral derivative")
    if n > EIG_MAX_POINTS:
        raise ValueError(f"n_points capped at {EIG_MAX_POINTS} for dense decomposition")

    grid = make_grid(1, n, metric.box_length)
    x = grid.axis()[:, None] - 0.5 * metric.box_length
    G = metric.inverse_metric(x)[:, 0, 0]
    w = G ** (-0.5)                   # sqrt|g| in one dimension
    D = _derivative_matrix(n, metric.box_length)
    M = D * (G * w)[None, :]          # columns scaled: D @ diag(G w) built in place
    B = -(w ** (-0.5))[:, None] * (M @ D) * (w ** (-0.5))[None, :]

    asym = float(np.max(np.abs(B - B.T)))
    scale = float(np.max(np.abs(B)))
    if asym > 1e-8 * max(1.0, scale):
        raise AssemblyError(f"weighted operator asymmetry {asym:.3e}")
    B = 0.5 * (B + B.T)
    lam, psi = np.linalg.eigh(B)
    if lam[0] < -1e-10 * max(1.0, lam[-1]):
        raise AssemblyError(f"negative eigenvalue {lam[0]:.3e}")
    lam = np.clip(lam, 0.0, None)
    basis = psi / np.sqrt(w * grid.spacing)[:, None]
    return SpectralOperator(grid=grid, lam=lam, basis=basis, weight=w)


def propagate(u0, op, sigma, t, h=None):
    """Apply the half-wave group e^{i t Lambda^sigma} (or its h-scaled form).

    With h given the phase is t h^{sigma-1} lam^{sigma/2}, the semiclassical
    normalization e^{i t h^{-1} (h sqrt(P))^sigma}; both are unitary, and an
    h that is not positive and finite raises ValueError.  An array of times
    gives the stack of the evolved states, one per time; a stack u0 with
    times of its own stack shape moves each field by its time.
    """
    check_sigma(sigma)
    scale = 1.0 if h is None else check_h(h) ** (sigma - 1.0)
    t = np.asarray(t, dtype=float)
    t = t.reshape(t.shape + (1,) * op.grid.dim)
    return op.apply_function(u0, lambda lam: np.exp(1j * t * scale * lam ** (0.5 * sigma)))


def frequency_localize(u0, cut, h):
    """phi(h^2 P) u0 by the flat multiplier on u0's grid.  An h that is not
    positive and finite raises ValueError."""
    check_h(h)
    return flat_operator(u0.grid).apply_function(u0, lambda lam: cut(h**2 * lam))


def localized_gaussian(grid, cut, h):
    """phi(h^2 P) applied to a width-sqrt(h) Gaussian at the box centre,
    modulated to the frequency sqrt(mid-plateau)/h of the cutoff."""
    check_h(h)
    omega_c = np.sqrt(0.5 * (cut.plateau[0] + cut.plateau[1])) / h
    seed = modulated_gaussian(grid, 0.5 * grid.length, np.sqrt(h), omega_c)
    return frequency_localize(seed, cut, h)


def sobolev_norm(u, gamma, op=None):
    """Norm with weight (1 + lam)^{gamma/2} on the eigenbasis coefficients."""
    op = op or flat_operator(u.grid)
    coeffs = op.coefficients(u)
    weighted = (1.0 + op.lam) ** gamma * np.abs(coeffs) ** 2
    return float(np.sqrt(op.parseval_factor * np.sum(weighted)))


def lp_lq_norm(states, times, p, q):
    """Space-time norm: L^q in space per sample, L^p in time by trapezoid.

    `states` is a stack with one field per time on its leading axis, as
    `propagate` returns for an array of times.
    """
    vals = np.atleast_1d(states.lq_norm(q))
    if not vals.size:
        raise ValueError("empty trajectory")
    times = np.asarray(times, dtype=float)
    if len(times) != len(vals):
        raise ValueError("times and states must align")
    if p == np.inf:
        return float(np.max(vals))
    return float(np.trapezoid(vals**p, times) ** (1.0 / p))


@dataclass
class BernsteinFit:
    """Log-log fit of the L2 -> Linf localization bound across h."""

    slope: float
    intercept: float
    r2: float
    h: np.ndarray
    ratios: np.ndarray


def measure_bernstein(grid, cut, h_list):
    """Fit sup ||phi(h^2 P)u||_inf / ||u||_2 against h on band-limited states.

    Random phases do not saturate the L2 -> Linf bound (they only reach a
    log factor), so the test states are localized point sources at random
    centers: these are the reproducing-kernel extremizers, and the measured
    ratio equals the operator norm of the localizer.  Each h takes the best
    of BERNSTEIN_STATES sources at centres drawn from a fixed seed.  Expected
    slope -d/2.
    """
    h_list = np.asarray(sorted(h_list), dtype=float)
    support_hi = getattr(cut, "support", (None, getattr(cut, "support_edge", None)))[1]
    lam_max = float(np.max(grid.lam()))
    if support_hi is not None and support_hi / h_list[0] ** 2 > lam_max:
        need = int(np.ceil(grid.n * np.sqrt(support_hi / h_list[0] ** 2 / lam_max)))
        raise ValueError(
            f"grid cannot hold the h={h_list[0]} band; need about n={need} points"
        )
    rng = np.random.default_rng(0)
    ratios = np.empty_like(h_list)
    for i, h in enumerate(h_list):
        best = 0.0
        for _ in range(BERNSTEIN_STATES):
            delta = np.zeros((grid.n,) * grid.dim)
            idx = tuple(rng.integers(0, grid.n, size=grid.dim))
            delta[idx] = 1.0
            u = frequency_localize(state_from_values(grid, delta), cut, h)
            norm = u.l2_norm()
            if norm > 0.0:
                loc = frequency_localize(u, cut, h)
                best = max(best, loc.lq_norm(np.inf) / norm)
        ratios[i] = best
    return BernsteinFit(*loglog_fit(h_list, ratios), h=h_list, ratios=ratios)
