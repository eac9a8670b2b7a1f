"""Exact spectral references on the periodic box.

Flat propagators and functional calculus act as Fourier multipliers, so they
are exact up to rounding and serve as oracles for the oscillatory-integral
machinery.  Variable 1-D metrics get a dense eigendecomposition of the
divergence-form operator P = -Delta_g, symmetrized in the volume-weighted
inner product and folded into the grid's even/odd coordinates under the
reflection x -> -x, so that a metric even about the box centre splits into
two half-size blocks; that path is the only fully general functional
calculus at desk scale and is deliberately capped at modest grid sizes.
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
        return _fft(self.grid, self.values) / self.grid.n**self.grid.dim

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


def _fft(grid, a, inverse=False):
    """The FFT (or its inverse) over the grid's axes of a field or stack: along
    the last axis alone in one dimension, where fftn's axis handling would
    cost more than the transform at desk sizes."""
    if grid.dim == 1:
        return np.fft.ifft(a) if inverse else np.fft.fft(a)
    return (np.fft.ifftn if inverse else np.fft.fftn)(a, axes=grid.axes())


def state_from_fourier(grid, fourier):
    fourier = np.asarray(fourier, dtype=complex)
    u = StateField(grid, _fft(grid, fourier * grid.n**grid.dim, inverse=True))
    u.fourier = fourier             # fills the cache: the given coefficients, not an FFT
    return u


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

    Without eigenvector blocks (`kind` "flat") it holds the multiplier
    |omega|^2 on the FFT layout.  With them (`kind` "eig") it holds the
    eigenpairs of the 1-D divergence-form discretization in the grid's
    even/odd coordinates (`_fold`): `blocks` are the orthonormal eigenvector
    matrices of the folded operator's diagonal blocks, in folded order,
    `order` sorts their concatenated eigenvalues into the ascending `lam`,
    and `weight` is the volume density on the grid.  `basis`, the n x n
    eigenbasis they make (orthonormal in the volume-weighted inner product,
    column k for lam[k]), is built on first read; the transforms never build
    it.

    The transforms take a stack of fields (leading axes) as readily as one
    field: on the flat path they are one batched FFT, on the eig path one
    real matrix product per block for the whole stack.
    """

    grid: BoxGrid
    lam: np.ndarray = field(repr=False)
    weight: np.ndarray = field(default=None, repr=False)
    blocks: tuple = field(default=None, repr=False)
    order: np.ndarray = field(default=None, repr=False)

    @property
    def kind(self):
        return "flat" if self.blocks is None else "eig"

    @property
    def parseval_factor(self):
        """c in ||u||^2 = c sum |coefficients|^2: L^d on the flat path, 1 on
        the weighted-orthonormal eigenbasis."""
        return self.grid.length**self.grid.dim if self.kind == "flat" else 1.0

    @cached_property
    def basis(self):
        """The (n, n) eigenbasis, column k for lam[k]; None on the flat path."""
        if self.kind == "flat":
            return None
        rank = np.argsort(self.order)
        folded = np.zeros((self.grid.n, self.grid.n))
        for rows, vectors in self._spans():
            folded[rows, rank[rows]] = vectors
        basis = _unfold(folded)
        basis *= self._fold_scales[1][:, None]
        return basis

    @cached_property
    def _fold_scales(self):
        """(c, d): u's coefficients are the block products of _fold(u c),
        and the values with coefficients f are _unfold(block products of f)
        times d.  c is sqrt(weight dx) with the orthogonal fold's 1/sqrt 2 on
        the paired nodes and d is 1/c with its 1/2 there, so a round trip
        rounds once per node and keeps no bias."""
        c = np.sqrt(self.weight * self.grid.spacing)
        c[1:] *= _HALF
        d = 1.0 / c
        d[1:] *= 0.5
        return c, d

    def _spans(self):
        """(rows, vectors) per block: its rows of the folded coordinates."""
        start = 0
        for vectors in self.blocks:
            yield slice(start, start + len(vectors)), vectors
            start += len(vectors)

    def _blockwise(self, folded, transpose):
        """Each block's eigenvectors (transposed or not) times its rows of the
        folded (n, K) columns, as real products on their float view."""
        out = np.empty_like(folded)
        for rows, vectors in self._spans():
            np.matmul(vectors.T if transpose else vectors, folded[rows].view(float),
                      out=out[rows].view(float))
        return out

    def coefficients(self, u):
        """Expansion coefficients of u in the operator's eigenbasis."""
        if self.kind == "flat":
            return u.fourier
        cols, shape = _columns(u.values * self._fold_scales[0])
        return self._blockwise(_fold(cols), True)[self.order].T.reshape(shape)

    def synthesize(self, coeffs):
        if self.kind == "flat":
            return state_from_fourier(self.grid, coeffs)
        cols, shape = _columns(coeffs)
        folded = np.empty_like(cols)
        folded[self.order] = cols
        values = _unfold(self._blockwise(folded, False))
        values *= self._fold_scales[1][:, None]
        return state_from_values(self.grid, values.T.reshape(shape))

    def apply_function(self, u, fn):
        """f(P) u for a scalar function of the eigenvalue.

        fn is evaluated only on the occupied modes, those where some field of
        the stack has a nonzero coefficient, and f(P) u is 0 on the others.
        It receives the occupied eigenvalues along the grid's last axis, all
        of them when every mode is occupied; it acts elementwise and may
        broadcast leading axes against them, as `propagate`'s times do.
        """
        coeffs, dim = self.coefficients(u), self.grid.dim
        occupied = np.any(coeffs != 0, axis=tuple(range(coeffs.ndim - dim)))
        values = np.asarray(fn(self.lam[occupied].reshape((1,) * (dim - 1) + (-1,))))
        values = values.reshape(values.shape[:values.ndim - dim] + (-1,))
        # masks of the whole stack's shape keep the gathered modes contiguous;
        # coeffs[..., occupied] comes back strided, and a product on it is
        # several times slower
        gathered = coeffs[np.broadcast_to(occupied, coeffs.shape)]
        product = gathered.reshape(coeffs.shape[:coeffs.ndim - dim] + (-1,)) * values
        out = np.zeros(product.shape[:-1] + occupied.shape, dtype=product.dtype)
        out[np.broadcast_to(occupied, out.shape)] = product.reshape(-1)
        return self.synthesize(out)


def flat_operator(grid):
    return SpectralOperator(grid=grid, lam=grid.lam(), weight=np.ones((grid.n,) * grid.dim))


def _columns(z):
    """The fields of the complex stack z (last axis n) as the columns of one
    contiguous (n, K) array, with z's shape to put them back."""
    z = np.asarray(z, dtype=complex)
    return np.ascontiguousarray(z.reshape(-1, z.shape[-1]).T), z.shape


_HALF = np.sqrt(0.5)


def _fold(a):
    """Rows a_0, then a_j + a_{n-j} for j = 1..m, then a_j - a_{n-j}.

    With n = 2m + 1 nodes at x_j = j dx - L/2, the reflection x -> -x maps
    node j to node n - j and fixes node 0 (-L/2 and L/2 are one point), so
    these are the even rows (m + 1 of them) and the odd rows (m) of `a`
    along its first axis.  Up to the factor 1/sqrt 2 on the paired rows,
    which callers put into their own scalings, it is the orthogonal change to
    the grid's even/odd coordinates.
    """
    m = (len(a) - 1) // 2
    head, tail = a[1:m + 1], a[:m:-1]
    out = np.empty_like(a)
    out[0] = a[0]
    np.add(head, tail, out=out[1:m + 1])
    np.subtract(head, tail, out=out[m + 1:])
    return out


def _unfold(f):
    """The grid rows f_0, then e_j + o_j at node j and e_j - o_j at node n - j
    from the even rows e and odd rows o of `f`: _unfold(_fold(a)) is `a` with
    its paired rows doubled."""
    m = (len(f) - 1) // 2
    even, odd = f[1:m + 1], f[m + 1:]
    out = np.empty_like(f)
    out[0] = f[0]
    np.add(even, odd, out=out[1:m + 1])
    np.subtract(even, odd, out=out[:m:-1])
    return out


def _mirrors(v):
    """Whether v[i] equals its mirror v[n - i] within n ulps at every node."""
    return bool(np.all(np.abs(v[1:] - v[:0:-1]) <= len(v) * np.spacing(np.abs(v[1:]))))


def _folded_blocks(grid, G, w):
    """The diagonal blocks of the weighted operator in even/odd coordinates.

    The divergence form -|g|^{-1/2} d/dx (G |g|^{1/2} d/dx), conjugated by
    sqrt(w), is N^T W N with N = D R: D is the circulant spectral derivative
    (antisymmetric, D^T = -D), R = diag(w^{-1/2}) and W = diag(G w).  Folded
    on both sides (`_fold`), N's columns are the r-weighted sums (even) and
    differences (odd) of D's columns j and n - j, which are Toeplitz and
    Hankel slices of D's first column: they are read as strided views of
    that column tiled twice, so D itself is never built.

    When G w and r equal their mirrors within n ulps (a metric even about
    the box centre), the even columns of N are odd under the grid's
    reflection and the odd columns even, so the halves do not couple and
    each block is a half-size product over the rows 0..m, row i standing
    for itself and row n - i with the weight W_i + W_{n-i}.  Otherwise the
    folded matrix is one block of the whole product.  A block must be
    symmetric to 1e-8 of its largest entry; its symmetric part is returned.
    """
    n, m = grid.n, (grid.n - 1) // 2
    col = np.fft.ifft(1j * grid.omega_axis()).real    # D[i, j] = col[(i - j) % n]
    W, r = G * w, w ** (-0.5)
    paired = _mirrors(W) and _mirrors(r)
    rows = m + 1 if paired else n
    # over the rows i < `rows`, r_j D[i, j] = r_j col[(i - j) % n] is window
    # n - j of the column tiled twice: N^T's row j
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([col, col]), rows)
    folded = _fold(windows[n:0:-1] * r[:, None])
    if paired:
        weight = np.concatenate([W[:1], W[1:m + 1] + W[:m:-1]])
        parts = [folded[:m + 1], folded[m + 1:]]
    else:
        weight, parts = W, [folded]
    return [_block(part, weight, k == 0) for k, part in enumerate(parts)]


def _block(part, weight, head):
    """(part * weight) @ part.T with the fold's 1/sqrt 2 on each paired row
    and column (`head`: the block's first row is node 0, its own mirror),
    checked for symmetry and returned as its symmetric part."""
    B = (part * weight) @ part.T
    if head:
        B[1:, 1:] *= 0.5
        B[0, 1:] *= _HALF
        B[1:, 0] *= _HALF
    else:
        B *= 0.5
    sym = B - B.T                     # one buffer for both checks and the result
    asym = float(np.max(np.abs(sym, out=sym)))
    scale = float(np.max(np.abs(B, out=sym)))
    if asym > 1e-8 * max(1.0, scale):
        raise AssemblyError(f"weighted operator asymmetry {asym:.3e}")
    np.add(B, B.T, out=sym)
    sym *= 0.5
    return sym


def discretize_P_1d(metric, n_points):
    """Eigendecomposition of -Delta_g on the 1-D periodic box.

    The divergence-form matrix, conjugated by sqrt(weight) into a symmetric
    positive semidefinite one, is folded into the grid's even/odd
    coordinates (`_folded_blocks`).  On a metric even about the box centre,
    such as the bump, the two halves do not couple and `eigh` runs on two
    blocks of sizes (n + 1)/2 and (n - 1)/2; any other metric is one coupled
    block.  The eigenvectors stay as blocks; the operator's `basis`,
    orthonormal in the weighted inner product sum(u conj(v) w dx), is their
    unfolded product, built on first read.  An eigenvalue within
    tol = 1e-10 max(1, lam_max) of 0 is P's kernel, the constants, and is
    set to 0; one below -tol raises AssemblyError.

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
    pairs = [np.linalg.eigh(block) for block in _folded_blocks(grid, G, w)]
    lam = np.concatenate([lam for lam, _ in pairs])
    tol = 1e-10 * max(1.0, lam.max())
    if lam.min() < -tol:
        raise AssemblyError(f"negative eigenvalue {lam.min():.3e}")
    lam[np.abs(lam) <= tol] = 0.0     # P's kernel, the constants, read off rounding of either sign
    order = np.argsort(lam, kind="stable")
    return SpectralOperator(grid=grid, lam=lam[order], weight=w,
                            blocks=tuple(vectors for _, vectors in pairs), order=order)


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
    log factor), so the test state is a localized point source: it is the
    reproducing-kernel extremizer, and the measured ratio equals the operator
    norm of the localizer.  The localizer is a Fourier multiplier on the
    periodic grid, so every centre gives the same ratio; the source sits at
    the first node.  Expected slope -d/2.
    """
    h_list = np.asarray(sorted(h_list), dtype=float)
    support_hi = cut.support[1]
    lam_max = float(np.max(grid.lam()))
    if support_hi / h_list[0] ** 2 > lam_max:
        need = int(np.ceil(grid.n * np.sqrt(support_hi / h_list[0] ** 2 / lam_max)))
        raise ValueError(
            f"grid cannot hold the h={h_list[0]} band; need about n={need} points"
        )
    delta = np.zeros((grid.n,) * grid.dim)
    delta[(0,) * grid.dim] = 1.0
    source = state_from_values(grid, delta)
    ratios = np.zeros_like(h_list)
    for i, h in enumerate(h_list):
        u = frequency_localize(source, cut, h)
        norm = u.l2_norm()
        if norm > 0.0:
            ratios[i] = frequency_localize(u, cut, h).lq_norm(np.inf) / norm
    return BernsteinFit(*loglog_fit(h_list, ratios), h=h_list, ratios=ratios)
