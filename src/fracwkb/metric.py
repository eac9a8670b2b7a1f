"""Bounded elliptic inverse metrics on a periodic box, with derivative access.

The spatial domain is a periodic box of side length L centered at the origin,
used as a proxy for the whole space: all metric perturbations decay to machine
precision well inside the box, so FFT-based reference calculations see a smooth
periodic coefficient field.  A metric is stored through its inverse matrix
G(x) = (g^{jk}(x)), which is what the principal symbol and the Hamiltonian
machinery consume.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MetricField",
    "AssumptionReport",
    "EllipticityError",
    "flat_metric",
    "gaussian_bump_metric",
    "principal_jet",
    "audit_assumptions",
]


FLAT_BOX_LENGTH = 2.0 * np.pi


class EllipticityError(ValueError):
    """The sampled inverse metric failed to be symmetric positive definite."""


def as_points(x, dim):
    """Promote `x` to an (n, dim) float array of sample points."""
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if pts.ndim == 1:
        if dim == 1:
            pts = pts[:, None]
        else:
            pts = pts[None, :]
    if pts.shape[-1] != dim:
        raise ValueError(f"expected points with {dim} component(s), got shape {pts.shape}")
    return pts.reshape(-1, dim)


def as_pairs(x, xi, dim):
    """Promote `x` and `xi` to matched (n, dim) batches of phase-space points.

    A batch holding a single point is broadcast (as a copy) against the
    other; batches of two different sizes above one raise ValueError.
    """
    pts = as_points(x, dim)
    cov = as_points(xi, dim)
    if pts.shape[0] != cov.shape[0]:
        if pts.shape[0] == 1:
            pts = np.broadcast_to(pts, cov.shape).copy()
        elif cov.shape[0] == 1:
            cov = np.broadcast_to(cov, pts.shape).copy()
        else:
            raise ValueError("x and xi batches do not match")
    return pts, cov


def tensor_pairs(x_grid, xi_grid):
    """All (x, xi) pairs of two point grids, x-major: (nx * nxi, d) each.

    Reshaping a per-pair result to (nx, nxi, ...) indexes it as [x, xi].
    """
    nx, nxi = x_grid.shape[0], xi_grid.shape[0]
    return np.repeat(x_grid, nxi, axis=0), np.tile(xi_grid, (nx, 1))


def solve_blocks(M, B):
    """Solve M X = B for stacked d x d blocks M (B broadcasts against M).

    d = 1 divides, which is LAPACK's value bit for bit; larger blocks go to
    np.linalg.solve.
    """
    if M.shape[-1] == 1:
        return B / M
    return np.linalg.solve(M, B)


def loglog_fit(x, y):
    """(slope, intercept, r2) of the least-squares line through (log x, log y).

    scipy.stats.linregress's arithmetic: its slope, intercept and rvalue**2
    bit for bit, and ValueError where it raises (empty input, all x equal) or
    where a sample is not positive and finite.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all((x > 0.0) & (x < np.inf)) and np.all((y > 0.0) & (y < np.inf))):
        raise ValueError(f"log-log fit samples must be positive and finite, got x={x}, y={y}")
    lx, ly = np.log(x), np.log(y)
    if lx.size == 0 or (lx.size > 1 and np.amax(lx) == np.amin(lx)):
        raise ValueError("a log-log fit needs points with at least two distinct x")
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=1).flat
    slope = ssxym / ssxm
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    return float(slope), float(np.mean(ly) - slope * np.mean(lx)), float(r ** 2)


@dataclass(frozen=True)
class MetricField:
    """Inverse metric g^{jk} on a periodic box, immutable after construction.

    Parameters
    ----------
    dim : int
        Spatial dimension d >= 1.
    box_length : float
        Side length L of the periodic box, centered at the origin.
    inverse_metric_jet : callable
        Map from an (n, d) array of points to (G, dG, d2G), all from one
        evaluation: G the (n, d, d) array of symmetric positive definite
        matrices G(x), dG the (n, d, d, d) array of first partials, index
        [m, j, :, :] holding d/dx_j G at the m-th point, and d2G the
        (n, d, d, d, d) array of second partials, index [m, j, k, :, :]
        holding d^2/dx_j dx_k G.
    is_flat : bool
        True when G is identically the identity; downstream modules use this
        to unlock closed-form checks and higher expansion orders.
    """

    dim: int
    box_length: float
    inverse_metric_jet: callable = field(repr=False)
    is_flat: bool = False
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not 0.0 < self.box_length < np.inf:
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")

    def inverse_metric(self, pts):
        """G(x) at an (n, d) array of points: the first part of the jet."""
        return self.inverse_metric_jet(pts)[0]


def check_sigma(sigma):
    """Reject dispersion exponents outside (0, inf) \\ {1}."""
    if not 0.0 < sigma < np.inf or sigma == 1.0:
        raise ValueError(f"sigma must be positive, finite and != 1, got {sigma}")
    return float(sigma)


def check_h(h):
    """Reject a semiclassical scale h that is not positive and finite."""
    if not 0.0 < h < np.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    return float(h)


def flat_metric(dim=1):
    """Identity inverse metric on the FLAT_BOX_LENGTH torus; every downstream
    object has a closed form."""

    def _jet(pts):
        n = pts.shape[0]
        return (np.broadcast_to(np.eye(dim), (n, dim, dim)).copy(),
                np.zeros((n, dim, dim, dim)), np.zeros((n, dim, dim, dim, dim)))

    return MetricField(
        dim=dim,
        box_length=FLAT_BOX_LENGTH,
        inverse_metric_jet=_jet,
        is_flat=True,
        label="flat",
    )


def gaussian_bump_metric(dim=1, epsilon=0.1, box_length=16.0):
    """Conformal Gaussian perturbation G(x) = (1 + eps*exp(-|x|^2)) * Id.

    For d=1 this is the reference variable metric g^{11}(x) = 1 + eps e^{-x^2}.
    The default box is wide enough that exp(-|x|^2) is below machine epsilon at
    the boundary, so periodization does not spoil smoothness.
    """
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon}")
    eye = np.eye(dim)

    def _jet(pts):
        # one exp: w = 1 + e, d/dx_j w = -2 x_j e and
        # d^2/dx_j dx_k w = (4 x_j x_k - 2 delta_jk) e, with e = eps e^{-|x|^2};
        # for d = 1 the same operations on (n,) arrays, without the eye
        if dim == 1:
            x = pts[:, 0]
            e = epsilon * np.exp(-(x**2))
            return ((1.0 + e).reshape(-1, 1, 1), (-2.0 * x * e).reshape(-1, 1, 1, 1),
                    ((4.0 * x * x - 2.0) * e).reshape(-1, 1, 1, 1, 1))
        e = epsilon * np.exp(-np.sum(pts**2, axis=1))
        dw = -2.0 * pts * e[:, None]
        quad = 4.0 * pts[:, :, None] * pts[:, None, :] - 2.0 * eye
        d2w = quad * e[:, None, None]
        return ((1.0 + e)[:, None, None] * eye, dw[:, :, None, None] * eye,
                d2w[:, :, :, None, None] * eye)

    return MetricField(
        dim=dim,
        box_length=box_length,
        inverse_metric_jet=_jet,
        is_flat=(epsilon == 0.0),
        label=f"gaussian_bump(eps={epsilon})",
    )


def principal_jet(m, pts, cov):
    """p = xi^T G(x) xi and its partials at matched (n, d) batches.

    Returns (G, p, p_x, p_xi, p_xx, p_xxi) from one evaluation of the
    metric's jet: p_x and p_xi are (n, d), p_xx and p_xxi are (n, d, d)
    with p_xxi[m, i, j] = d^2 p / dx_i dxi_j.  This is the one place the
    chain rule of p is written out; the symbols built on p read their
    derivatives from it.  For d = 1 every contraction is a product of (n,)
    arrays, taken in the general path's einsum operand order so the values
    are the einsum's bit for bit, and returned with unit trailing axes.
    """
    G, dG, d2G = m.inverse_metric_jet(pts)
    if m.dim == 1:
        g, g1, g2, xi = G[:, 0, 0], dG[:, 0, 0, 0], d2G[:, 0, 0, 0, 0], cov[:, 0]
        return (G, xi * g * xi, (xi * g1 * xi)[:, None], (2.0 * (g * xi))[:, None],
                (xi * g2 * xi)[:, None, None], (2.0 * (g1 * xi))[:, None, None])
    p = np.einsum("ni,nij,nj->n", cov, G, cov)
    px = np.einsum("ni,nkij,nj->nk", cov, dG, cov)
    pxi = 2.0 * np.einsum("nij,nj->ni", G, cov)
    pxx = np.einsum("ni,nklij,nj->nkl", cov, d2G, cov)
    pxxi = 2.0 * np.einsum("nkij,nj->nki", dG, cov)
    return G, p, px, pxi, pxx, pxxi


@dataclass
class AssumptionReport:
    """Smallest constants observed for the ellipticity and boundedness audits."""

    C_ellipticity: float
    C_alpha: dict
    min_eigenvalue: float
    max_eigenvalue: float
    n_samples: int


def audit_assumptions(m, n_samples=201):
    """Audit ellipticity and derivative boundedness of a metric on its box.

    The samples are a tensor grid spanning the box, `n_samples` points along
    the axis for d = 1 and 33 per axis otherwise.  Returns the smallest
    constant C with C^{-1}|xi|^2 <= xi^T G xi <= C|xi|^2 over the samples (via
    eigenvalue extremes of G, which the report keeps) together with the
    observed sup of |partial^alpha g^{jk}| per derivative order.  A sample
    with a nonpositive eigenvalue raises :class:`EllipticityError`, and
    `n_samples` below 1 raises ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    half = 0.5 * m.box_length
    axes = [np.linspace(-half, half, n_samples if m.dim == 1 else 33)] * m.dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([a.ravel() for a in mesh], axis=-1)

    G, dG, d2G = m.inverse_metric_jet(pts)
    if not np.allclose(G, np.swapaxes(G, -1, -2), atol=0.0):
        raise EllipticityError("inverse metric is not exactly symmetric")
    eigs = np.linalg.eigvalsh(G)
    lam_min = float(eigs.min())
    lam_max = float(eigs.max())
    if lam_min <= 0.0:
        bad = pts[np.nonzero(eigs.min(axis=1) <= 0.0)[0][0]]
        raise EllipticityError(f"nonpositive Rayleigh quotient at x = {bad}")
    C_ell = max(lam_max, 1.0 / lam_min)

    C_alpha = {0: float(np.max(np.abs(G)))}
    C_alpha[1] = float(np.max(np.abs(dG)))
    C_alpha[2] = float(np.max(np.abs(d2G)))

    return AssumptionReport(
        C_ellipticity=C_ell,
        C_alpha=C_alpha,
        min_eigenvalue=lam_min,
        max_eigenvalue=lam_max,
        n_samples=pts.shape[0],
    )
