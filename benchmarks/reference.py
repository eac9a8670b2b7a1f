"""Reference computations that the benchmark checks fracwkb against.

Nothing here imports fracwkb. Every formula is written out again from its
mathematical definition (the glued-exponential cutoff, the bump metric, the
flat kernel, the Fourier multiplier, finite differences, conserved
quantities), so a fault in the program cannot hide inside its own check.
"""

import numpy as np


def smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, glued from exp(-1/t)."""
    t = np.asarray(t, dtype=float)

    def glue(s):
        out = np.zeros_like(s)
        pos = s > 0.0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    a, b = glue(t), glue(1.0 - t)
    return a / (a + b)


def bump(lam, r1, r2, p1, p2):
    """Cutoff supported on [r1, r2] and equal to 1 on [p1, p2]."""
    lam = np.asarray(lam, dtype=float)
    return smooth_step((lam - r1) / (p1 - r1)) * smooth_step((r2 - lam) / (r2 - p2))


def gaussian_window(x, center, width):
    return np.exp(-0.5 * ((np.asarray(x, dtype=float) - center) / width) ** 2)


def bump_metric(x, eps):
    """Inverse metric G(x) = 1 + eps exp(-x^2) of the 1-D Gaussian bump."""
    return 1.0 + eps * np.exp(-np.asarray(x, dtype=float) ** 2)


def flat_kernel(t, x, y, h, sigma, cut, points_per_osc=32):
    """(2 pi h)^-1 int chi(xi^2) e^{i((x - y) xi + t|xi|^sigma)/h} dxi.

    `cut` is (r1, r2, p1, p2); the integrand vanishes with all derivatives at
    the ends of the two intervals +-[sqrt r1, sqrt r2], so the trapezoid rule
    converges faster than any power. Returns the (len(x), len(y)) array.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi = np.sqrt(cut[0]), np.sqrt(cut[1])
    speed = sigma * max(lo ** (sigma - 1.0), hi ** (sigma - 1.0))
    reach = np.max(np.abs(x[:, None] - y[None, :])) + abs(t) * speed
    count = max(2001, int(points_per_osc * (hi - lo) * reach / (2.0 * np.pi * h)) + 1)
    out = np.zeros((x.size, y.size), dtype=complex)
    for sign in (-1.0, 1.0):
        xi = sign * np.linspace(lo, hi, count)
        w = np.full(count, (hi - lo) / (count - 1))
        w[[0, -1]] *= 0.5
        amp = w * bump(xi**2, *cut) * np.exp(1j * t * np.abs(xi) ** sigma / h)
        phase = np.exp(1j * (x[:, None] - y[None, :])[:, :, None] * xi / h)
        out += phase @ amp
    return out / (2.0 * np.pi * h)


def angular_frequencies(n, length):
    return 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)


def fft_propagate(values, length, sigma, t, h=None):
    """e^{i t h^{sigma-1} |D|^sigma} on a periodic grid, by numpy's FFT."""
    values = np.asarray(values, dtype=complex)
    omega = angular_frequencies(values.size, length)
    scale = 1.0 if h is None else h ** (sigma - 1.0)
    return np.fft.ifft(np.fft.fft(values) * np.exp(1j * t * scale * np.abs(omega) ** sigma))


def fft_localize(values, length, cut, h):
    """chi(h^2 |D|^2) applied by FFT; `cut` is (r1, r2, p1, p2)."""
    omega = angular_frequencies(values.size, length)
    return np.fft.ifft(np.fft.fft(values) * bump(h**2 * omega**2, *cut))


def d1(a, step, axis):
    """4th-order central first difference; drops two nodes at each end."""
    a = np.moveaxis(a, axis, 0)
    out = (-a[4:] + 8.0 * a[3:-1] - 8.0 * a[1:-3] + a[:-4]) / (12.0 * step)
    return np.moveaxis(out, 0, axis)


def d2(a, step, axis):
    """4th-order central second difference; drops two nodes at each end."""
    a = np.moveaxis(a, axis, 0)
    out = (-a[4:] + 16.0 * a[3:-1] - 30.0 * a[2:-2] + 16.0 * a[1:-3]
           - a[:-4]) / (12.0 * step**2)
    return np.moveaxis(out, 0, axis)


def interior(a, axes):
    """Drop two nodes at each end of the given axes, to match d1/d2."""
    index = [slice(None)] * a.ndim
    for axis in axes:
        index[axis] = slice(2, -2)
    return a[tuple(index)]


def circle_length(eps, box_length, n=4096):
    """Riemannian length int (1 + eps e^{-x^2})^{-1/2} dx of the bump circle.

    The integrand is smooth and periodic on the box to machine precision, so
    the periodic trapezoid rule is exact to rounding.
    """
    x = -0.5 * box_length + box_length * np.arange(n) / n
    return float(np.sum(bump_metric(x, eps) ** -0.5) * box_length / n)


def circle_eigenvalues(length, count):
    """Lowest `count` Laplace eigenvalues of a circle: 0, then (2 pi k/l)^2 twice."""
    k = np.arange(1, count // 2 + 1)
    pairs = np.repeat((2.0 * np.pi * k / length) ** 2, 2)
    return np.concatenate([[0.0], pairs])[:count]


def bump_weight(n, eps, box_length):
    """Volume density G^{-1/2} on the centred grid of the bump eigensolver."""
    x = box_length * np.arange(n) / n - 0.5 * box_length
    return bump_metric(x, eps) ** -0.5


def weighted_mass(values, weight, dx):
    return float(np.sum(np.abs(values) ** 2 * weight) * dx)


def wave_energy(lam, basis, weight, dx, v, w, sigma, mu, nu):
    """1/2 |w|^2 + 1/2 |Lambda^sigma v|^2 + mu/(nu+1) |v|^{nu+1}, in the eigenbasis."""
    cv = basis.T @ (v * weight) * dx
    cw = basis.T @ (w * weight) * dx
    kinetic = 0.5 * np.sum(np.abs(cw) ** 2) + 0.5 * np.sum(lam**sigma * np.abs(cv) ** 2)
    potential = mu / (nu + 1.0) * np.sum(np.abs(v) ** (nu + 1.0) * weight) * dx
    return float(kinetic + potential)


def flat_sobolev(values, length, gamma):
    """sqrt(L sum (1 + omega^2)^gamma |c_k|^2) with c = FFT(u)/n."""
    c = np.fft.fft(values) / values.size
    omega = angular_frequencies(values.size, length)
    return float(np.sqrt(length * np.sum((1.0 + omega**2) ** gamma * np.abs(c) ** 2)))


def flat_conservation_bound(values, length, sigma, mu, nu):
    """sqrt(factor (M + 2E)), the H^{sigma/2} bound from mass and energy."""
    n = values.size
    c = np.fft.fft(values) / n
    omega = angular_frequencies(n, length)
    mass = length * np.sum(np.abs(c) ** 2)
    energy = (0.5 * length * np.sum(np.abs(omega) ** sigma * np.abs(c) ** 2)
              + mu / (nu + 1.0) * np.sum(np.abs(values) ** (nu + 1.0)) * length / n)
    factor = 1.0 if sigma <= 2.0 else 2.0 ** (0.5 * sigma - 1.0)
    return float(np.sqrt(factor * (mass + 2.0 * energy)))


def lp_lq(states, times, p, q, dx):
    """L^p in time (trapezoid) of the L^q norm in space (Riemann sum)."""
    norms = np.array([(np.sum(np.abs(s) ** q) * dx) ** (1.0 / q) for s in states])
    f = norms**p
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(times)) ** (1.0 / p))


def semiclassical_exponent(p, q, d):
    """d/2 - d/q - 1/p: the semiclassical Strichartz exponent."""
    return 0.5 * d - d / q - 1.0 / p


def unscaled_exponent(p, q, d, sigma):
    """gamma + loss = d/2 - d/q - sigma/p + max(sigma - 1, 0)/p (Dinh's loss)."""
    return 0.5 * d - d / q - sigma / p + max(sigma - 1.0, 0.0) / p
