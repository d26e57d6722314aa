"""An adaptive reference for the reduced wall operator, independent of the package.

The package propagates the half-line solutions of the reduced operator with
one fixed-step Magnus method, started in closed form where the wall's
plateau begins.  This module takes another route for the tests: scipy's
DOP853 at relative tolerance ``RTOL``, started at the box ends +-T on the
eigenvector of the frozen coefficient matrix there (computed by numpy) and
integrated through the plateaus, with scipy's ``brentq`` for eigenvalues.

Each half carries the Prufer angle phi, log r and w, the integral of r^2
beyond the current point in units of the current r^2, signed by the
direction of integration.  w starts on its plateau value 1 / (2 (log r)'),
the exponential tail beyond the box end, so at t = 0 it is the half's whole
norm in units of r(0)^2.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from artifact import wall_dirac

RTOL = 3e-14


def _coefficients(params):
    """(s, b): the D_t speed and the mu term of the real-gauge system."""
    b = params.mu * params.speed_mu * wall_dirac._real_gauge(params)[1]
    return params.speed_t, b


def _start_vector(params, theta, end):
    """Unit eigenvector of M(end) whose solution decays away from the wall."""
    s, b = _coefficients(params)
    mk = params.mass * params.wall(end)
    M = np.array([[-b, theta + mk], [mk - theta, b]]) / s
    values, vectors = np.linalg.eig(M)
    # the left half grows toward the wall (t increasing), the right one
    # decays with t
    pick = np.argmax(values.real) if end < 0 else np.argmin(values.real)
    return vectors[:, pick].real


def half(params, theta, T, side):
    """solve_ivp result for (phi, log r, w) from the box end on ``side`` to t = 0."""
    s, b = _coefficients(params)
    end = -T if side == "left" else T

    def rhs(t, y):
        mk = params.mass * params.wall(float(t))
        c, sn = math.cos(2.0 * y[0]), math.sin(2.0 * y[0])
        dlog_r = (mk * sn - b * c) / s
        return [(mk * c + b * sn - theta) / s, dlog_r, 1.0 - 2.0 * dlog_r * y[2]]

    v = _start_vector(params, theta, end)
    y0 = [math.atan2(v[1], v[0]), 0.0, 0.0]
    y0[2] = 0.5 / rhs(end, y0)[1]
    sol = solve_ivp(
        rhs, (end, 0.0), y0, method="DOP853", rtol=RTOL, atol=RTOL, dense_output=True
    )
    assert sol.success, sol.message
    return sol


def mismatch(params, theta, T):
    """g = phi_left(0) - phi_right(0) and g' = -(norm_left + norm_right) / s."""
    left, right = (half(params, theta, T, side) for side in ("left", "right"))
    g = left.y[0, -1] - right.y[0, -1]
    return g, -(left.y[2, -1] - right.y[2, -1]) / params.speed_t


def eigenvalue(params, guess, T, width=1e-6):
    """The eigenvalue within ``width`` of ``guess``: brentq on g - k pi."""
    k = round(mismatch(params, guess, T)[0] / math.pi)
    return brentq(
        lambda theta: mismatch(params, theta, T)[0] - k * math.pi,
        guess - width, guess + width, xtol=1e-15,
    )


def envelope(params, theta, T):
    """Samples of the glued eigenfunction at theta, as ``EnvelopePair.alpha``.

    The right half is glued on at t = 0 with the sign (-1)^k of the angle
    difference k pi there; the result is mapped back to the spinor frame and
    normalized in L2 over the line.  Its overall sign is arbitrary.
    """
    left, right = (half(params, theta, T, side) for side in ("left", "right"))
    sign = (-1.0) ** round((left.y[0, -1] - right.y[0, -1]) / math.pi)
    norm = math.sqrt(left.y[2, -1] - right.y[2, -1])
    e1 = params.matrices()[0][0, 1]
    back = np.array([1.0, -1j * np.conj(e1)])

    def alpha(ts):
        ts = np.asarray(ts, dtype=float)
        chi = np.empty((len(ts), 2))
        for sol, mask, scale in ((left, ts < 0.0, 1.0), (right, ts >= 0.0, sign)):
            phi, log_r, _ = sol.sol(ts[mask])
            amp = scale * np.exp(log_r - sol.y[1, -1])
            chi[mask] = (amp * np.array([np.cos(phi), np.sin(phi)])).T
        return (chi / norm) * back[None, :]

    return alpha


def matching_dets(params, thetas, T):
    """sin(phi_right(0) - phi_left(0)) at every theta, from one solve_ivp call.

    The determinant of the two halves' unit vectors at the wall center.  The
    Prufer angles of all theta and both halves form one system; the right
    half runs in the mirrored variable -t, so both go from -T to 0.
    """
    thetas = np.asarray(thetas, dtype=float)
    s, b = _coefficients(params)

    def rhs(t, y):
        phi = y.reshape(2, -1)
        mk = params.mass * np.array([params.wall(float(t)), params.wall(-float(t))])
        d = (mk[:, None] * np.cos(2.0 * phi) + b * np.sin(2.0 * phi) - thetas) / s
        return np.concatenate([d[0], -d[1]])

    y0 = [
        math.atan2(*_start_vector(params, theta, end)[::-1])
        for end in (-T, T)
        for theta in thetas
    ]
    sol = solve_ivp(rhs, (-T, 0.0), y0, method="DOP853", rtol=RTOL, atol=RTOL)
    assert sol.success, sol.message
    left, right = sol.y[:, -1].reshape(2, -1)
    return np.sin(right - left)
