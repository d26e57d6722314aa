"""An extended-precision reference for the quasimode residuals.

The package takes ||(H - E) u|| / ||u|| of a sampled ansatz in the ansatz's
factored form (``strip.kron_residual``), never forming u.  This module takes
another route for the tests: it forms the t-major strip vector u = X U^T
of a factored field (slow coefficients X per node, fast basis U) in
``np.clongdouble``, applies each Kronecker term T (x) F to it as F on the
rows and T by its DIA diagonals, all in extended precision, and takes the
norms there.  The inputs (the field, the terms and the energy) are the
package's double-precision values, which convert exactly, so the result is
the residual of those values to about 1e-18 relative, well below the
double-precision routes' rounding.

The package's factored route rounds worse than a double-precision apply to
u: it rounds each F_k b of the fast columns b once, and that error repeats
at every node, so it does not average out over the n_t nodes as the
apply's per-node rounding does.  On the quasimode study's order-2
residuals, taken by nested cuts of the top order's field, it lies up to
2.3e-13 (mu = 0) and 1.2e-11 (mu = 0.3) relative from this reference at
delta = 0.08 and 0.04, 1.5e-11 and 6.2e-11 at delta = 0.02, and 9.2e-10
and 7.3e-10 at delta = 0.01 (``BENCH_nested_residual.json``).
"""

import numpy as np


def _norm(a):
    return np.sqrt(np.sum(a.real**2 + a.imag**2))


def residual(terms, field, energy):
    """||(H - E) u|| / ||u|| for H = sum_k T_k (x) F_k and u = field's strip vector.

    ``field`` is a ``quasimode.FastField`` whose coefficients already carry
    the edge phase (``QuasimodeAnsatz.field``).
    """
    u = field.coeffs.T.astype(np.clongdouble) @ field.basis.T.astype(np.clongdouble)
    n_t = u.shape[0]
    out = -np.clongdouble(energy) * u
    for T, F in terms:
        v = u @ F.T.astype(np.clongdouble)
        T = T.todia()
        # DIA row k holds T[i, i + offset] at column i + offset
        for offset, coef in zip(T.offsets, T.data):
            lo, hi = max(0, -offset), min(n_t, n_t - offset)
            rows = slice(lo + offset, hi + offset)
            out[lo:hi] += coef[rows, None].astype(np.clongdouble) * v[rows]
    return float(_norm(out) / _norm(u))
