"""Reference implementations that the tests compare production code against.

Each one is the straightforward form of a quantity that ``src/`` computes
in a faster or more structured way; none is called outside the tests.
"""

import numpy as np

from flowdim.errors import QuadratureError
from flowdim.kernel import QUAD_NODES, QUAD_TOL, KernelSpec


def bump_transform_outer(z, spec: KernelSpec):
    """The bump transform as chunked cosines over the (points x nodes) outer product.

    The same rule, doubling and doubled-rule check as
    ``flowdim.kernel.bump_transform``, with every wave cos(2 pi z xi_k)
    evaluated directly.  Chunking keeps memory at O(chunk x nodes).
    """
    z = np.asarray(z)
    zz = z.ravel().astype(complex if np.iscomplexobj(z) else float)
    n = QUAD_NODES
    z_max = float(np.abs(zz).max()) if zz.size else 0.0
    while n < 4.0 * spec.tau * z_max:
        n *= 2
    xi, fine_wt = spec._trapezoid(2 * n)
    fine_wt = fine_wt * spec.bump_norm
    # The base rule's nodes are the even fine nodes, at twice the weight.
    coarse_wt = 2.0 * fine_wt[::2]
    out = np.empty(zz.shape, dtype=complex)
    worst = 0.0
    chunk = max(1, (1 << 16) // len(xi))
    for start in range(0, len(zz), chunk):
        waves = np.cos(2.0 * np.pi * np.outer(zz[start:start + chunk], xi))
        fine = waves @ fine_wt
        coarse = waves[:, ::2] @ coarse_wt
        scale = np.maximum(1.0, np.abs(fine))
        worst = max(worst, float((np.abs(fine - coarse) / scale).max()))
        out[start:start + chunk] = fine
    if worst > QUAD_TOL:
        raise QuadratureError(
            f"bump transform quadrature disagreement {worst:.3g} exceeds {QUAD_TOL:.3g}",
            achieved_tol=worst)
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def bump_integral_check(spec: KernelSpec):
    """Integral of the normalized bump under the doubled rule."""
    return float(spec._trapezoid(2 * QUAD_NODES)[1].sum() * spec.bump_norm)
