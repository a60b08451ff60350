# The lattice product and the interpolation kernel.
#
# On the uniform lattice {k/rho} the normalized zero product collapses
# to sin(pi rho z)/(pi rho z), which gives its growth envelopes exactly:
# |f(x)| <= 1 on the reals and |f(iy)| = sinh(pi rho |y|)/(pi rho |y|)
# <= e^(pi rho |y|).  Multiplying by a smooth-bump transform and a
# band-centering phase yields the interpolation kernel: value 1 at the
# origin, zeros on the punctured lattice, spectrum inside [a, b],
# quadratic-envelope decay certified into an interpolation budget.

import numpy as np
from fractions import Fraction

from flowdim import (
    Band,
    KernelSpec,
    bump_transform,
    certify_constants,
    interpolation_kernel,
    sinc_product,
)
from flowdim.kernel import kernel_band_leakage, reverify_constants

# ## The lattice product in closed form

for z in (0.0, 0.5, 1.0, 2.5):
    print(f"z={z}: f(z) = {sinc_product(z, 1.0).real:+.8f}")

# ## Growth: bounded along the reals, exponential along i*R

x = np.linspace(-20.0, 20.0, 2001)
print("\nmax |f(x)| on [-20, 20]:", np.abs(sinc_product(x, 1.0)).max())
print("|f(2i)| =", abs(sinc_product(2j, 1.0)),
      "= sinh(2 pi)/(2 pi) =", np.sinh(2 * np.pi) / (2 * np.pi),
      "<= e^(2 pi) =", np.exp(2 * np.pi))

# ## The kernel and its certified constants

spec = KernelSpec(Band(0.0, 2.0), Fraction(1), 0.5, window=200.0)
print("\nphi(0) =", interpolation_kernel(0.0, spec))
nodes = np.arange(1, 11, dtype=float)
print("max |phi| on lattice nodes 1..10:",
      np.abs(interpolation_kernel(nodes, spec)).max())
print("|h(5i)| =", abs(bump_transform(5j, spec)),
      "<= e^(pi tau 5) =", np.exp(np.pi * 0.5 * 5))
print("spectral leakage of the sampled kernel:", kernel_band_leakage(spec))

constants = certify_constants(spec, delta=0.2)
print("\ncertified: K_dec =", constants.K_dec)
print("           S_sup =", constants.S_sup)
print("           delta' =", constants.delta_prime)
print("on the whole line: grid on [0, T0 =", constants.T0, "] with slack",
      constants.grid_slack, "| tail bound beyond T0:", constants.tail_bound)
print("budget delta' * S_sup < delta:", constants.check())
print("re-verified on a finer offset grid:", reverify_constants(spec, constants))
