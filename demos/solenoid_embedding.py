# Embedding the solenoid into band-limited signals and reading it back.
#
# A truncated solenoid point (x_1, ..., x_K), x_n in [0, n!), maps to
# the exponential sum  sum_n 2^-n exp(2 pi i (t + x_n)/n!) -- a signal
# with band in [0, 1] and sup norm below 1.  Time averages against each
# frequency recover the coefficients, hence the point; translation on
# the solenoid matches the shift flow on signals.

import math

import numpy as np

from flowdim import (
    SolenoidEmbedding,
    bohr_coefficient,
    shift,
    solenoid_act,
    solenoid_embed,
    solenoid_from_time,
    solenoid_recover,
)

# ## The point at orbit time 4.3, truncated to depth 3

p = solenoid_from_time(4.3, 3)
print("coordinates:", p.coords)

q = solenoid_act(p, 1.5)
print("translated by 1.5:", q.coords)

# ## Equivariance: translate-then-embed equals embed-then-shift

emb_small = SolenoidEmbedding(c=1.0, K=3, window=20.0)
lhs = solenoid_embed(q, emb_small)
rhs = shift(solenoid_embed(p, emb_small), 1.5)
residual = np.abs(lhs.evaluate(rhs.times()) - rhs.values).max()
print("equivariance residual:", residual)

# ## Bohr means pick out single coefficients

# Bohr means are taken in closed form on the signal's own grid; the
# embedding's default step, 0.01, meets the quadrature step of these
# frequencies.
sig = solenoid_embed(p, SolenoidEmbedding(c=1.0, K=3, window=20.0))
for n in (1, 2, 3):
    lam = 2 * np.pi / math.factorial(n)
    coeff = bohr_coefficient(sig, lam, 12.0)
    print(f"short-average coefficient at 1/{n}!:", abs(coeff))

# ## Full round trip over a long average

T = 5_000.0
emb = SolenoidEmbedding(c=1.0, K=3, window=T + 60.0)
long_sig = solenoid_embed(p, emb)
rec = solenoid_recover(long_sig, emb, T)
print("\nrecovered coordinates vs truth (T = 5000):")
for n in range(1, 4):
    fact = math.factorial(n)
    gap = abs(rec.coords[n - 1] - p.coords[n - 1]) % fact
    gap = min(gap, fact - gap)
    print(f"  x_{n}: {rec.coords[n - 1]:.6f} vs {p.coords[n - 1]:.6f} "
          f"(circle gap {gap:.2e}, budget {1e-2 * fact:.2e})")
