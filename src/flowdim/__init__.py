"""Mean dimension for flows, suspension dynamics, and band-limited embeddings.

The package splits into:

- ``metric``: finite metric samples, orbit metrics, width-dimension
  upper estimates, spanning numbers, and mean-dimension tables;
- ``dynamics``: Z-systems, suspension flows with arbitrary roofs (a
  flow maps a whole sequence of points per call), the Bowen-Walters
  metric, mapping tori, and the n!-solenoid;
- ``bandlimited``: the band-limited signal space with its weighted
  local-sup metric, shift flow, spectral support checks, real folding,
  and the periodic-subspace dimension formula;
- ``kernel``: the uniform lattice, its zero-pinned product, the smooth
  bump transform, the interpolation kernel, and certified constants;
- ``embedding``: the solenoid embedding into band-limited signals,
  Bohr-mean coefficient recovery, the randomized finite-sample
  eps-embedding search, and the perturbation g = f + h verified as a
  delta-embedding;
- ``instances``: desk-scale example systems and the end-to-end
  pipeline; ``cli``: the experiment runner.
"""

# numpy loads these on first use (np.unique loads numpy.ma); load them here so
# that the cost falls in import time, not in the first call that needs them.
import numpy.fft
import numpy.ma
import numpy.random

from .bandlimited import (
    Band,
    Signal,
    band_support_check,
    fold_real,
    periodic_subspace_dim,
    shift,
    signal_metric,
    signal_metric_tail,
)
from .dynamics import (
    BowenWaltersMetric,
    DynSystem,
    MappingTorus,
    RoofFunction,
    SolenoidPoint,
    SuspensionPoint,
    bw_distance,
    mapping_torus,
    solenoid_act,
    solenoid_from_time,
    suspend,
)
from .embedding import (
    EmbeddingRun,
    SolenoidEmbedding,
    bohr_coefficient,
    epsilon_embedding_search,
    perturb_signal_map,
    solenoid_embed,
    solenoid_recover,
    verify_delta_embedding,
)
from .kernel import (
    KernelConstants,
    KernelSpec,
    Lattice,
    bump_transform,
    certify_constants,
    interpolation_kernel,
    sinc_product,
)
from .metric import (
    CoverNerve,
    MetricSample,
    OrbitMetricSpec,
    cover_nerve,
    mdim_table,
    metric_mdim_table,
    orbit_metric_R,
    orbit_metric_Z,
    spanning_number,
    widim_upper,
)

__version__ = "0.1.0"
