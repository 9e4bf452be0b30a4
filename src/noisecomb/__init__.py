"""Guided diffusion via optimal codebook noise combinations.

Subpackages cover the keyed random streams and codebooks (:mod:`.rng`), the
analytic-score diffusion engine (:mod:`.diffusion`), linear degradation
operators and guidance directions (:mod:`.operators`), optimal combination
weights (:mod:`.combination`), the solvers (:mod:`.solvers`), stick-breaking
weight quantization (:mod:`.quantizer`), the bit-exact compression codec
(:mod:`.codec`), and the command-line surface (:mod:`.cli`).
"""

from .combination import (
    DegenerateDirectionError,
    TopMSelection,
    optimal_weights,
    synthesize_noise,
    top_m_weights,
)
from .codec import Bitstream, CompressResult, compress, decompress, report_bpp
from .diffusion import (
    GaussianMixturePrior,
    Schedule,
    ddpm_mean,
    ddpm_step,
    score,
    tweedie_estimate,
    tweedie_jacobian,
    unconditional_sample,
)
from .operators import (
    CircularBlur,
    Downsample,
    Identity,
    Mask,
    Observation,
    ddcm_direction,
    make_observation,
    mpgd_direction,
)
from .quantizer import (
    Grid,
    StickCode,
    bpp,
    quantize_dp,
    quantize_greedy_exponential,
    quantize_nn,
    quantize_stagewise,
    stick_forward,
    stick_inverse,
)
from .rng import Domain, NoiseStream, StreamKey, build_codebook, derive_stream
from .solvers import SolveResult, SolverConfig, baseline_solve, dps_direction, ncs_solve, solve

__version__ = "0.1.0"
