"""prunelab: pruning schemes on randomly synthesized networks, with the
spectral-norm machinery to verify the bound calculus empirically."""

from .circulant import (
    build_block,
    build_full_map,
    circ,
    conv2d_wrap,
    flatten_maps,
    pad_kernel,
    spectral_norm_via_dft,
    unflatten_maps,
    wrap_index,
)
from .estimators import (
    Lemma3Row,
    LatalaRow,
    delta0_from_quantile,
    estimate_latala,
    estimate_lemma3,
)
from .linalg import ConvergenceError, spectral_norm
from .networks import (
    Activation,
    CnnModel,
    FcnModel,
    MaskSet,
    activation,
    all_ones_masks,
    compression_ratio,
    estimate_sup_gap,
    expand_filter_mask,
    forward_cnn,
    forward_fcn,
    load_model,
    save_model,
)
from .pruning import (
    PruneSpec,
    build_mask,
    filter_prune_count,
    mask_filter_random,
    mask_magnitude_global,
    mask_magnitude_layerwise,
    mask_random_with_replacement,
    mask_random_without_replacement,
    prune_count,
)
from .sampling import (
    DistributionSpec,
    SeedSpec,
    gaussian_variance,
    sample_matrix,
    sample_unit_cube,
    sample_unit_sphere,
    uniform_variance,
    xavier_uniform,
)
from .theory import (
    BoundReport,
    TheoremConstants,
    balls_in_bins_check,
    balls_in_bins_exact,
    chernoff_upper,
    order_stat_moment,
    order_stat_moment_exact,
    thm1_width_bound,
    thm2_alpha_constraints,
    thm2_alpha_limits,
    thm2_probability,
    thm3_alpha_constraint,
    thm3_probability,
    thm3_rhs,
)

__version__ = "0.1.0"
