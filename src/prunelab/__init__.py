"""prunelab: pruning schemes on randomly synthesized networks, with the
spectral-norm machinery to verify the bound calculus empirically."""

__version__ = "0.1.0"
