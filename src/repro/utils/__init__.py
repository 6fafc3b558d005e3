"""Shared utilities: RNG handling, parameter initializers, timing helpers."""

from repro.utils.initializers import (
    constant_init,
    gaussian_init,
    xavier_init,
    zeros_init,
)
from repro.utils.rng import get_rng, seed_all
from repro.utils.shapes import conv_output_dim, pool_output_dim
from repro.utils.timing import TimingStats, measure_median

__all__ = [
    "TimingStats",
    "constant_init",
    "conv_output_dim",
    "gaussian_init",
    "get_rng",
    "measure_median",
    "pool_output_dim",
    "seed_all",
    "xavier_init",
    "zeros_init",
]
