"""Pseudo-spectral verification toolkit for the frequency-localized
identities behind Liouville-type statements about stationary
(fractional) Navier-Stokes flows, on a discrete periodic 3-torus."""

__version__ = "0.1.0"

from .spectral import (
    SpectralField,
    TorusGrid,
    VectorField,
    divergence,
    fractional_laplacian,
    gradient,
    leray_project,
    set_fft_workers,
    transform_forward,
    transform_inverse,
)
from .dyadic import (
    DEFAULT_PROFILE,
    DyadicProfile,
    DyadicWindow,
    band,
    bernstein_check,
    block,
    lowpass,
    tail,
    tilde_block,
)
from .products import advective_term, pressure_from_velocity, product, trilinear
from .norms import (
    besov_infty_norm,
    dirichlet,
    fractional_dirichlet,
    lp_norm,
    sobolev_norm,
    spectral_lr_ball,
)
from .snapshot import snapshot_read, snapshot_write

__all__ = [name for name in dir() if not name.startswith("_")]
