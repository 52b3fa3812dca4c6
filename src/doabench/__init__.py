"""Direction-of-arrival estimation workbench.

Simulates uniform-linear-array snapshot data, runs the classical
covariance-based estimators (MUSIC, Root-MUSIC, l2,1-SVD), trains a
convolutional multi-label classifier on covariance channels, and benchmarks
everything with reproducible Monte-Carlo presets (RMSE, Hausdorff distance,
confusion matrices, CRLB).
"""

__version__ = "0.1.0"

from .arraymodel import (
    GridSpec,
    SourceScene,
    UlaGeometry,
    build_input_channels,
    decode_label,
    encode_label,
    manifold,
    sample_covariance,
    simulate_snapshots,
    snr_db,
    steering_vector,
    true_covariance,
)
from .crlb import crlb_unconditional
from .estimators import (
    BpdnConfig,
    dimensionality_reduce,
    l21_svd,
    music_spectrum,
    noise_subspace,
    pick_peaks,
    root_music,
)
from .metrics import confusion, hausdorff, rmse
from .numerics import complex_svd, hermitian_eig, polynomial_roots

__all__ = [
    "BpdnConfig",
    "GridSpec",
    "SourceScene",
    "UlaGeometry",
    "build_input_channels",
    "complex_svd",
    "confusion",
    "crlb_unconditional",
    "decode_label",
    "dimensionality_reduce",
    "encode_label",
    "hausdorff",
    "hermitian_eig",
    "l21_svd",
    "manifold",
    "music_spectrum",
    "noise_subspace",
    "pick_peaks",
    "polynomial_roots",
    "rmse",
    "root_music",
    "sample_covariance",
    "simulate_snapshots",
    "snr_db",
    "steering_vector",
    "true_covariance",
]
