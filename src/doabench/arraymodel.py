"""Uniform-linear-array signal model.

Geometry and steering vectors, true and sample covariance matrices, seeded
snapshot simulation, SNR accounting, and the covariance-channel encoding
consumed by the classifier. All types are immutable value objects and all
operations are pure, so everything is safe to share across threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FileFormatError",
    "UlaGeometry",
    "SourceScene",
    "GridSpec",
    "check_source_count",
    "steering_vector",
    "manifold",
    "true_covariance",
    "ensemble_covariance",
    "simulate_snapshots",
    "sample_covariance",
    "snr_db",
    "build_input_channels",
    "save_snapshots",
    "load_snapshots",
]

_SNAPSHOT_MAGIC = b"DOAS"
_SNAPSHOT_VERSION = 1

# On-grid angles must coincide with a grid point within this many degrees.
GRID_MATCH_TOL_DEG = 1e-9


class FileFormatError(ValueError):
    """A binary container file has a bad magic, version or length."""


def check_source_count(k: int, n_sensors: int, least: int = 0) -> None:
    """Raise unless ``least <= k < n_sensors``: N sensors identify at most N - 1 sources."""
    if not least <= k < n_sensors:
        raise ValueError(f"{k} sources are not identifiable with {n_sensors} sensors "
                         f"(need {least} <= K < {n_sensors})")


@dataclass(frozen=True)
class UlaGeometry:
    """Uniform linear array: sensor count and element spacing in wavelengths."""

    n_sensors: int
    spacing_ratio: float = 0.5

    def __post_init__(self):
        if self.n_sensors < 2:
            raise ValueError("a ULA needs at least 2 sensors")
        if not self.spacing_ratio > 0:
            raise ValueError("element spacing must be positive")


@dataclass(frozen=True)
class SourceScene:
    """Ground-truth source directions, per-source powers and the noise power.

    Directions are in degrees, strictly inside (-90, 90), and pairwise
    distinct. ``source_powers[k]`` is the variance of the k-th source signal;
    ``noise_power`` is the per-sensor noise variance.
    """

    doas_deg: tuple[float, ...]
    source_powers: tuple[float, ...]
    noise_power: float

    def __post_init__(self):
        doas = tuple(float(a) for a in self.doas_deg)
        powers = tuple(float(p) for p in self.source_powers)
        object.__setattr__(self, "doas_deg", doas)
        object.__setattr__(self, "source_powers", powers)
        object.__setattr__(self, "noise_power", float(self.noise_power))
        if len(doas) != len(powers):
            raise ValueError("need one power per source direction")
        if len(set(doas)) != len(doas):
            raise ValueError("source directions must be pairwise distinct")
        for a in doas:
            if not abs(a) < 90.0:
                raise ValueError(f"direction {a} deg outside the open interval (-90, 90)")
        for p in powers:
            if not 0.0 < p < np.inf:
                raise ValueError(f"source powers must be positive and finite, got {p}")
        if not 0.0 <= self.noise_power < np.inf:
            raise ValueError(
                f"noise power must be a finite non-negative number, got {self.noise_power}"
            )

    @property
    def n_sources(self) -> int:
        return len(self.doas_deg)


@dataclass(frozen=True)
class GridSpec:
    """Symmetric angular grid of ``2G + 1`` points with spacing ``resolution_deg``.

    Point ``i`` is exactly ``-phi_max_deg + i * resolution_deg``; the extreme
    points are ``-phi_max_deg`` and ``+phi_max_deg``.
    """

    phi_max_deg: float
    resolution_deg: float

    def __post_init__(self):
        if not self.resolution_deg > 0:
            raise ValueError("grid resolution must be positive")
        if not 0 < self.phi_max_deg < 90:
            raise ValueError("grid extent must lie strictly inside (0, 90) degrees")
        g = self.phi_max_deg / self.resolution_deg
        if abs(g - round(g)) > 1e-9:
            raise ValueError("phi_max_deg must be an integer multiple of resolution_deg")

    @property
    def half_count(self) -> int:
        return int(round(self.phi_max_deg / self.resolution_deg))

    @property
    def n_points(self) -> int:
        return 2 * self.half_count + 1

    @cached_property
    def points(self) -> np.ndarray:
        """The grid angles, made once per grid and read-only, since grids are shared."""
        points = -self.phi_max_deg + np.arange(self.n_points) * self.resolution_deg
        points.flags.writeable = False
        return points

    def index_of(self, angle_deg: float) -> int:
        """Grid index of an on-grid angle; raises for off-grid angles."""
        i = int(round((angle_deg + self.phi_max_deg) / self.resolution_deg))
        if i < 0 or i >= self.n_points:
            raise ValueError(f"angle {angle_deg} deg outside the grid")
        if abs(-self.phi_max_deg + i * self.resolution_deg - angle_deg) > GRID_MATCH_TOL_DEG:
            raise ValueError(f"angle {angle_deg} deg does not coincide with a grid point")
        return i


def steering_vector(geom: UlaGeometry, theta_deg: float) -> np.ndarray:
    """Array response to a unit plane wave from ``theta_deg``.

    Entry ``n`` is ``exp(1j * 2*pi * spacing_ratio * sin(theta) * n)``,
    so every entry has unit modulus and entry 0 equals 1.
    """
    return manifold(geom, [theta_deg])[:, 0]


def manifold(geom: UlaGeometry, thetas_deg) -> np.ndarray:
    """N x K matrix whose k-th column is the steering vector of ``thetas_deg[k]``."""
    thetas = np.atleast_1d(np.asarray(thetas_deg, dtype=np.float64))
    if len(set(thetas.tolist())) != thetas.size:
        raise ValueError("manifold angles must be pairwise distinct")
    outside = thetas[~(np.abs(thetas) < 90.0)]
    if outside.size:
        raise ValueError(f"direction {outside[0]} deg outside the open interval (-90, 90)")
    return _steering(geom, thetas)


def _steering(geom: UlaGeometry, doas_deg) -> np.ndarray:
    """Steering vectors of (..., K) directions in degrees as the columns of (..., N, K)."""
    phase_step = 2.0 * np.pi * geom.spacing_ratio * np.sin(np.deg2rad(np.asarray(doas_deg, float)))
    steering = np.exp((1j * phase_step)[..., None] * np.arange(geom.n_sensors))
    return np.ascontiguousarray(np.swapaxes(steering, -1, -2))


def true_covariance(geom: UlaGeometry, scene: SourceScene) -> np.ndarray:
    """Ensemble covariance ``A @ diag(powers) @ A^H + noise_power * I``.

    Built as ``B @ B^H`` with ``B = A @ diag(sqrt(powers))`` so the result is
    exactly Hermitian in floating point.
    """
    check_source_count(scene.n_sources, geom.n_sensors)
    return ensemble_covariance(geom, scene.doas_deg, scene.source_powers, scene.noise_power)


def ensemble_covariance(geom: UlaGeometry, doas_deg, source_powers, noise_power) -> np.ndarray:
    """:func:`true_covariance`, unvalidated, of one scene or of a stack of
    scenes with K sources each: (..., K) directions and powers, (...) noise."""
    b = _steering(geom, doas_deg) * np.sqrt(np.asarray(source_powers, float))[..., None, :]
    noise = np.asarray(noise_power, float)[..., None, None]
    return b @ np.swapaxes(b.conj(), -1, -2) + noise * np.eye(geom.n_sensors, dtype=np.complex128)


def simulate_snapshots(
    geom: UlaGeometry, scene: SourceScene, t_snapshots: int, seed: int
) -> np.ndarray:
    """Draw ``t_snapshots`` array snapshots ``y(t) = A s(t) + e(t)`` as the
    columns of an N x T complex matrix.

    Source amplitudes are i.i.d. circularly-symmetric complex Gaussian with
    the scene's per-source variances; noise is white complex Gaussian with
    variance ``noise_power`` per sensor; snapshots are temporally independent.

    One seeded generator drives the whole call. Within each snapshot the
    (real, imaginary) standard-normal pairs are consumed first for the K
    source amplitudes and then for the N noise entries, which fixes the draw
    order to s(1), e(1), s(2), e(2), ... A pair is read as ``z = x + 1j*y``;
    a sample of variance ``v`` is ``(z * (1.0 / np.sqrt(2.0))) * np.sqrt(v)``.
    """
    if t_snapshots < 1:
        raise ValueError("need at least one snapshot")
    n = geom.n_sensors
    k = scene.n_sources
    check_source_count(k, n)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((t_snapshots, 2 * (k + n))).view(np.complex128)
    z *= 1.0 / np.sqrt(2.0)
    y = np.multiply(z[:, k:].T, np.sqrt(scene.noise_power), order="C")  # N x T, C-ordered
    if k:
        y += _steering(geom, scene.doas_deg) @ (z[:, :k] * np.sqrt(scene.source_powers)).T
    return y


def _snapshot_matrix(y) -> np.ndarray:
    """``y`` as a complex N x T snapshot matrix; raises unless 2-D with T >= 1."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 2 or y.shape[1] < 1:
        raise ValueError(f"snapshots must be an N x T matrix with T >= 1, got shape {y.shape}")
    return y


def sample_covariance(y) -> np.ndarray:
    """Sample covariance ``(1/T) sum_t y(t) y(t)^H`` of the snapshot columns of ``y``."""
    y = _snapshot_matrix(y)
    return (y @ y.conj().T) / y.shape[1]


def snr_db(scene: SourceScene) -> float:
    """Scene SNR in dB: ``10 log10(min_k power_k / noise_power)``."""
    if scene.n_sources < 1:
        raise ValueError("SNR is undefined without sources")
    if not scene.noise_power > 0:
        raise ValueError("SNR is infinite for zero noise power")
    return 10.0 * np.log10(min(scene.source_powers) / scene.noise_power)


def build_input_channels(r: np.ndarray) -> np.ndarray:
    """Stack Re, Im and entrywise phase of a covariance into an N x N x 3 tensor
    (of a stack of covariances (..., N, N) into (..., N, N, 3)).

    The phase channel is the four-quadrant arctangent with range (-pi, pi];
    the phase of an exact zero is 0.
    """
    r = np.asarray(r, dtype=np.complex128)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {r.shape}")
    phase = np.angle(r)
    # np.angle maps negative reals with a -0.0 imaginary part to -pi; fold
    # that endpoint back so the range is (-pi, pi].
    phase = np.where(phase == -np.pi, np.pi, phase)
    return np.stack([r.real, r.imag, phase], axis=-1)


def _check_container_shape(n: int, t: int, error: type[ValueError]) -> None:
    """The shape rule of a snapshot container, for the writer and the reader."""
    if n < 2 or t < 1:
        raise error(f"a snapshot container holds at least 2 sensors and 1 snapshot, got {n}x{t}")


def save_snapshots(y, path) -> None:
    """Write an N x T snapshot matrix to the binary container format.

    Layout: magic ``DOAS``, version u32, N u32, T u32 (all little-endian),
    then ``T * N`` complex doubles column-major, i.e. snapshot by snapshot.
    """
    y = _snapshot_matrix(y)
    n, t = y.shape
    _check_container_shape(n, t, ValueError)
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_MAGIC)
        fh.write(struct.pack("<III", _SNAPSHOT_VERSION, n, t))
        fh.write(np.asfortranarray(y).astype("<c16").tobytes(order="F"))


def load_snapshots(path) -> np.ndarray:
    """Read the N x T snapshot matrix written by :func:`save_snapshots`."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:4] != _SNAPSHOT_MAGIC:
            raise FileFormatError("not a snapshot container (bad magic)")
        version, n, t = struct.unpack("<III", header[4:])
        if version != _SNAPSHOT_VERSION:
            raise FileFormatError(f"unsupported snapshot container version {version}")
        _check_container_shape(n, t, FileFormatError)
        payload = fh.read()
    expected = 16 * n * t
    if len(payload) != expected:
        raise FileFormatError(
            f"truncated snapshot container: expected {expected} payload bytes, got {len(payload)}"
        )
    y = np.frombuffer(payload, dtype="<c16").reshape((n, t), order="F")
    return y.astype(np.complex128)
