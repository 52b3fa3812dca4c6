"""Named workbench configurations.

``paper`` is the full-scale configuration (16-sensor array, 121-point grid,
256 filters, 4096/2048/1024-wide dense layers, ~28M parameters); ``small``
is a desk-scale configuration with the same 24-layer pattern that a CPU can
train in minutes (8 sensors, 61-point grid, 16 filters). The first
convolution of the small profile uses stride 1 because stride 2 would shrink
an 8x8 input to nothing by the fourth convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arraymodel import GridSpec, UlaGeometry
from .nn import (
    BatchNormSpec,
    Conv2DSpec,
    DenseSpec,
    DropoutSpec,
    FlattenSpec,
    NetworkSpec,
    ReluSpec,
    SigmoidSpec,
)

__all__ = ["Profile", "PROFILES", "build_network_spec"]


@dataclass(frozen=True)
class Profile:
    name: str
    geom: UlaGeometry
    grid: GridSpec
    n_filters: int
    dense_widths: tuple[int, int, int]
    conv1_stride: int
    fixed_k: int
    fixed_snrs_db: tuple[float, ...]
    mixed_k_max: int
    mixed_snrs_db: tuple[float, ...]
    epochs: int


PROFILES: dict[str, Profile] = {
    "paper": Profile(
        name="paper",
        geom=UlaGeometry(16, 0.5),
        grid=GridSpec(60.0, 1.0),
        n_filters=256,
        dense_widths=(4096, 2048, 1024),
        conv1_stride=2,
        fixed_k=2,
        fixed_snrs_db=(-20.0, -15.0, -10.0, -5.0, 0.0),
        mixed_k_max=3,
        mixed_snrs_db=(-10.0, 0.0),
        epochs=200,
    ),
    "small": Profile(
        name="small",
        geom=UlaGeometry(8, 0.5),
        grid=GridSpec(30.0, 1.0),
        n_filters=16,
        dense_widths=(256, 128, 64),
        conv1_stride=1,
        fixed_k=2,
        fixed_snrs_db=(-15.0, -10.0, -5.0),
        mixed_k_max=2,
        mixed_snrs_db=(0.0,),
        epochs=100,
    ),
}


def build_network_spec(profile: Profile) -> NetworkSpec:
    """The 24-layer architecture for a profile.

    Four convolution blocks (each convolution, batch norm, ReLU), a flatten,
    three dense blocks (dense, ReLU, dropout 0.2), the output dense layer and
    a sigmoid. The first convolution has a 3x3 kernel; the rest are 2x2 with
    stride 1.
    """
    n = profile.geom.n_sensors
    out = profile.grid.n_points
    f = profile.n_filters
    d1, d2, d3 = profile.dense_widths
    layers = (
        Conv2DSpec(f, 3, profile.conv1_stride), BatchNormSpec(), ReluSpec(),
        Conv2DSpec(f, 2, 1), BatchNormSpec(), ReluSpec(),
        Conv2DSpec(f, 2, 1), BatchNormSpec(), ReluSpec(),
        Conv2DSpec(f, 2, 1), BatchNormSpec(), ReluSpec(),
        FlattenSpec(),
        DenseSpec(d1), ReluSpec(), DropoutSpec(0.2),
        DenseSpec(d2), ReluSpec(), DropoutSpec(0.2),
        DenseSpec(d3), ReluSpec(), DropoutSpec(0.2),
        DenseSpec(out), SigmoidSpec(),
    )
    return NetworkSpec((n, n, 3), layers)
