"""Binary model checkpoints.

Layout: magic ``DOAC``, version u32, a length-prefixed UTF-8 JSON metadata
block (which also serializes the layer descriptors), then one tagged block
per parameter array: layer index u32, key length u16 + key, ndim u8,
dims u32 each, raw little-endian float64 data. A 0xFFFFFFFF layer index
terminates the stream. Round-trips are bit exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np

from ..arraymodel import FileFormatError
from .network import LAYER_KINDS, NetworkSpec

__all__ = ["save_checkpoint", "load_checkpoint"]

_MAGIC = b"DOAC"
_VERSION = 1
_END = 0xFFFFFFFF


def _spec_to_dict(spec: NetworkSpec) -> dict:
    layers = [{"kind": layer.kind, **dataclasses.asdict(layer)} for layer in spec.layers]
    return {"input_shape": list(spec.input_shape), "layers": layers}


def _spec_from_dict(d: dict) -> NetworkSpec:
    layers = []
    for entry in d["layers"]:
        fields = dict(entry)
        kind = fields.pop("kind", None)
        if kind not in LAYER_KINDS:
            raise FileFormatError(f"unknown layer kind {kind!r} in checkpoint")
        if set(fields) != {f.name for f in dataclasses.fields(LAYER_KINDS[kind])}:
            raise FileFormatError(f"checkpoint layer {entry!r} does not have the {kind} fields")
        layers.append(LAYER_KINDS[kind](**fields))
    return NetworkSpec(tuple(d["input_shape"]), tuple(layers))


def save_checkpoint(path, spec: NetworkSpec, params: list[dict], metadata: dict | None = None) -> None:
    meta = dict(metadata or {})
    meta["network"] = _spec_to_dict(spec)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        for layer_idx, block in enumerate(params):
            for key in sorted(block):
                arr = np.ascontiguousarray(block[key], dtype=np.float64)
                key_bytes = key.encode("ascii")
                fh.write(struct.pack("<IH", layer_idx, len(key_bytes)))
                fh.write(key_bytes)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.astype("<f8").tobytes())
        fh.write(struct.pack("<I", _END))


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise FileFormatError("truncated checkpoint file")
    return data


def load_checkpoint(path):
    """Read a checkpoint; returns ``(spec, params, metadata)``."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != _MAGIC:
            raise FileFormatError("not a model checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != _VERSION:
            raise FileFormatError(f"unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4))
        try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
            metadata = json.loads(_read_exact(fh, meta_len).decode("utf-8"))
            if not isinstance(metadata, dict):
                raise TypeError("the metadata block is not a JSON object")
            spec = _spec_from_dict(metadata.pop("network"))
        except FileFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(
                f"checkpoint has a malformed network description ({type(exc).__name__}: {exc})"
            ) from exc
        # Block shapes come from the spec; None marks a block not read yet.
        shapes = spec.param_shapes()
        params = [dict.fromkeys(block) for block in shapes]
        while True:
            (layer_idx,) = struct.unpack("<I", _read_exact(fh, 4))
            if layer_idx == _END:
                break
            (key_len,) = struct.unpack("<H", _read_exact(fh, 2))
            key = _read_exact(fh, key_len).decode("ascii")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
            # The header is checked against the spec before the payload is
            # read, so corrupt dims never size a read.
            if layer_idx >= len(shapes) or key not in shapes[layer_idx]:
                raise FileFormatError(
                    f"checkpoint block layer {layer_idx} key {key!r} does not match the spec"
                )
            if shapes[layer_idx][key] != shape:
                raise FileFormatError(
                    f"checkpoint block layer {layer_idx} key {key!r} has shape "
                    f"{shape}, expected {shapes[layer_idx][key]}"
                )
            arr = np.frombuffer(_read_exact(fh, 8 * math.prod(shape)), dtype="<f8").reshape(shape)
            params[layer_idx][key] = arr.astype(np.float64)
    if any(value is None for block in params for value in block.values()):
        raise FileFormatError("checkpoint is missing parameter blocks")
    return spec, params, metadata
