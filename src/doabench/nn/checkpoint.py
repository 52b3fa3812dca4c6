"""Binary model checkpoints.

Layout (version 2): magic ``DOAC``, version u32, a length-prefixed UTF-8 JSON
metadata block (which also serializes the layer descriptors), then every
parameter array as raw little-endian float64 data, in the order of
``NetworkSpec.param_shapes()`` (layer by layer, then key by key), up to the
end of the file. The JSON network description alone fixes every array's
shape, so the arrays carry no tags. Round-trips are bit exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct

import numpy as np

from .network import LAYER_KINDS, NetworkSpec

__all__ = ["FileFormatError", "save_checkpoint", "load_checkpoint"]

_MAGIC = b"DOAC"
_VERSION = 2


class FileFormatError(ValueError):
    """A checkpoint file has a bad magic, version, description or length."""


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
    """Write ``params``, which must fit ``spec``, through ``<path>.partial``,
    removed if the save fails, so an earlier file at ``path`` stays untouched."""
    spec.check_params(params)
    meta = dict(metadata or {})
    meta["network"] = _spec_to_dict(spec)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    partial = f"{os.fspath(path)}.partial"
    fh = open(partial, "wb")
    try:
        with fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", _VERSION))
            fh.write(struct.pack("<I", len(meta_bytes)))
            fh.write(meta_bytes)
            for block, shapes in zip(params, spec.param_shapes()):
                for key in shapes:
                    fh.write(np.ascontiguousarray(block[key], dtype="<f8"))
        os.replace(partial, path)
    except BaseException:
        os.remove(partial)
        raise


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
        # The payload size is checked before any of it is read, so a corrupt
        # description never sizes a read.
        shapes = spec.param_shapes()
        size = 8 * sum(math.prod(shape) for block in shapes for shape in block.values())
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != size:
            raise FileFormatError(f"checkpoint parameters are not the {size} bytes its "
                                  f"network description needs: {left} bytes follow the metadata")
        params = [{key: np.frombuffer(_read_exact(fh, 8 * math.prod(shape)), dtype="<f8")
                   .reshape(shape).astype(np.float64) for key, shape in block.items()}
                  for block in shapes]
    return spec, params, metadata
