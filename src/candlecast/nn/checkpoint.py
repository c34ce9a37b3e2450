"""Named-tensor checkpoints: versioned text header plus little-endian
float64 payloads, written in sorted-name order for byte determinism."""
from __future__ import annotations

import numpy as np

from ..errors import ArtifactError
from ..framing import (header_value, parse_header, parse_shape, read_framed,
                       split_payload, write_framed)
from .tensor import Tensor

_MAGIC = "candlecast-checkpoint v1"


def save_checkpoint(params: dict, path) -> None:
    """``params`` maps name -> Tensor or ndarray; names must be unique and
    may not contain '=' or newlines."""
    header, arrays = [], []
    for name in sorted(params):
        if "=" in name or "\n" in name or not name:
            raise ArtifactError(f"bad parameter name {name!r}")
        value = params[name]
        data = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
        header.append(f"{name}={','.join(str(d) for d in data.shape)}")
        arrays.append((data, "<f8"))
    write_framed(path, _MAGIC, [f"count={len(arrays)}", *header], arrays)


def load_checkpoint(path) -> dict:
    """Returns name -> float64 ndarray, exactly as saved."""
    lines, payload = read_framed(path, _MAGIC, "parameter checkpoint")
    count = parse_header(path, lines[:1], ("count",))[0]["count"]
    if len(lines) - 1 != count:
        raise ArtifactError(f"{path}: header lists {len(lines) - 1} tensors, expected {count}")
    _, shapes = parse_header(path, lines[1:])
    layout = [("<f8", header_value(path, name, shape, parse_shape)) for name, shape in shapes]
    return dict(zip((name for name, _ in shapes), split_payload(path, payload, layout)))


def restore_parameters(params: dict, state: dict) -> None:
    """Copy checkpoint arrays into live tensors, matching by name and shape."""
    missing = sorted(set(p for p in params) - set(state))
    if missing:
        raise ArtifactError(f"checkpoint is missing parameters {missing!r}")
    for name, tensor in params.items():
        data = state[name]
        if data.shape != tensor.data.shape:
            raise ArtifactError(f"{name}: checkpoint shape {data.shape} != model {tensor.data.shape}")
        tensor.data = data.astype(np.float64).copy()
