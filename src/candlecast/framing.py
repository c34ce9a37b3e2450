"""Framed binary artifacts shared by checkpoints and window datasets.

Layout: a magic line, text header lines, one blank line, then the arrays
back to back as raw little-endian bytes.  The header must say enough to
recover every array's dtype and shape, and the payload length has to match
it exactly.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ArtifactError


def write_framed(path, magic: str, header: list, arrays: list) -> None:
    """``arrays`` holds (array, dtype) pairs, dtype a little-endian code
    such as ``"<f8"``."""
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in [magic, *header, ""]).encode())
        for arr, dtype in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def read_framed(path, magic: str, what: str) -> tuple:
    """Returns (header lines after the magic line, payload bytes)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    cut = blob.find(b"\n\n")
    if cut < 0 or not blob.startswith(magic.encode()):
        raise ArtifactError(f"{path} is not a {what}")
    try:
        header = blob[:cut].decode()
    except UnicodeDecodeError:
        raise ArtifactError(f"{path}: header is not text") from None
    return header.split("\n")[1:], blob[cut + 2:]


def split_payload(path, payload: bytes, layout: list) -> list:
    """Cut the payload into fresh arrays; ``layout`` holds (dtype, shape)
    pairs in payload order."""
    dtypes = [np.dtype(dtype) for dtype, _ in layout]
    sizes = [math.prod(shape) for _, shape in layout]
    expected = sum(d.itemsize * size for d, size in zip(dtypes, sizes))
    if len(payload) != expected:
        kind = "truncated" if len(payload) < expected else "oversized"
        raise ArtifactError(f"{path}: {kind} payload of {len(payload)} bytes, "
                            f"expected {expected}")
    out, offset = [], 0
    for dtype, size, (_, shape) in zip(dtypes, sizes, layout):
        out.append(np.frombuffer(payload, dtype=dtype, count=size, offset=offset)
                   .reshape(shape).copy())
        offset += dtype.itemsize * size
    return out
