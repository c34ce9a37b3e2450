"""On-disk layout of every run artifact.

Framed binaries (checkpoints, ``dataset.bin``): a magic line, ``key=value``
header lines, one blank line, then the arrays back to back as raw
little-endian bytes whose length must match the header exactly.  Text
tables: a header line, then comma rows with floats written by ``repr`` so
they read back bit for bit.  JSON: sorted keys, two-space indent, trailing
newline.  Every writer fills a temp file beside its target and then
``os.replace``s it, so a failed write leaves the previous file intact.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import threading

import numpy as np

from .errors import ArtifactError, DataError


@contextlib.contextmanager
def replacing(path, mode: str = "w", newline: str | None = None):
    """Open a temp file beside ``path`` for writing; it replaces ``path``
    when the block finishes and is removed if the block raises."""
    # unique among live writers, so concurrent runs never share a temp file
    temp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(temp, mode, newline=newline) as fh:
            yield fh
        os.replace(temp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)


def write_framed(path, magic: str, header: list, arrays: list) -> None:
    """``arrays`` holds (array, dtype) pairs, dtype a little-endian code
    such as ``"<f8"``."""
    with replacing(path, "wb") as fh:
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


def _count(text: str) -> int:
    if not text.isdecimal():
        raise ValueError(text)
    return int(text)


def parse_shape(text: str) -> tuple:
    """``"2,3"`` -> (2, 3); the empty string is a scalar's shape."""
    return tuple(map(_count, text.split(","))) if text else ()


def header_value(path, key: str, text: str, convert=_count):
    """``convert(text)``, by default a non-negative int; a ValueError
    becomes an ArtifactError naming the field."""
    try:
        return convert(text)
    except ValueError:
        raise ArtifactError(f"{path}: bad header field {key}={text!r}") from None


def parse_header(path, lines: list, counts: tuple = ()) -> tuple:
    """Split ``key=value`` header lines into (a dict of the non-negative int
    fields named in ``counts``, the other (key, value) pairs in order)."""
    fields, rest = {}, []
    for line in lines:
        key, sep, text = line.partition("=")
        if not sep:
            raise ArtifactError(f"{path}: header line {line!r} is not key=value")
        if key in counts:
            fields[key] = header_value(path, key, text)
        else:
            rest.append((key, text))
    missing = [key for key in counts if key not in fields]
    if missing:
        raise ArtifactError(f"{path}: header has no {missing[0]}= field")
    return fields, rest


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


def _cell(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_lines(path, lines) -> None:
    with replacing(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def write_rows(path, header: str, rows) -> None:
    """``header``, then one comma-joined line per row."""
    write_lines(path, itertools.chain([header], (",".join(map(_cell, row)) for row in rows)))


def read_lines(path) -> list:
    """(line number, stripped text) of every non-blank line."""
    with open(path) as fh:
        return [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]


def read_rows(path, header: str, what: str, parse) -> list:
    """``parse(fields)`` of each row of a ``write_rows`` table whose first
    line is ``header``; a short or long row, or a ValueError from
    ``parse``, is a DataError naming the line."""
    lines = read_lines(path)
    if not lines or lines[0][1] != header:
        raise DataError(f"{path}: not a {what} (expected header {header!r})")
    width, out = header.count(",") + 1, []
    for lineno, line in lines[1:]:
        fields = line.split(",")
        try:
            if len(fields) != width:
                raise ValueError(f"{len(fields)} fields, expected {width}")
            out.append(parse(fields))
        except ValueError as exc:
            raise DataError(f"{path} line {lineno}: malformed row {line!r}: {exc}") from None
    return out


def write_json(path, payload) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path, what: str) -> dict:
    """A JSON object; anything else is an ArtifactError."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except ValueError as exc:
        raise ArtifactError(f"unreadable {what} {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ArtifactError(f"unreadable {what} {path}: not a JSON object")
    return payload
