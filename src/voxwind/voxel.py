"""Heightmaps, solid-column voxel grids, and their file formats.

Grids are indexed ``[x, y]`` with shape ``(width, length)``; x is the
along-flow axis. A column of height h occupies voxels z = 0 .. h-1, so the
model is solid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYNTH_SHAPES = ("flat", "box", "wedge", "half-cylinder")

GRID_CSV_HEADER = "width,length,h_max,voxel_size"
MASK_CSV_HEADER = "width,length"


class PgmParseError(ValueError):
    """Malformed PGM input; messages include the offending byte offset."""


def round_half_away(x):
    """Round to the nearest integer with halves going away from zero.

    Fixed here (rather than numpy's round-half-even) so grid edits are
    bit-exact across platforms.
    """
    x = np.asarray(x, dtype=np.float64)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


@dataclass
class HeightMap:
    """Normalized elevation field; values[x, y] in [0, 1]."""

    width: int
    length: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.width < 1 or self.length < 1:
            raise ValueError("heightmap dimensions must be at least 1x1")
        if self.values.shape != (self.width, self.length):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"({self.width}, {self.length})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("heightmap values must be finite")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise ValueError("heightmap values must lie in [0, 1]")


@dataclass
class VoxelGrid:
    """Solid-column voxel model: cell (x, y, z) is occupied iff z < column_heights[x, y]."""

    width: int
    length: int
    h_max: int
    voxel_size: float
    column_heights: np.ndarray

    def __post_init__(self):
        self.column_heights = np.asarray(self.column_heights, dtype=np.int64)
        if self.width < 1 or self.length < 1:
            raise ValueError("grid dimensions must be at least 1x1")
        if self.h_max < 1:
            raise ValueError("h_max must be at least 1")
        if self.voxel_size <= 0.0:
            raise ValueError("voxel_size must be positive")
        if self.column_heights.shape != (self.width, self.length):
            raise ValueError(
                f"column_heights shape {self.column_heights.shape} does not "
                f"match ({self.width}, {self.length})"
            )
        if self.column_heights.min() < 0 or self.column_heights.max() > self.h_max:
            raise ValueError("column heights must lie in [0, h_max]")

    def copy(self) -> "VoxelGrid":
        return VoxelGrid(
            self.width, self.length, self.h_max, self.voxel_size,
            self.column_heights.copy(),
        )

    def is_occupied(self, x: int, y: int, z: int) -> bool:
        if not (0 <= x < self.width and 0 <= y < self.length and 0 <= z < self.h_max):
            return False
        return z < int(self.column_heights[x, y])


@dataclass
class VoxelMask:
    """Per-column immutability flags; True marks a column edits may not touch."""

    frozen: np.ndarray

    def __post_init__(self):
        self.frozen = np.asarray(self.frozen, dtype=bool)
        if self.frozen.ndim != 2:
            raise ValueError("mask must be a 2D boolean grid")

    @classmethod
    def none(cls, width: int, length: int) -> "VoxelMask":
        return cls(np.zeros((width, length), dtype=bool))


# --- PGM I/O ---------------------------------------------------------------

_WS_SET = frozenset(b" \t\r\n\v\f")


def _next_token(data: bytes, pos: int):
    """Skip whitespace and # comments; return (token, token_offset, next_pos)."""
    n = len(data)
    while pos < n:
        b = data[pos]
        if b in _WS_SET:
            pos += 1
        elif b == 0x23:  # '#' comment runs to end of line
            while pos < n and data[pos] != 0x0A:
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmParseError(f"unexpected end of input at byte {n}")
    start = pos
    while pos < n and data[pos] not in _WS_SET and data[pos] != 0x23:
        pos += 1
    return data[start:pos], start, pos


def load_heightmap(data: bytes) -> HeightMap:
    """Parse PGM bytes (ascii P2 or binary P5) into a HeightMap.

    maxval must be 255 or 65535; stored values are pixel/maxval. Raises
    PgmParseError naming a byte offset on malformed headers, truncated
    payloads, or out-of-range pixels.
    """
    data = bytes(data)
    magic, off, pos = _next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"unsupported magic {magic!r} at byte {off}")
    dims = []
    for name in ("width", "height", "maxval"):
        tok, toff, pos = _next_token(data, pos)
        if not tok.isdigit():
            raise PgmParseError(f"non-numeric {name} {tok!r} at byte {toff}")
        dims.append((int(tok), toff))
    (width, woff), (height, _), (maxval, moff) = dims
    if width < 1 or height < 1:
        raise PgmParseError(f"degenerate dimensions {width}x{height} at byte {woff}")
    if maxval not in (255, 65535):
        raise PgmParseError(
            f"unsupported maxval {maxval} at byte {moff} (expected 255 or 65535)"
        )
    count = width * height
    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WS_SET:
            raise PgmParseError(f"missing whitespace after maxval at byte {pos}")
        payload = data[pos + 1:]
        itemsize = 1 if maxval == 255 else 2
        need = count * itemsize
        if len(payload) < need:
            raise PgmParseError(
                f"truncated pixel payload at byte {len(data)}: "
                f"need {need} bytes after header, have {len(payload)}"
            )
        dtype = np.uint8 if itemsize == 1 else np.dtype(">u2")
        pixels = np.frombuffer(payload[:need], dtype=dtype).astype(np.float64)
    else:
        pixels = np.empty(count, dtype=np.float64)
        for i in range(count):
            tok, toff, pos = _next_token(data, pos)
            if not tok.isdigit():
                raise PgmParseError(f"non-numeric pixel {tok!r} at byte {toff}")
            v = int(tok)
            if v > maxval:
                raise PgmParseError(
                    f"pixel value {v} exceeds maxval {maxval} at byte {toff}"
                )
            pixels[i] = v
    values = (pixels / maxval).reshape(height, width).T
    return HeightMap(width=width, length=height, values=values)


def write_pgm(pixels, maxval: int = 255, binary: bool = True) -> bytes:
    """Serialize an integer pixel grid indexed [x, y] as PGM bytes."""
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    pix = np.asarray(pixels, dtype=np.int64)
    if pix.ndim != 2:
        raise ValueError("pixels must be a 2D grid")
    if pix.min() < 0 or pix.max() > maxval:
        raise ValueError(f"pixel values must lie in [0, {maxval}]")
    rows = pix.T  # file rows run along y
    magic = "P5" if binary else "P2"
    header = f"{magic}\n{pix.shape[0]} {pix.shape[1]}\n{maxval}\n".encode("ascii")
    if binary:
        dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
        return header + np.ascontiguousarray(rows).astype(dtype).tobytes()
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in rows)
    return header + body.encode("ascii") + b"\n"


def write_heightmap_pgm(hm: HeightMap, maxval: int = 255, binary: bool = True) -> bytes:
    """Quantize a HeightMap back to PGM; value v maps to round(v * maxval)."""
    return write_pgm(round_half_away(hm.values * maxval), maxval=maxval, binary=binary)


# --- construction and edits --------------------------------------------------


def synth_heightmap(shape: str, width: int, length: int, amplitude: float = 1.0) -> HeightMap:
    """Deterministic analytic surfaces standing in for real scanned bodies.

    flat: all zeros. box: constant plateau at `amplitude`. wedge: linear ramp
    rising along +x to `amplitude`. half-cylinder: circular arch along x with
    its axis across the flow.
    """
    if shape not in SYNTH_SHAPES:
        raise ValueError(f"unknown shape {shape!r}; expected one of {SYNTH_SHAPES}")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must lie in [0, 1]")
    if width < 1 or length < 1:
        raise ValueError("dimensions must be at least 1x1")
    if shape == "flat":
        values = np.zeros((width, length))
    elif shape == "box":
        values = np.full((width, length), float(amplitude))
    elif shape == "wedge":
        ramp = amplitude * np.arange(width, dtype=np.float64) / max(width - 1, 1)
        values = np.repeat(ramp[:, None], length, axis=1)
    else:  # half-cylinder
        u = np.zeros(1) if width == 1 else np.linspace(-1.0, 1.0, width)
        arch = amplitude * np.sqrt(np.clip(1.0 - u * u, 0.0, 1.0))
        values = np.repeat(arch[:, None], length, axis=1)
    return HeightMap(width=width, length=length, values=values)


def voxelise(hm: HeightMap, h_max: int, voxel_size: float) -> VoxelGrid:
    """Convert normalized elevations to integer column heights: round(v * h_max).
    VoxelGrid rejects h_max < 1 and voxel_size <= 0."""
    heights = round_half_away(hm.values * h_max)
    return VoxelGrid(hm.width, hm.length, int(h_max), float(voxel_size), heights)


def apply_height_delta(grid: VoxelGrid, deltas, mask: VoxelMask | None = None) -> VoxelGrid:
    """Return a new grid with per-column deltas applied.

    Unmasked columns become clamp(round(height + delta), 0, h_max); masked
    columns are untouched. Value semantics: the input grid is never mutated.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != grid.column_heights.shape:
        raise ValueError(
            f"delta shape {deltas.shape} does not match grid "
            f"({grid.width}, {grid.length})"
        )
    if mask is not None and mask.frozen.shape != grid.column_heights.shape:
        raise ValueError(
            f"mask shape {mask.frozen.shape} does not match grid "
            f"({grid.width}, {grid.length})"
        )
    new_heights = np.clip(round_half_away(grid.column_heights + deltas), 0, grid.h_max)
    if mask is not None:
        new_heights = np.where(mask.frozen, grid.column_heights, new_heights)
    return VoxelGrid(grid.width, grid.length, grid.h_max, grid.voxel_size, new_heights)


def heightmap_sum(grid: VoxelGrid) -> int:
    """Total of all column heights, in voxels."""
    return int(grid.column_heights.sum())


# --- CSV formats -------------------------------------------------------------


def grid_to_csv(grid: VoxelGrid) -> str:
    lines = [
        GRID_CSV_HEADER,
        f"{grid.width},{grid.length},{grid.h_max},{grid.voxel_size!r}",
    ]
    lines.extend(",".join(str(int(v)) for v in row) for row in grid.column_heights)
    return "\n".join(lines) + "\n"


def grid_from_csv(text: str) -> VoxelGrid:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != GRID_CSV_HEADER:
        raise ValueError(f"grid csv: first line must be '{GRID_CSV_HEADER}'")
    if len(lines) < 2:
        raise ValueError("grid csv: missing dimension row")
    parts = lines[1].split(",")
    if len(parts) != 4:
        raise ValueError(f"grid csv: dimension row needs 4 fields, got {len(parts)}")
    try:
        width, length, h_max = int(parts[0]), int(parts[1]), int(parts[2])
        voxel_size = float(parts[3])
    except ValueError as exc:
        raise ValueError(f"grid csv: bad dimension row: {exc}") from exc
    rows = lines[2:]
    if len(rows) != width:
        raise ValueError(f"grid csv: expected {width} height rows, got {len(rows)}")
    heights = np.empty((width, length), dtype=np.int64)
    for x, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != length:
            raise ValueError(
                f"grid csv: row {x} has {len(cells)} cells, expected {length}"
            )
        try:
            heights[x] = [int(c) for c in cells]
        except ValueError as exc:
            raise ValueError(f"grid csv: row {x}: {exc}") from exc
    return VoxelGrid(width, length, h_max, voxel_size, heights)


def mask_to_csv(mask: VoxelMask) -> str:
    w, l = mask.frozen.shape
    lines = [MASK_CSV_HEADER, f"{w},{l}"]
    lines.extend(",".join("1" if v else "0" for v in row) for row in mask.frozen)
    return "\n".join(lines) + "\n"


def mask_from_csv(text: str) -> VoxelMask:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != MASK_CSV_HEADER:
        raise ValueError(f"mask csv: first line must be '{MASK_CSV_HEADER}'")
    if len(lines) < 2:
        raise ValueError("mask csv: missing dimension row")
    try:
        width, length = (int(p) for p in lines[1].split(","))
    except ValueError as exc:
        raise ValueError(f"mask csv: bad dimension row: {exc}") from exc
    rows = lines[2:]
    if len(rows) != width:
        raise ValueError(f"mask csv: expected {width} rows, got {len(rows)}")
    frozen = np.empty((width, length), dtype=bool)
    for x, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != length:
            raise ValueError(f"mask csv: row {x} has {len(cells)} cells, expected {length}")
        for y, cell in enumerate(cells):
            if cell not in ("0", "1"):
                raise ValueError(f"mask csv: row {x} column {y}: cell {cell!r} is not 0 or 1")
        frozen[x] = [c == "1" for c in cells]
    return VoxelMask(frozen)
