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

# voxelise's largest h_max: up to it, float64 holds every round(v * h_max) exactly
H_MAX_LIMIT = 10 ** 15


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

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError("heightmap dimensions must be at least 1x1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("heightmap values must be finite")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise ValueError("heightmap values must lie in [0, 1]")


@dataclass
class VoxelGrid:
    """Solid-column voxel model: cell (x, y, z) is occupied iff z < column_heights[x, y]."""

    column_heights: np.ndarray
    h_max: int
    voxel_size: float

    def __post_init__(self):
        self.column_heights = np.asarray(self.column_heights, dtype=np.int64)
        if self.column_heights.ndim != 2 or self.column_heights.size == 0:
            raise ValueError("grid dimensions must be at least 1x1")
        if self.h_max < 1:
            raise ValueError("h_max must be at least 1")
        if not 0.0 < self.voxel_size < np.inf:
            raise ValueError(f"voxel_size must be finite and positive, got {self.voxel_size!r}")
        if self.column_heights.min() < 0 or self.column_heights.max() > self.h_max:
            raise ValueError("column heights must lie in [0, h_max]")

    @property
    def width(self) -> int:
        return self.column_heights.shape[0]

    @property
    def length(self) -> int:
        return self.column_heights.shape[1]

    def copy(self) -> "VoxelGrid":
        return VoxelGrid(self.column_heights.copy(), self.h_max, self.voxel_size)


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
    """Parse PGM bytes (plain P2 or raw P5) into a HeightMap.

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
        # built from the pixels actually read, so a header claiming more than
        # the file holds fails at its end rather than allocating the claim
        pixels = []
        for _ in range(count):
            tok, toff, pos = _next_token(data, pos)
            if not tok.isdigit():
                raise PgmParseError(f"non-numeric pixel {tok!r} at byte {toff}")
            v = int(tok)
            if v > maxval:
                raise PgmParseError(
                    f"pixel value {v} exceeds maxval {maxval} at byte {toff}"
                )
            pixels.append(v)
        pixels = np.array(pixels, dtype=np.float64)
    return HeightMap((pixels / maxval).reshape(height, width).T)


def write_pgm(pixels, maxval: int = 255) -> bytes:
    """Serialize an integer pixel grid indexed [x, y] as raw (P5) PGM bytes."""
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    pix = np.asarray(pixels, dtype=np.int64)
    if pix.ndim != 2:
        raise ValueError("pixels must be a 2D grid")
    if pix.min() < 0 or pix.max() > maxval:
        raise ValueError(f"pixel values must lie in [0, {maxval}]")
    rows = pix.T  # file rows run along y
    header = f"P5\n{pix.shape[0]} {pix.shape[1]}\n{maxval}\n".encode("ascii")
    dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
    return header + np.ascontiguousarray(rows).astype(dtype).tobytes()


def write_heightmap_pgm(hm: HeightMap, maxval: int = 255) -> bytes:
    """Quantize a HeightMap back to PGM; value v maps to round(v * maxval)."""
    return write_pgm(round_half_away(hm.values * maxval), maxval=maxval)


# --- construction and edits --------------------------------------------------


def synth_heightmap(shape: str, width: int, length: int, amplitude: float) -> HeightMap:
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
    return HeightMap(values)


def voxelise(hm: HeightMap, h_max: int, voxel_size: float) -> VoxelGrid:
    """Convert normalized elevations to integer column heights: round(v * h_max).
    h_max must lie in [1, H_MAX_LIMIT], checked before the cast; VoxelGrid
    rejects a voxel_size that is not finite and positive."""
    if h_max < 1:
        raise ValueError("h_max must be at least 1")
    if h_max > H_MAX_LIMIT:
        raise ValueError(f"h_max must be at most {H_MAX_LIMIT}, got {h_max}")
    heights = round_half_away(hm.values * h_max)
    return VoxelGrid(heights, int(h_max), float(voxel_size))


def apply_height_delta(grid: VoxelGrid, deltas, mask: VoxelMask | None = None) -> VoxelGrid:
    """Return a new grid with per-column deltas applied.

    Unmasked columns become round(clamp(height + delta, 0, h_max)); masked
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
    # clamped before the cast to int64, which a sum past its range would overflow
    new_heights = round_half_away(np.clip(grid.column_heights + deltas, 0, grid.h_max))
    if mask is not None:
        new_heights = np.where(mask.frozen, grid.column_heights, new_heights)
    return VoxelGrid(new_heights, grid.h_max, grid.voxel_size)


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


def _read_table(text: str, kind: str, header: str, dim_types, cell, dtype):
    """The dimension row and the table of a grid or mask CSV: one value per
    `header` field, converted by `dim_types`, the first two being the width
    and length; then width rows of length cells, each converted by `cell`,
    as a (width, length) array of `dtype`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != header:
        raise ValueError(f"{kind} csv: first line must be '{header}'")
    if len(lines) < 2:
        raise ValueError(f"{kind} csv: missing dimension row")
    parts = lines[1].split(",")
    if len(parts) != len(dim_types):
        raise ValueError(f"{kind} csv: dimension row needs {len(dim_types)} fields, "
                         f"got {len(parts)}")
    try:
        dims = [convert(part) for convert, part in zip(dim_types, parts)]
    except ValueError as exc:
        raise ValueError(f"{kind} csv: bad dimension row: {exc}") from exc
    width, length = dims[:2]
    rows = lines[2:]
    if len(rows) != width:
        raise ValueError(f"{kind} csv: expected {width} rows, got {len(rows)}")
    values = []   # the rows read, not the header's claim, size the array
    for x, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != length:
            raise ValueError(f"{kind} csv: row {x} has {len(cells)} cells, expected {length}")
        for y, c in enumerate(cells):
            try:
                values.append(cell(c))
            except ValueError as exc:
                raise ValueError(f"{kind} csv: row {x} column {y}: {exc}") from exc
    return dims, np.array(values, dtype=dtype).reshape(width, length)


def _grid_cell(c: str) -> int:
    value = int(c)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"cell {c!r} is outside the int64 range")
    return value


def grid_from_csv(text: str) -> VoxelGrid:
    (_, _, h_max, voxel_size), heights = _read_table(
        text, "grid", GRID_CSV_HEADER, (int, int, int, float), _grid_cell, np.int64)
    return VoxelGrid(heights, h_max, voxel_size)


def mask_to_csv(mask: VoxelMask) -> str:
    w, l = mask.frozen.shape
    lines = [MASK_CSV_HEADER, f"{w},{l}"]
    lines.extend(",".join("1" if v else "0" for v in row) for row in mask.frozen)
    return "\n".join(lines) + "\n"


def _mask_cell(c: str) -> bool:
    if c not in ("0", "1"):
        raise ValueError(f"cell {c!r} is not 0 or 1")
    return c == "1"


def mask_from_csv(text: str) -> VoxelMask:
    _, frozen = _read_table(text, "mask", MASK_CSV_HEADER, (int, int), _mask_cell, bool)
    return VoxelMask(frozen)
