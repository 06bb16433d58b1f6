"""MAPF world model: 4-connected grid maps, agents, shortest-path utilities,
and readers for the community benchmark ``.map`` / ``.scen`` text formats.

Cells are ``(x, y)`` pairs with ``x`` the zero-based column and ``y`` the
zero-based row, matching the coordinate convention of the benchmark scenario
files. Everything here is immutable once constructed and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from typing import Iterator, Optional

Cell = tuple[int, int]
Path = tuple[Cell, ...]

MOVES: tuple[Cell, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))

PASSABLE_CHARS = frozenset(".G")
BLOCKED_CHARS = frozenset("@OTW")
SYMBOLS = PASSABLE_CHARS | BLOCKED_CHARS


class ParseError(ValueError):
    """Malformed .map / .scen input; the message names the offending line."""


@dataclass(frozen=True, eq=False, init=False)
class GridMap:
    """A rectangular 4-connected grid with blocked cells.

    ``rows`` holds the mask as ``height`` tuples of ``width`` bools, indexed
    ``[row][col]``; the vertex count ``n`` is the number of passable cells.
    The constructor takes the mask as nested lists or a numpy array and keeps
    its own copy, so later writes to the caller's mask change nothing here.
    """

    width: int
    height: int
    rows: tuple[tuple[bool, ...], ...] = field(repr=False)
    n: int

    def __init__(self, width: int, height: int, passable) -> None:
        if width < 1 or height < 1:
            raise ValueError("map dimensions must be positive")
        try:
            rows = tuple(tuple(map(bool, row)) for row in passable)
        except TypeError:  # a flat mask, whose rows are not sequences
            rows = ()
        if len(rows) != height or any(len(row) != width for row in rows):
            raise ValueError("passable mask shape does not match dimensions")
        n = sum(map(sum, rows))
        if not n:
            raise ValueError("map has no passable cell")
        self.__dict__.update(width=width, height=height, rows=rows, n=n)

    @cached_property
    def passable(self):
        """The mask as a read-only numpy bool array of shape
        ``(height, width)``, indexed ``[row, col]``; numpy is imported on
        first use."""
        import numpy as np

        mask = np.array(self.rows, dtype=bool)
        mask.setflags(write=False)
        return mask

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def is_passable(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height and self.rows[y][x]

    def index(self, cell: Cell) -> int:
        """Flat id of a cell: column-major, ``x * (height + 1) + y``."""
        return cell[0] * (self.height + 1) + cell[1]

    def cell(self, u: int) -> Cell:
        """The cell of a flat id; the inverse of :meth:`index`."""
        return divmod(u, self.height + 1)

    @cached_property
    def steps(self) -> tuple[tuple[int, ...], ...]:
        """The one flat layout: ``steps[u] = (u, *passable neighbours of u
        in MOVES order)``, or ``()`` where u is blocked or padding.

        Ids are column-major, so they sort like ``(x, y)`` tuples: a heap
        keyed on ids pops in the order one keyed on cells would. A padding
        slot below each column and a padding column on the right (reached
        from the left edge through negative indices) catch every step off
        the map."""
        h = self.height + 1
        free: list[bool] = []
        for column in zip(*self.rows):
            free += column
            free.append(False)
        free += [False] * h
        offsets = [dx * h + dy for dx, dy in MOVES]
        return tuple(
            (u, *[u + d for d in offsets if free[u + d]]) if free[u] else ()
            for u in range(self.width * h)
        )

    @cached_property
    def _cells(self) -> tuple[Cell, ...]:
        xs, cells = range(self.width), []
        for y, row in enumerate(self.rows):
            cells += zip(compress(xs, row), repeat(y))
        return tuple(cells)

    def cells(self) -> Iterator[Cell]:
        """Passable cells in row-major order."""
        return iter(self._cells)


def parse_map(text: str) -> GridMap:
    """Parse the benchmark ``.map`` format.

    Header: ``type octile`` / ``height H`` / ``width W`` / ``map``, followed by
    ``H`` rows of ``W`` symbols. ``.`` and ``G`` are passable; ``@ O T W``
    are blocked; anything else is an error.
    """
    lines = text.splitlines()

    def header(idx: int, key: str) -> str:
        if idx >= len(lines):
            raise ParseError(f"line {idx + 1}: missing '{key}' header line")
        return lines[idx]

    if not header(0, "type").startswith("type"):
        raise ParseError("line 1: expected 'type ...' header")
    for idx, key in ((1, "height"), (2, "width")):
        parts = header(idx, key).split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(f"line {idx + 1}: expected '{key} <int>'")
        try:
            value = int(parts[1])
        except ValueError:
            raise ParseError(f"line {idx + 1}: expected '{key} <int>'") from None
        if key == "height":
            height = value
        else:
            width = value
    if header(3, "map").strip() != "map":
        raise ParseError("line 4: expected 'map'")
    if height < 1 or width < 1:
        raise ParseError("line 2: map dimensions must be positive")

    rows = []
    for row in range(height):
        lineno = 5 + row
        if 4 + row >= len(lines):
            raise ParseError(f"line {lineno}: missing map row {row}")
        raw = lines[4 + row].rstrip("\r")
        if len(raw) != width:
            raise ParseError(
                f"line {lineno}: row length {len(raw)} does not match width {width}"
            )
        if not SYMBOLS.issuperset(raw):
            sym = next(sym for sym in raw if sym not in SYMBOLS)
            raise ParseError(f"line {lineno}: unknown symbol {sym!r}")
        rows.append(map(PASSABLE_CHARS.__contains__, raw))
    return GridMap(width, height, rows)


def serialize_map(grid: GridMap) -> str:
    """Emit a .map text whose passable/blocked mask round-trips bit-exactly."""
    rows = ["".join("." if free else "@" for free in row) for row in grid.rows]
    head = ["type octile", f"height {grid.height}", f"width {grid.width}", "map"]
    return "\n".join(head + rows) + "\n"


@dataclass(frozen=True)
class ScenEntry:
    """One row of a ``.scen`` file."""

    bucket: int
    map_name: str
    map_width: int
    map_height: int
    start: Cell
    goal: Cell
    optimal_length: float


def read_scen_entries(text: str) -> list[ScenEntry]:
    """Parse the ``version 1`` scenario format into raw entries."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("line 1: empty scenario file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "version" or head[1] != "1":
        raise ParseError(f"line 1: unsupported scenario version {lines[0]!r}")
    entries = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 9:
            raise ParseError(f"line {i}: expected 9 fields, got {len(parts)}")
        try:
            bucket = int(parts[0])
            w, h = int(parts[2]), int(parts[3])
            sx, sy, gx, gy = (int(p) for p in parts[4:8])
            opt = float(parts[8])
        except ValueError:
            raise ParseError(f"line {i}: malformed numeric field") from None
        entries.append(ScenEntry(bucket, parts[1], w, h, (sx, sy), (gx, gy), opt))
    return entries


@dataclass(frozen=True)
class Instance:
    """A MAPF instance: a grid plus an ordered list of (start, goal) agents."""

    map: GridMap
    agents: tuple[tuple[Cell, Cell], ...]

    def __post_init__(self):
        if len(self.agents) < 1:
            raise ValueError("at least one agent required")
        starts = [s for s, _ in self.agents]
        goals = [g for _, g in self.agents]
        if len(set(starts)) != len(starts):
            raise ValueError("agent start cells must be distinct")
        if len(set(goals)) != len(goals):
            raise ValueError("agent goal cells must be distinct")
        for i, (s, g) in enumerate(self.agents):
            if not self.map.is_passable(s):
                raise ValueError(f"agent {i} start {s} is blocked or out of bounds")
            if not self.map.is_passable(g):
                raise ValueError(f"agent {i} goal {g} is blocked or out of bounds")

    @property
    def k(self) -> int:
        return len(self.agents)

    @cached_property
    def goal_fields(self) -> tuple[tuple[int, ...], ...]:
        """Each agent's BFS distances to its goal, indexed by GridMap.index."""
        return tuple(tuple(_bfs(self.map, goal)) for _, goal in self.agents)


def parse_scen(text: str, count: int, grid: GridMap) -> Instance:
    """Build an Instance from the first ``count`` scenario rows."""
    if count < 1:
        raise ParseError("at least one agent required")
    entries = read_scen_entries(text)
    if count > len(entries):
        raise ParseError(
            f"requested {count} agents but scenario has only {len(entries)} rows"
        )
    agents = []
    for i, e in enumerate(entries[:count]):
        for which, cell in (("start", e.start), ("goal", e.goal)):
            if not grid.in_bounds(cell):
                raise ParseError(f"line {i + 2}: {which} {cell} out of bounds")
            if not grid.is_passable(cell):
                raise ParseError(f"line {i + 2}: {which} {cell} is a blocked cell")
        agents.append((e.start, e.goal))
    return Instance(grid, tuple(agents))


def path_cost(path: Path) -> int:
    """Termination time of a path: the index of its final waypoint."""
    return len(path) - 1


def _bfs(grid: GridMap, source: Cell) -> list[int]:
    """BFS distances from a passable cell, as a list indexed by
    :meth:`GridMap.index`; -1 marks unreachable, blocked and padding ids."""
    steps = grid.steps
    dist = [-1] * len(steps)
    src = grid.index(source)
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in steps[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


# Words in each of a source block's two (cells + padding, words) bitset
# arrays: 8 MiB apiece.
_RADIUS_BLOCK_WORDS = 1 << 20


def radius(grid: GridMap) -> tuple[int, Cell]:
    """Minimum eccentricity over all cells, with the center attaining it.

    Ties go to the first cell in row-major order (by row, then column) that
    attains the minimum. One BFS from the first cell checks that the map is
    connected and brackets the radius: with e its eccentricity, the radius
    lies in [ceil(e / 2), e]. One bit-parallel BFS then runs from every
    passable cell at once and stops at the radius, not at the diameter;
    sources are taken in blocks whose bitsets hold at most a fixed number of
    words, so memory stays bounded on large maps. Raises ValueError on a
    disconnected map.
    """
    import numpy as np

    ys, xs = np.nonzero(grid.passable)
    dist = _bfs(grid, (int(xs[0]), int(ys[0])))
    if len(dist) - dist.count(-1) < grid.n:
        raise ValueError("disconnected map has no finite radius")
    ecc = max(dist)
    cells = (grid.height + 2) * (grid.width + 2)
    block = 64 * max(1, _RADIUS_BLOCK_WORDS // cells)
    low, best, center = (ecc + 1) // 2, ecc + 1, None
    for lo in range(0, len(ys), block):
        hit = _block_radius(
            grid.passable, ys[lo : lo + block], xs[lo : lo + block], low, best
        )
        if hit is not None:
            best, j = hit
            center = (int(xs[lo + j]), int(ys[lo + j]))
    return best, center


def _block_radius(passable, ys, xs, first: int, stop: int) -> Optional[tuple[int, int]]:
    """BFS from every source in a block at once: ``(d, j)`` for the first
    step d in ``[first, stop)`` at which some source's ball covers every
    passable cell, j being the lowest such source; None if there is none.

    Cells are rows of a row-major array padded by one blocked cell on every
    side, so a cell's four neighbours are the rows at offsets -1, +1, -W and
    +W (W the padded width), and one step is five ORs of contiguous slices
    and a mask."""
    import numpy as np

    h, w = passable.shape
    width = w + 2
    pad = np.zeros((h + 2, width), dtype=bool)
    pad[1:-1, 1:-1] = passable
    keep = pad.ravel()
    rows = np.flatnonzero(keep)
    size = len(keep)
    ids = np.arange(len(ys))
    reach = np.zeros((size, -(-len(ys) // 64)), dtype=np.uint64)
    bit = np.uint64(1) << (ids % 64).astype(np.uint64)
    reach[(ys + 1) * width + xs + 1, ids // 64] = bit
    spare = np.zeros_like(reach)
    mask = np.where(keep, ~np.uint64(0), np.uint64(0))[width:-width, None]
    for d in range(stop):
        if d >= first:
            covered = np.bitwise_and.reduce(reach[rows], axis=0)
            if covered.any():
                word = int(np.flatnonzero(covered)[0])
                bits = int(covered[word])
                return d, 64 * word + (bits & -bits).bit_length() - 1
        step = spare[width:-width]
        np.bitwise_or(
            reach[width - 1 : -width - 1], reach[width + 1 : -width + 1], out=step
        )
        step |= reach[: size - 2 * width]
        step |= reach[2 * width :]
        step |= reach[width:-width]
        step &= mask
        reach, spare = spare, reach
    return None
