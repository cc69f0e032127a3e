# p4-ok-file — host-side columnar frame decoding, not data-plane code.
"""Columnar frame decoding: a parser's parse graph run over many frames at once.

:meth:`repro.p4.parser.Parser.parse` walks one frame through the parse
graph and builds a :class:`~repro.p4.packet.Header` (with a
:class:`~repro.p4.values.P4Int` per field) for every header it extracts.
That is the specification, but as an ingest front end it spends ~20
Python objects per packet before the batched engine sees a column.

:func:`decode_frames` runs the *same* :class:`~repro.p4.parser.ParserState`
and :class:`~repro.p4.packet.HeaderType` tables over a whole batch with
numpy: one pass per parse depth, a mask per state, the per-header length
check that rejects exactly the frames ``Parser.parse`` rejects, the select
field read straight from the bytes to pick each frame's next state, and the
parser's ``max_depth`` cap.  What it keeps per accepted frame is only the
byte position of each extracted header; :class:`FrameColumns` reads a
``header.field`` column out of the concatenated frame bytes when a binding
first asks for it.

Parse graphs the decoder cannot reproduce exactly — a non-integer
transition key, two header types sharing a name, or a field spanning more
than eight bytes — are reported by :func:`decode_frames` returning None,
and the caller parses those frames one by one instead.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.p4.packet import HeaderType
from repro.p4.parser import ACCEPT, Parser

__all__ = ["FrameColumns", "decode_frames"]

#: Per-row column of optional field values (None = header absent).
Column = List[Optional[int]]

#: Header position of a row that did not extract the header.
_ABSENT = -1


def _field_layout(header_type: HeaderType) -> Optional[Dict[str, Tuple[int, int, int]]]:
    """``field -> (first byte, byte count, right shift)`` inside the header.

    None when a field spans more than eight bytes (it would not fit the
    64-bit accumulator the gather builds a field in).
    """
    layout = {}
    bit = 0
    for spec in header_type.fields:
        first = bit >> 3
        last = (bit + spec.width - 1) >> 3
        count = last - first + 1
        if count > 8:
            return None
        layout[spec.name] = (first, count, (count << 3) - (bit & 7) - spec.width)
        bit += spec.width
    return layout


def _gather(buffer: Any, pos: Any, layout: Tuple[int, int, int], width: int) -> Any:
    """One field of the headers at byte positions ``pos``, as ``uint64``."""
    first, count, shift = layout
    base = pos + first
    acc = buffer[base].astype(np.uint64)
    for k in range(1, count):
        acc = (acc << np.uint64(8)) | buffer[base + k]
    if shift:
        acc >>= np.uint64(shift)
    if width < 64:
        acc &= np.uint64((1 << width) - 1)
    return acc


class FrameColumns:
    """A batch's accepted frames: their bytes plus each header's position.

    Attributes:
        buffer: every frame of the batch, concatenated (``uint8``).
        positions: header name -> per-row byte position of that header in
            ``buffer`` (``-1`` where the row did not extract it).
        types: header name -> its :class:`HeaderType`.
    """

    __slots__ = ("buffer", "positions", "types", "_layouts")

    def __init__(
        self,
        buffer: Any,
        positions: Dict[str, Any],
        types: Dict[str, HeaderType],
        layouts: Dict[str, Dict[str, Tuple[int, int, int]]],
    ):
        self.buffer = buffer
        self.positions = positions
        self.types = types
        self._layouts = layouts

    def take(self, rows: Any) -> "FrameColumns":
        """The rows selected by ``rows`` (a slice gives views, an index array copies)."""
        return FrameColumns(
            self.buffer,
            {name: pos[rows] for name, pos in self.positions.items()},
            self.types,
            self._layouts,
        )

    def _read(self, header: str, field: str) -> Optional[Tuple[Any, Any]]:
        """``(valid, values)``: the rows holding ``header`` (None = every row)
        and the field at those rows; None when no row holds the header."""
        pos = self.positions.get(header)
        if pos is None:
            return None
        valid = pos >= 0
        if not valid.any():
            return None
        spec = self.types[header].field(field)
        layout = self._layouts[header][spec.name]
        if valid.all():
            return None, _gather(self.buffer, pos, layout, spec.width)
        return valid, _gather(self.buffer, pos[valid], layout, spec.width)

    def key_column(self, header: str, field: str, rows: int) -> List[int]:
        """A binding-key part: the field where the header is valid, else 0."""
        read = self._read(header, field)
        if read is None:
            return [0] * rows
        valid, values = read
        if valid is None:
            return values.tolist()
        out = np.zeros(rows, dtype=np.uint64)
        out[valid] = values
        return out.tolist()

    def column(self, source: str, rows: int) -> Column:
        """The raw per-row values of a ``header.field`` extract source."""
        header, _, field = source.partition(".")
        read = self._read(header, field)
        if read is None:
            return [None] * rows
        valid, values = read
        if valid is None:
            return values.tolist()
        out = np.full(rows, None, dtype=object)
        out[valid] = values.tolist()
        return out.tolist()


class _Graph(NamedTuple):
    """A parser's states compiled to integer ids for the vectorised walk."""

    start: int
    #: Per state id 1..n (index 0 unused): (header name or None, select
    #: field or None, ((value, next id), ...), default id).
    steps: List[Any]
    types: Dict[str, HeaderType]
    layouts: Dict[str, Dict[str, Tuple[int, int, int]]]


#: State ids: the accepting state and every name the parse graph does not
#: define (a frame that reaches one is rejected, as ``Parser.parse`` raises).
_ACCEPT_ID = 0
_UNDEFINED_ID = -1


def _compile(parser: Parser) -> Optional[_Graph]:
    names = [name for name in parser.states if name != ACCEPT]
    ids = {name: index for index, name in enumerate(names, 1)}
    ids[ACCEPT] = _ACCEPT_ID

    def target(name: str) -> int:
        return ids.get(name, _UNDEFINED_ID)

    types: Dict[str, HeaderType] = {}
    layouts: Dict[str, Dict[str, Tuple[int, int, int]]] = {}
    steps: List[Any] = [None]
    for name in names:
        state = parser.states[name]
        header = state.extracts
        if header is not None:
            known = types.setdefault(header.name, header)
            if known is not header:
                return None  # two header types under one name
            if header.name not in layouts:
                layout = _field_layout(header)
                if layout is None:
                    return None
                layouts[header.name] = layout
        transitions = []
        for value, nxt in state.transitions.items():
            if not isinstance(value, int):
                return None
            transitions.append((value, target(nxt)))
        steps.append(
            (
                None if header is None else header.name,
                state.select_field,
                tuple(transitions),
                target(state.default),
            )
        )
    return _Graph(target(parser.start), steps, types, layouts)


def decode_frames(
    frames: Sequence[bytes], parser: Parser
) -> Optional[Tuple[FrameColumns, Any]]:
    """Run ``parser``'s parse graph over every frame at once.

    Returns ``(columns, accepted)``: :class:`FrameColumns` over the frames
    ``Parser.parse`` would accept, in order, and the ``int64`` indices of
    those frames in ``frames``.  Returns None when the graph is outside
    what the decoder reproduces exactly (see the module docstring).
    """
    graph = _compile(parser)
    if graph is None:
        return None
    n = len(frames)
    sizes = np.fromiter(map(len, frames), dtype=np.int64, count=n)
    buffer = np.frombuffer(b"".join(frames), dtype=np.uint8)
    ends = np.cumsum(sizes)
    cursor = ends - sizes
    state = np.full(n, graph.start, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    accepted = np.zeros(n, dtype=bool)
    positions: Dict[str, Any] = {}
    for _ in range(parser.max_depth):
        done = alive & (state == _ACCEPT_ID)
        accepted |= done
        alive &= ~done
        alive &= state != _UNDEFINED_ID
        if not alive.any():
            break
        current = state.copy()
        for sid in range(1, len(graph.steps)):
            rows = np.flatnonzero(alive & (current == sid))
            if not len(rows):
                continue
            header, select, transitions, default = graph.steps[sid]
            if header is not None:
                start = cursor[rows]
                fits = start + graph.types[header].byte_width <= ends[rows]
                alive[rows[~fits]] = False
                rows = rows[fits]
                start = start[fits]
                pos = positions.get(header)
                if pos is None:
                    pos = positions[header] = np.full(n, _ABSENT, dtype=np.int64)
                pos[rows] = start
                cursor[rows] = start + graph.types[header].byte_width
            if select is None:
                state[rows] = default
                continue
            if header is None or select not in graph.layouts[header]:
                alive[rows] = False  # Parser.parse raises on this state
                continue
            key = _gather(
                buffer,
                positions[header][rows],
                graph.layouts[header][select],
                graph.types[header].field(select).width,
            )
            nxt = np.full(len(rows), default, dtype=np.int64)
            for value, target in transitions:
                if 0 <= value < (1 << 64):
                    nxt[key == np.uint64(value)] = target
            state[rows] = nxt
    kept = np.flatnonzero(accepted)
    columns = FrameColumns(buffer, positions, graph.types, graph.layouts)
    if len(kept) < n:
        columns = columns.take(kept)
    return columns, kept
