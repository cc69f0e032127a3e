# p4-ok-file — host-side network simulator, not data-plane code.
"""Control-channel messages between switches and controllers.

The Figure-1 architectures differ only in *what* crosses this channel:

- the envisioned approach (1c) pushes tiny :class:`DigestMessage` alerts up,
  and sends :class:`TableAdd`/:class:`TableModify` down to retune binding
  tables at runtime;
- the sketch-only baseline (1b) sends :class:`RegisterReadRequest` polls
  down and hauls full :class:`RegisterReadReply` dumps up.

Each message reports a wire size so link accounting can compare the
overhead of the two architectures — the crux of the paper's motivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.p4.switch import Digest

__all__ = [
    "ControlMessage",
    "DigestMessage",
    "TableAdd",
    "TableModify",
    "TableDelete",
    "RegisterReadRequest",
    "RegisterReadReply",
]


@dataclass
class ControlMessage:
    """Base class: anything crossing the switch-controller channel."""

    def __len__(self) -> int:  # pragma: no cover - overridden
        return 64


@dataclass
class DigestMessage(ControlMessage):
    """A data-plane alert pushed to the controller (Figure 1c, step 1)."""

    switch: str
    digest: Digest

    def __len__(self) -> int:
        # Digest header plus a few integers; matches P4 digest sizing.
        return 16 + 8 * len(self.digest.fields)


@dataclass
class TableAdd(ControlMessage):
    """Controller installs a (binding) table entry at runtime."""

    table: str
    matches: Tuple[Any, ...]
    action: str
    params: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    request_id: int = 0

    def __len__(self) -> int:
        return 48 + 8 * (len(self.matches) + len(self.params))


@dataclass
class TableModify(ControlMessage):
    """Controller rewrites an installed entry (the drill-down refinement)."""

    table: str
    entry_id: int
    matches: Any = None
    action: Any = None
    params: Any = None
    priority: Optional[int] = None
    request_id: int = 0

    def __len__(self) -> int:
        return 48


@dataclass
class TableDelete(ControlMessage):
    """Controller removes an installed entry."""

    table: str
    entry_id: int

    def __len__(self) -> int:
        return 24


@dataclass
class RegisterReadRequest(ControlMessage):
    """Sketch-only pull: the controller asks for a register dump."""

    registers: Sequence[str]
    request_id: int = 0

    def __len__(self) -> int:
        return 16 + 8 * len(self.registers)


@dataclass
class RegisterReadReply(ControlMessage):
    """The dump itself — this is the heavy direction of a pull."""

    values: Dict[str, List[int]]
    request_id: int = 0
    read_latency: float = 0.0

    def __len__(self) -> int:
        cells = sum(len(v) for v in self.values.values())
        return 16 + 4 * cells
