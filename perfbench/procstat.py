"""CPU time and peak RSS of a process and its live children, from ``/proc``."""

from __future__ import annotations

import os
from typing import List

_TICKS = os.sysconf("SC_CLK_TCK")


def children(pid: int) -> List[int]:
    """Direct children of ``pid`` (every thread's ``children`` list)."""
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                out.extend(int(field) for field in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return out


def cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid``, its threads and its reaped children."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # After the command: state is field 3, utime..cstime are fields 14..17.
    return sum(int(value) for value in fields[11:15]) / _TICKS


def tree_cpu_s(pid: int) -> float:
    """CPU seconds of ``pid`` plus those of its live children."""
    total = cpu_s(pid)
    for child in children(pid):
        try:
            total += cpu_s(child)
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise ValueError(f"no VmHWM for pid {pid}")


def tree_hwm_mb(pid: int) -> float:
    """Peak RSS of ``pid`` plus that of each live child."""
    total = hwm_mb(pid)
    for child in children(pid):
        try:
            total += hwm_mb(child)
        except (FileNotFoundError, ProcessLookupError, ValueError):
            continue
    return total
