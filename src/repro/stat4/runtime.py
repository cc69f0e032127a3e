"""Runtime tuning of tracked distributions (the control-plane API).

"Controllers can adjust at runtime the tracked distributions without
recompiling the P4 application, by modifying the content of Stat4's binding
tables" (Sec. 3).  :class:`Stat4Runtime` is that API: it builds the
binding-table operations — either applying them directly to a local
:class:`~repro.stat4.library.Stat4` instance (tests, standalone use) or
producing :class:`~repro.netsim.messages.TableAdd` /
:class:`~repro.netsim.messages.TableModify` messages a controller sends
over the control channel.

Every rebind bumps the spec's ``generation`` so the data plane resets the
slot's registers — re-purposing a distribution must not inherit stale
state.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.netsim.messages import TableAdd, TableDelete, TableModify
from repro.p4.errors import TableError
from repro.stat4.binding import TRACK_ACTION, BindingMatch
from repro.stat4.distributions import DistributionKind, TrackSpec
from repro.stat4.extract import ExtractSpec
from repro.stat4.library import Stat4

__all__ = ["Stat4Runtime", "BindingHandle"]


class BindingHandle:
    """A controller-side handle to one installed binding entry."""

    __slots__ = ("stage", "entry_id", "spec", "match")

    def __init__(self, stage: int, entry_id: int, spec: TrackSpec, match: BindingMatch):
        self.stage = stage
        self.entry_id = entry_id
        self.spec = spec
        self.match = match

    def __repr__(self) -> str:
        return (
            f"BindingHandle(stage={self.stage}, entry={self.entry_id}, "
            f"dist={self.spec.dist})"
        )


class Stat4Runtime:
    """Builds and (optionally) applies binding-table operations.

    Args:
        stat4: a local library instance to apply operations to directly;
            None for message-only mode (a remote controller that sends the
            returned messages itself).
    """

    def __init__(self, stat4: Optional[Stat4] = None):
        self.stat4 = stat4
        self._generations = itertools.count(1)

    # -- binding -----------------------------------------------------------

    def bind(
        self,
        stage: int,
        match: BindingMatch,
        spec: TrackSpec,
        priority: int = 0,
    ) -> Tuple[BindingHandle, TableAdd]:
        """Install a tracking rule into one binding stage.

        Returns the handle (for later rebinds) and the equivalent control
        message.  When constructed with a local library the entry is also
        applied immediately.
        """
        message = TableAdd(
            table=f"stat4_binding_{stage}",
            matches=match.to_matches(),
            action=TRACK_ACTION,
            params={"spec": spec},
            priority=priority,
        )
        entry_id = 0
        if self.stat4 is not None:
            entry_id = self._table(stage).add_entry(
                message.matches, message.action, message.params, priority=priority
            )
        return BindingHandle(stage, entry_id, spec, match), message

    def rebind(
        self,
        handle: BindingHandle,
        match: Optional[BindingMatch] = None,
        spec: Optional[TrackSpec] = None,
        priority: Optional[int] = None,
    ) -> Tuple[BindingHandle, TableModify]:
        """Rewrite an installed rule in place (the drill-down refinement).

        The new spec's generation is bumped automatically so the data plane
        resets the slot.  A ``priority`` rides on the returned message, and
        a local table applies everything in one ``modify_entry`` write.
        """
        new_match = match if match is not None else handle.match
        base_spec = spec if spec is not None else handle.spec
        new_spec = replace(base_spec, generation=next(self._generations))
        message = TableModify(
            table=f"stat4_binding_{handle.stage}",
            entry_id=handle.entry_id,
            matches=new_match.to_matches(),
            action=TRACK_ACTION,
            params={"spec": new_spec},
            priority=priority,
        )
        if self.stat4 is not None:
            self._table(handle.stage).modify_entry(
                handle.entry_id,
                matches=message.matches,
                action=message.action,
                params=message.params,
                priority=message.priority,
            )
        return BindingHandle(handle.stage, handle.entry_id, new_spec, new_match), message

    def unbind(self, handle: BindingHandle) -> TableDelete:
        """Remove an installed rule (stop tracking; registers keep their
        last values until the slot is re-bound, exactly like a real switch).
        """
        message = TableDelete(
            table=f"stat4_binding_{handle.stage}", entry_id=handle.entry_id
        )
        if self.stat4 is not None:
            self._table(handle.stage).delete_entry(handle.entry_id)
        return message

    # -- spec builders (sugar for the Table-1 use cases) ---------------------

    def rate_over_time(
        self,
        dist: int,
        interval: float,
        k_sigma: int = 2,
        alert: str = "traffic_spike",
        min_samples: int = 4,
        per_byte: bool = False,
        unit_shift: int = 0,
        margin: int = 1,
        cooldown: float = 0.0,  # p4-ok: control-plane API default in seconds, not a register value
        window: int = 0,
    ) -> TrackSpec:
        """Packets (or bytes) per ``interval`` in a circular window.

        ``per_byte=True`` tracks traffic volume; ``unit_shift`` coarsens the
        unit (Sec. 2's order-of-magnitude trick).
        """
        extract = (
            ExtractSpec.frame_size(shift=unit_shift)
            if per_byte
            else ExtractSpec.constant(1)
        )
        return TrackSpec(
            dist=dist,
            kind=DistributionKind.TIME_SERIES,
            extract=extract,
            interval=interval,
            k_sigma=k_sigma,
            alert=alert,
            min_samples=min_samples,
            margin=margin,
            cooldown=cooldown,
            window=window,
        )

    def frequency_of(
        self,
        dist: int,
        extract: ExtractSpec,
        k_sigma: int = 0,
        alert: str = "imbalance",
        percent: Optional[int] = None,
        percentile_alert: str = "",
        min_samples: int = 2,
        margin: int = 1,
        cooldown: float = 0.0,  # p4-ok: control-plane API default in seconds, not a register value
    ) -> TrackSpec:
        """Frequencies of a header-derived index (types, subnets, ports…)."""
        return TrackSpec(
            dist=dist,
            kind=DistributionKind.FREQUENCY,
            extract=extract,
            k_sigma=k_sigma,
            alert=alert,
            percent=percent,
            percentile_alert=percentile_alert,
            min_samples=min_samples,
            margin=margin,
            cooldown=cooldown,
        )

    def sparse_frequency_of(
        self,
        dist: int,
        extract: ExtractSpec,
        k_sigma: int = 0,
        alert: str = "heavy_key",
        min_samples: int = 6,
        margin: int = 1,
        cooldown: float = 0.0,  # p4-ok: control-plane API default in seconds, not a register value
    ) -> TrackSpec:
        """Frequencies over a sparse domain in hashed slots (Sec. 5).

        The slot must be compiled with sparse storage
        (``Stat4Config.sparse_dists``).  Alert digests carry the full key
        (e.g. the whole /32 address), so a heavy hitter is identified
        without any drill-down round trip.
        """
        return TrackSpec(
            dist=dist,
            kind=DistributionKind.SPARSE_FREQUENCY,
            extract=extract,
            k_sigma=k_sigma,
            alert=alert,
            min_samples=min_samples,
            margin=margin,
            cooldown=cooldown,
        )

    # -- internals -----------------------------------------------------------

    def _table(self, stage: int):
        assert self.stat4 is not None
        try:
            return self.stat4.binding_tables[stage]
        except IndexError:
            raise TableError(
                f"binding stage {stage} does not exist "
                f"(binding_stages={len(self.stat4.binding_tables)})"
            ) from None
