"""Deployment descriptions: the JSON form the analyzer checks end to end.

A deployment file describes everything the paper fixes before a Stat4
program reaches hardware: the compile-time geometry (the STAT_COUNTER_*
macros and widths), the worst-case value magnitude the registers must
absorb, and the binding-table entries the controller will install::

    {
      "description": "what this deployment tracks",
      "config":    {"counter_num": 8, "counter_size": 256, ...},
      "max_value": 10000,
      "bindings":  [{"stage": 0, "dist": 0, "kind": "frequency", ...}],
      "ewma":      {"alpha_shift": 3, "frac_bits": 8}
    }

:func:`load_deployment` parses and validates the shape (ST430 on
malformed geometry); :func:`analyze_deployment` runs every pass over it —
the overflow dataflow, the binding consistency rules, and the
declared-vs-required width check against the P4 source :mod:`repro.p4gen`
emits for the config.  Example deployments live in ``examples/configs/``;
the CI gate lints all of them on every test run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.analysis.bindings import check_bindings, check_ewma
from repro.analysis.dataflow import check_overflow
from repro.analysis.diagnostics import Diagnostic, Severity, make
from repro.analysis.p4source import check_p4_source
from repro.p4.errors import P4Error
from repro.stat4.config import Stat4Config

__all__ = ["DeploymentSpec", "load_deployment", "analyze_deployment"]

_CONFIG_KEYS = (
    "counter_num",
    "counter_size",
    "counter_width",
    "stats_width",
    "binding_stages",
    "alert_cooldown",
    "sparse_dists",
    "sparse_slots",
    "sparse_stages",
)
_TOP_LEVEL_KEYS = {"description", "config", "max_value", "bindings", "ewma"}


@dataclass(frozen=True)
class DeploymentSpec:
    """A parsed deployment description.

    Attributes:
        config: the compile-time geometry.
        max_value: worst-case value magnitude a cell must absorb.
        bindings: raw binding entries (mappings, not TrackSpecs — see
            :mod:`repro.analysis.bindings`).
        ewma: optional EWMA detector geometry to check alongside.
        source_file: where this description came from (diagnostic anchor).
    """

    config: Stat4Config
    max_value: int
    bindings: Sequence[Mapping[str, object]] = field(default_factory=tuple)
    ewma: Optional[Mapping[str, object]] = None
    source_file: Optional[str] = None


def load_deployment(
    path: str,
) -> Tuple[Optional[DeploymentSpec], List[Diagnostic]]:
    """Load a deployment JSON file.

    Returns ``(spec, diagnostics)``; the spec is None when the file is too
    malformed to analyze further (unparseable JSON, invalid geometry).
    """
    diagnostics: List[Diagnostic] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return None, [make("ST430", f"cannot read deployment: {exc}", file=path)]
    if not isinstance(raw, dict):
        return None, [
            make("ST430", "deployment must be a JSON object", file=path)
        ]

    for key in sorted(set(raw) - _TOP_LEVEL_KEYS):
        diagnostics.append(
            make(
                "ST430",
                f"unknown top-level key {key!r}",
                file=path,
                severity=Severity.WARNING,
            )
        )

    config_raw = raw.get("config", {})
    if not isinstance(config_raw, dict):
        return None, diagnostics + [
            make("ST430", "'config' must be an object", file=path)
        ]
    unknown = sorted(set(config_raw) - set(_CONFIG_KEYS))
    if unknown:
        diagnostics.append(
            make(
                "ST430",
                f"unknown config key(s): {', '.join(unknown)}",
                file=path,
            )
        )
    kwargs = {k: v for k, v in config_raw.items() if k in _CONFIG_KEYS}
    if "sparse_dists" in kwargs and isinstance(kwargs["sparse_dists"], list):
        kwargs["sparse_dists"] = tuple(kwargs["sparse_dists"])
    try:
        config = Stat4Config(**kwargs)
    except (P4Error, TypeError) as exc:
        diagnostics.append(
            make("ST430", f"invalid config geometry: {exc}", file=path)
        )
        return None, diagnostics

    max_value = raw.get("max_value")
    if not isinstance(max_value, int) or isinstance(max_value, bool):
        max_value = (1 << config.counter_width) - 1
        diagnostics.append(
            make(
                "ST413",
                "no max_value given; assuming the worst-case cell magnitude "
                f"{max_value}",
                file=path,
                assumed_max_value=max_value,
            )
        )

    bindings = raw.get("bindings", [])
    if not isinstance(bindings, list) or not all(
        isinstance(b, dict) for b in bindings
    ):
        diagnostics.append(
            make("ST430", "'bindings' must be a list of objects", file=path)
        )
        bindings = []

    ewma = raw.get("ewma")
    if ewma is not None and not isinstance(ewma, dict):
        diagnostics.append(make("ST430", "'ewma' must be an object", file=path))
        ewma = None

    spec = DeploymentSpec(
        config=config,
        max_value=max_value,
        bindings=tuple(bindings),
        ewma=ewma,
        source_file=path,
    )
    return spec, diagnostics


def analyze_deployment(spec: DeploymentSpec) -> List[Diagnostic]:
    """Run every analyzer pass over one deployment."""
    file = spec.source_file
    diagnostics = check_overflow(spec.config, spec.max_value, file=file)
    diagnostics.extend(check_bindings(spec.config, spec.bindings, file=file))
    if spec.ewma is not None:
        diagnostics.extend(check_ewma(spec.config, spec.ewma, file=file))

    # The same width requirements, checked against the program p4gen would
    # actually emit for this geometry (import deferred: p4gen pulls in the
    # whole runtime stack, which plain expressibility lints never need).
    from repro.p4gen import generate_p4

    generated = generate_p4(spec.config)
    for diag in check_p4_source(
        generated, config=spec.config, max_value=spec.max_value, file=file
    ):
        diagnostics.append(
            Diagnostic(
                code=diag.code,
                message=f"[p4gen] {diag.message}",
                severity=diag.severity,
                file=file,
                line=None,
                context={**dict(diag.context), "origin": "p4gen"},
            )
        )
    return diagnostics
