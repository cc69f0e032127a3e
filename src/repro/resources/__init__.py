"""Resource footprints of a generated Stat4 program (paper Sec. 4).

The static checks of a deployment — P4 expressibility, register overflow
— are :mod:`repro.analysis`.
"""

from repro.resources.model import (
    ResourceReport,
    TableCost,
    analyze_program,
    table_entry_bytes,
)

__all__ = [
    "ResourceReport",
    "TableCost",
    "analyze_program",
    "table_entry_bytes",
]
