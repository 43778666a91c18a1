"""CSV emission of ledger records.

Fixed, versioned format: a '#'-comment version line, one header row, one
data row per recorded `monitors.LedgerRecord` (cadence ticks and flagged
steps), and a closing '#'-comment footer summarizing the run.  A row
holds the record fields that HEADER names, in that order: step and flags
as integers, every other field as a float with 17 significant digits.
'.' decimal separator, ',' field separator and '\n' line ends, so
repeated runs of one configuration produce byte-identical files.
Version 2 dropped v1's trace_res column, 0 by construction.
"""

from __future__ import annotations

from .monitors import LedgerRecord

VERSION_LINE = "# ebpe diagnostics v2"
HEADER = "step,t,energy,dissipation,rho_l5,sup_T,sup_rho,div_res,flags"
_COLUMNS = HEADER.split(",")


def _format_row(record: LedgerRecord) -> str:
    return ",".join(
        str(getattr(record, name)) if name in ("step", "flags")
        else f"{getattr(record, name):.17g}"
        for name in _COLUMNS
    )


def format_csv(records: list[LedgerRecord], footer: str | None = None) -> str:
    lines = [VERSION_LINE, HEADER]
    lines.extend(_format_row(r) for r in records)
    if footer is not None:
        lines.append(f"# footer: {footer}")
    return "\n".join(lines) + "\n"


def write_csv(records: list[LedgerRecord], path, footer: str | None = None) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_csv(records, footer))
