"""Diagnostics rows and CSV emission.

Fixed, versioned format: a '#'-comment version line, one header row, one
data row per cadence tick, and a closing '#'-comment footer summarizing
the run.  Floats are written with 17 significant digits, '.' decimal
separator, ',' field separator and '\n' line ends, so repeated runs of
one configuration produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monitors import LedgerRecord

VERSION_LINE = "# ebpe diagnostics v1"
HEADER = "step,t,energy,dissipation,rho_l5,sup_T,sup_rho,trace_res,div_res,flags"


@dataclass(frozen=True)
class DiagnosticsRow:
    step: int
    t: float
    energy: float
    dissipation: float
    rho_l5: float
    sup_T: float
    sup_rho: float
    trace_res: float
    div_res: float
    flags: int

    @classmethod
    def from_record(cls, step: int, record: LedgerRecord, flags: int) -> "DiagnosticsRow":
        return cls(
            step=step, t=record.t, energy=record.energy,
            dissipation=record.dissipation, rho_l5=record.rho_l5,
            sup_T=record.sup_T, sup_rho=record.sup_rho,
            trace_res=record.trace_res, div_res=record.div_res, flags=flags,
        )

    def format(self) -> str:
        floats = (self.t, self.energy, self.dissipation, self.rho_l5,
                  self.sup_T, self.sup_rho, self.trace_res, self.div_res)
        return ",".join([str(self.step)] + [f"{x:.17g}" for x in floats] + [str(self.flags)])


def rows_from_records(records) -> list[DiagnosticsRow]:
    """records: iterable of (step, LedgerRecord, flags) tuples."""
    return [DiagnosticsRow.from_record(s, r, f) for s, r, f in records]


def format_csv(rows: list[DiagnosticsRow], footer: str | None = None) -> str:
    lines = [VERSION_LINE, HEADER]
    lines.extend(row.format() for row in rows)
    if footer is not None:
        lines.append(f"# footer: {footer}")
    return "\n".join(lines) + "\n"


def write_csv(rows: list[DiagnosticsRow], path, footer: str | None = None) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_csv(rows, footer))

