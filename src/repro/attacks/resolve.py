"""Binding attack programs against a concrete system.

``resolve`` turns a placeholder-bearing :class:`Program` into a
:class:`ResolvedProgram` whose operands are all plain integers:

- placeholders are substituted from ``bindings`` (explicit values win
  over the program's defaults; a placeholder with neither raises
  :class:`UnboundPlaceholderError` naming it);
- ``act`` targets are normalized to **global row ids** — ``bank=``
  addressing is folded in via ``bank * rows_per_bank + row``;
- every target is validated against the
  :class:`~repro.dram.timing.DramGeometry`. Out-of-range rows are the
  classic silent attack-generator bug (``double_sided`` on the top row
  of a bank happily "hammers" a row that does not exist, and the
  tracker under test gets credit for surviving nothing), so the
  default policy is to **raise** :class:`AttackBoundsError`;
  ``bounds="clamp"`` clamps into range instead for callers that want
  edge patterns degraded rather than rejected;
- loop and nop counts must resolve to non-negative integers.

Resolving without a geometry skips the bounds check (the binding and
normalization steps still run) — the original generators' historical
behaviour, kept for the fixed-row batteries (the arena's aliases, the
§5 patterns of ``hydra-sim security``) that must probe identically at
every scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.attacks.ops import (
    Act,
    Expr,
    Loop,
    Nop,
    Op,
    Placeholder,
    Pre,
    Program,
    SyncRefresh,
)
from repro.dram.timing import DramGeometry

__all__ = [
    "AttackBoundsError",
    "UnboundPlaceholderError",
    "ResolvedProgram",
    "resolve",
]

#: Bounds policies accepted by :func:`resolve`.
BOUNDS_POLICIES = ("raise", "clamp")


class AttackBoundsError(ValueError):
    """An attack program targets a row outside the DRAM geometry."""


class UnboundPlaceholderError(ValueError):
    """A placeholder has neither an explicit binding nor a default."""


@dataclass(frozen=True)
class ResolvedProgram:
    """A fully bound program: every operand an int, rows global."""

    name: str
    ops: Tuple[Op, ...]
    #: The geometry the program was validated against (None = unchecked).
    geometry: Optional[DramGeometry] = None


def _bind(expr: Expr, bindings: Mapping[str, int]) -> int:
    if isinstance(expr, Placeholder):
        try:
            return int(bindings[expr.name]) + expr.offset
        except KeyError:
            raise UnboundPlaceholderError(
                f"placeholder ${expr.name} is unbound; bind it explicitly"
                " or give the program a default"
            ) from None
    return int(expr)


def _check_row(
    row: int, geometry: Optional[DramGeometry], bounds: str, what: str
) -> int:
    if geometry is None:
        return row
    limit = geometry.total_rows
    if 0 <= row < limit:
        return row
    if bounds == "clamp":
        return min(max(row, 0), limit - 1)
    raise AttackBoundsError(
        f"{what} {row} outside geometry (0..{limit - 1});"
        " pass bounds='clamp' to clamp instead"
    )


def resolve(
    program: Program,
    bindings: Optional[Mapping[str, int]] = None,
    geometry: Optional[DramGeometry] = None,
    bounds: str = "raise",
) -> ResolvedProgram:
    """Bind, normalize, and bounds-check one program. See module doc."""
    if bounds not in BOUNDS_POLICIES:
        raise ValueError(
            f"unknown bounds policy {bounds!r}; expected one of "
            + ", ".join(BOUNDS_POLICIES)
        )
    merged: Dict[str, int] = dict(program.defaults)
    if bindings:
        merged.update({k: int(v) for k, v in bindings.items()})

    def resolve_ops(ops: Tuple[Op, ...]) -> Tuple[Op, ...]:
        resolved = []
        for op in ops:
            if isinstance(op, Act):
                row = _bind(op.row, merged)
                if op.bank is not None:
                    bank = _bind(op.bank, merged)
                    if geometry is not None:
                        if not 0 <= bank < geometry.total_banks:
                            raise AttackBoundsError(
                                f"bank {bank} outside geometry"
                                f" (0..{geometry.total_banks - 1})"
                            )
                        if not 0 <= row < geometry.rows_per_bank:
                            if bounds == "clamp":
                                row = min(
                                    max(row, 0), geometry.rows_per_bank - 1
                                )
                            else:
                                raise AttackBoundsError(
                                    f"row {row} outside bank"
                                    f" (0..{geometry.rows_per_bank - 1})"
                                )
                        row = bank * geometry.rows_per_bank + row
                    else:
                        raise ValueError(
                            "bank-addressed act needs a geometry to"
                            " normalize against"
                        )
                else:
                    row = _check_row(row, geometry, bounds, "row")
                resolved.append(Act(row=row, bank=None))
            elif isinstance(op, Pre):
                resolved.append(op)
            elif isinstance(op, Nop):
                count = _bind(op.count, merged)
                if count < 0:
                    raise ValueError(f"nop count must be >= 0, got {count}")
                resolved.append(Nop(count=count))
            elif isinstance(op, SyncRefresh):
                resolved.append(op)
            elif isinstance(op, Loop):
                count = _bind(op.count, merged)
                if count < 0:
                    raise ValueError(f"loop count must be >= 0, got {count}")
                resolved.append(
                    Loop(count=count, body=resolve_ops(op.body))
                )
            else:  # pragma: no cover - the Op union is closed
                raise TypeError(f"unknown op {op!r}")
        return tuple(resolved)

    return ResolvedProgram(
        name=program.name, ops=resolve_ops(program.ops), geometry=geometry
    )
