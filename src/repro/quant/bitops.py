"""Bit Operations (BitOPs) efficiency metric — Section 5.1 of the paper.

An architecture is viewed as a collection of functions; each function
executes a number of scalar operations at a fixed bit-width.  The BitOPs of
a module is the operation count weighted by the bit-width, and the
architecture total is the sum over all modules.  The average bit-width
("Bits" in the paper's tables) is the unweighted mean of the bit-widths
assigned to the architecture's quantized components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.gnn.costs import FP32, Stage

FP32_BITS = 32

__all__ = [
    "FP32_BITS",
    "OperationRecord",
    "BitOpsCounter",
    "average_bits",
    "count_stages",
]


@dataclass
class OperationRecord:
    """One function's contribution: ``operations`` scalar ops at ``bits`` width."""

    name: str
    operations: int
    bits: int

    @property
    def bit_operations(self) -> int:
        return self.operations * self.bits


@dataclass
class BitOpsCounter:
    """Accumulates :class:`OperationRecord` entries across an architecture."""

    records: List[OperationRecord] = field(default_factory=list)

    def add(self, name: str, operations: int, bits: int) -> None:
        if operations < 0:
            raise ValueError("operation count cannot be negative")
        if bits < 1:
            raise ValueError("bit-width must be at least 1")
        self.records.append(OperationRecord(name, int(operations), int(bits)))

    def extend(self, other: "BitOpsCounter") -> None:
        self.records.extend(other.records)

    # ------------------------------------------------------------------ #
    @property
    def total_operations(self) -> int:
        return sum(record.operations for record in self.records)

    @property
    def total_bit_operations(self) -> int:
        return sum(record.bit_operations for record in self.records)

    def giga_bit_operations(self) -> float:
        """Total BitOPs in units of 10^9 (the "GBitOPs" column of the tables)."""
        return self.total_bit_operations / 1e9

    def operation_weighted_bits(self) -> float:
        """Average bit-width weighted by the number of operations."""
        operations = self.total_operations
        if operations == 0:
            return float(FP32_BITS)
        return self.total_bit_operations / operations

    def per_function(self) -> Dict[str, int]:
        """BitOPs broken down per function name."""
        breakdown: Dict[str, int] = {}
        for record in self.records:
            breakdown[record.name] = breakdown.get(record.name, 0) + record.bit_operations
        return breakdown

    def __repr__(self) -> str:
        return (f"BitOpsCounter(functions={len(self.records)}, "
                f"GBitOPs={self.giga_bit_operations():.3f})")


def count_stages(stages: Sequence[Stage], width: Callable[[str], int],
                 prefix: str, counter: Optional[BitOpsCounter] = None
                 ) -> BitOpsCounter:
    """Record stage-table rows (:func:`repro.gnn.costs.stage_table`).

    Each stage runs at the larger of its operands' widths; ``width`` maps
    an operand slot to its bit-width and :data:`~repro.gnn.costs.FP32`
    counts as 32.
    """
    counter = BitOpsCounter() if counter is None else counter
    for name, operations, operands in stages:
        counter.add(f"{prefix}.{name}", operations,
                    max(FP32_BITS if slot == FP32 else width(slot)
                        for slot in operands))
    return counter


def average_bits(component_bits: Iterable[int],
                 weights: Optional[Iterable[float]] = None) -> float:
    """Unweighted (or weighted) mean bit-width over the architecture components."""
    bits = list(component_bits)
    if not bits:
        return float(FP32_BITS)
    if weights is None:
        return float(sum(bits)) / len(bits)
    weights = list(weights)
    total_weight = sum(weights)
    if total_weight <= 0:
        return float(sum(bits)) / len(bits)
    return float(sum(b * w for b, w in zip(bits, weights)) / total_weight)
