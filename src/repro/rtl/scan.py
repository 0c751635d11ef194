"""Scan-chain insertion and configuration.

The test wrapper TLM of the paper is constructed from the scan configuration
of a core (for example "32 scan chains" for the processor core, "8 scan
chains" for the DCT core).  This module derives such configurations from a
netlist by partitioning its flip-flops into balanced chains, and also allows
purely descriptive configurations for cores whose netlist is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.rtl.netlist import Netlist


@dataclass(frozen=True)
class ScanCell:
    """A scan-enabled flip-flop: position in a chain plus the state bit name."""

    name: str
    chain_index: int
    position: int


@dataclass(frozen=True)
class ScanChain:
    """An ordered list of scan cells sharing one scan-in/scan-out pair."""

    index: int
    cells: Tuple[ScanCell, ...]

    @property
    def length(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


@dataclass(frozen=True)
class ScanConfiguration:
    """The scan structure of a core as seen by the test infrastructure: the
    length of every chain, plus ordered cells (:attr:`chains`) only for the
    netlist-backed configurations :func:`insert_scan` builds.  Those pass
    only *chains*; their lengths are derived from the cells."""

    core_name: str
    chain_lengths: Tuple[int, ...] = ()
    chains: Tuple[ScanChain, ...] = ()
    total_cells: int = field(init=False)
    #: Longest chain; the number of shift cycles per scan load/unload.
    max_chain_length: int = field(init=False)

    def __post_init__(self):
        if self.chains:
            lengths = tuple(chain.length for chain in self.chains)
        else:
            lengths = tuple(self.chain_lengths)
        object.__setattr__(self, "chain_lengths", lengths)
        object.__setattr__(self, "total_cells", sum(lengths))
        object.__setattr__(self, "max_chain_length", max(lengths, default=0))

    @property
    def chain_count(self) -> int:
        return len(self.chain_lengths)

    def shift_cycles_per_pattern(self) -> int:
        """Shift cycles needed to load one pattern (and unload the previous
        response concurrently), excluding the capture cycle."""
        return self.max_chain_length

    def cycles_for_patterns(self, pattern_count: int,
                            capture_cycles: int = 1) -> int:
        """Total scan-test cycles for *pattern_count* patterns.

        Loading pattern *i+1* overlaps with unloading response *i*; one final
        unload is required after the last capture.
        """
        if pattern_count <= 0:
            return 0
        shift = self.shift_cycles_per_pattern()
        return pattern_count * (shift + capture_cycles) + shift

    @classmethod
    def describe(cls, core_name: str, chain_count: int,
                 total_cells: int) -> "ScanConfiguration":
        """Create a descriptive configuration without an underlying netlist.

        Cells are distributed over the chains as evenly as possible, exactly
        like :func:`insert_scan` does for real netlists.
        """
        if chain_count <= 0:
            raise ValueError("chain_count must be positive")
        if total_cells < chain_count:
            raise ValueError("need at least one cell per chain")
        base, remainder = divmod(total_cells, chain_count)
        lengths = (base + 1,) * remainder + (base,) * (chain_count - remainder)
        return cls(core_name=core_name, chain_lengths=lengths)


def insert_scan(netlist: Netlist, chain_count: int,
                core_name: Optional[str] = None) -> ScanConfiguration:
    """Partition the flip-flops of *netlist* into *chain_count* balanced chains."""
    if chain_count <= 0:
        raise ValueError("chain_count must be positive")
    flip_flop_names = sorted(netlist.flip_flops)
    if not flip_flop_names:
        raise ValueError(f"netlist {netlist.name!r} has no flip-flops to scan")
    if chain_count > len(flip_flop_names):
        raise ValueError(
            f"cannot build {chain_count} chains from "
            f"{len(flip_flop_names)} flip-flops"
        )
    chains = tuple(
        ScanChain(index=index, cells=tuple(
            ScanCell(name=name, chain_index=index, position=position)
            for position, name in enumerate(flip_flop_names[index::chain_count])
        ))
        for index in range(chain_count)
    )
    return ScanConfiguration(core_name=core_name or netlist.name, chains=chains)
