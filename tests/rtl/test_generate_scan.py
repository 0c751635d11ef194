"""Unit tests for synthetic core generation and scan insertion."""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.rtl.generate import SyntheticCoreSpec, generate_netlist
from repro.rtl.netlist import Netlist
from repro.rtl.scan import ScanConfiguration, insert_scan


def flip_flop_netlist(flip_flops: int) -> Netlist:
    """A netlist of *flip_flops* unconnected flip-flops (enough for scan)."""
    netlist = Netlist("ffs")
    for index in range(flip_flops):
        netlist.add_flip_flop(f"ff{index}", f"d{index}", f"q{index}")
    return netlist


class TestSyntheticCoreSpec:
    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticCoreSpec(name="x", flip_flops=0, gates=10)
        with pytest.raises(ValueError):
            SyntheticCoreSpec(name="x", flip_flops=10, gates=5)
        with pytest.raises(ValueError):
            SyntheticCoreSpec(name="x", flip_flops=4, gates=8, primary_inputs=0)
        with pytest.raises(ValueError):
            SyntheticCoreSpec(name="x", flip_flops=4, gates=8, max_fanin=1)


class TestGenerateNetlist:
    def test_requested_sizes(self):
        spec = SyntheticCoreSpec(name="core", flip_flops=32, gates=160, seed=4)
        netlist = generate_netlist(spec)
        assert netlist.flip_flop_count == 32
        assert netlist.gate_count == 160
        assert len(netlist.primary_inputs) == spec.primary_inputs
        assert len(netlist.primary_outputs) >= 1

    def test_deterministic_for_same_seed(self):
        spec = SyntheticCoreSpec(name="core", flip_flops=16, gates=64, seed=7)
        first = generate_netlist(spec)
        second = generate_netlist(spec)
        assert [g.name for g in first.topological_gates()] == \
            [g.name for g in second.topological_gates()]
        assert {g.name: g.inputs for g in first.gates.values()} == \
            {g.name: g.inputs for g in second.gates.values()}

    def test_different_seeds_differ(self):
        base = SyntheticCoreSpec(name="core", flip_flops=16, gates=64, seed=1)
        other = SyntheticCoreSpec(name="core", flip_flops=16, gates=64, seed=2)
        first = generate_netlist(base)
        second = generate_netlist(other)
        assert {g.name: tuple(g.inputs) for g in first.gates.values()} != \
            {g.name: tuple(g.inputs) for g in second.gates.values()}

    def test_generated_netlist_is_acyclic(self, small_netlist):
        small_netlist.validate()  # would raise on a combinational cycle


class TestScanInsertion:
    def test_balanced_partition(self, small_netlist):
        config = insert_scan(small_netlist, 4)
        assert config.chain_count == 4
        assert config.total_cells == small_netlist.flip_flop_count
        lengths = [chain.length for chain in config.chains]
        assert max(lengths) - min(lengths) <= 1
        assert config.max_chain_length == max(lengths)

    def test_each_flip_flop_in_exactly_one_chain(self, small_netlist):
        config = insert_scan(small_netlist, 3)
        names = [cell.name for chain in config.chains for cell in chain]
        assert sorted(names) == sorted(small_netlist.flip_flops)

    def test_invalid_chain_counts(self, small_netlist):
        with pytest.raises(ValueError):
            insert_scan(small_netlist, 0)
        with pytest.raises(ValueError):
            insert_scan(small_netlist, small_netlist.flip_flop_count + 1)

    def test_describe_without_netlist(self):
        config = ScanConfiguration.describe("cpu", chain_count=32,
                                            total_cells=32 * 1450)
        assert config.chain_count == 32
        assert config.total_cells == 32 * 1450
        assert config.max_chain_length == 1450

    def test_describe_uneven_distribution(self):
        config = ScanConfiguration.describe("c", chain_count=3, total_cells=10)
        lengths = sorted(config.chain_lengths)
        assert lengths == [3, 3, 4]

    def test_describe_invalid_parameters(self):
        with pytest.raises(ValueError):
            ScanConfiguration.describe("c", chain_count=0, total_cells=10)
        with pytest.raises(ValueError):
            ScanConfiguration.describe("c", chain_count=5, total_cells=3)

    @given(chain_count=st.integers(1, 40), extra=st.integers(0, 200))
    def test_describe_splits_like_insert_scan(self, chain_count, extra):
        total = chain_count + extra
        inserted = insert_scan(flip_flop_netlist(total), chain_count)
        described = ScanConfiguration.describe("c", chain_count, total)
        assert described.chain_lengths == inserted.chain_lengths
        assert [chain.length for chain in inserted.chains] == \
            list(described.chain_lengths)
        assert described.total_cells == inserted.total_cells == total
        assert described.max_chain_length == inserted.max_chain_length

    def test_describe_allocates_per_chain_not_per_cell(self):
        # The paper's processor core: 32 chains of 1450 cells.  Allocating
        # one object per cell would cost megabytes; per chain, a few bytes.
        ScanConfiguration.describe("cpu", chain_count=32, total_cells=32 * 1450)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            config = ScanConfiguration.describe("cpu", chain_count=32,
                                                total_cells=32 * 1450)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert config.total_cells == 32 * 1450
        assert peak - before < 64 * 32

    def test_counts_cannot_go_stale(self):
        config = ScanConfiguration.describe("c", chain_count=4, total_cells=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.chain_lengths = (1, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.total_cells = 2
        rebuilt = dataclasses.replace(config, chain_lengths=(5, 1))
        assert (rebuilt.total_cells, rebuilt.max_chain_length) == (6, 5)

    def test_shift_and_pattern_cycle_accounting(self):
        config = ScanConfiguration.describe("c", chain_count=4, total_cells=400)
        assert config.shift_cycles_per_pattern() == 100
        # n patterns: (shift + capture) per pattern plus the final unload.
        assert config.cycles_for_patterns(10) == 10 * 101 + 100
        assert config.cycles_for_patterns(0) == 0
