"""IEEE 1500-style test wrapper TLM (paper, Section III-B and Figure 3).

A test wrapper is a thin shell around a core.  Its wrapper instruction
register (WIR) is written through the configuration scan bus; depending on the
configured mode, transactions arriving from the TAM are either forwarded to
the core (functional/bypass mode) or interpreted as test data (test modes).
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from repro.kernel.channel import Channel
from repro.kernel.module import Module
from repro.kernel.simulator import Simulator
from repro.kernel.tracing import TransactionTracer
from repro.rtl.lfsr import LFSR, MISR
from repro.rtl.faults import enumerate_faults
from repro.rtl.simulation import FaultSimulator, ScanPattern
from repro.dft.config_bus import ConfigurableRegister
from repro.dft.ctl import CoreTestDescription
from repro.dft.payload import TamCommand, TamPayload, TamResponse


class WrapperMode(enum.Enum):
    """Operating modes of the wrapper, encoded in the WIR.

    The mandatory IEEE 1500 modes relevant to the paper's case study are
    modeled: functional (wrapper transparent), bypass, internal scan test via
    the TAM (serial or through a decompressor), internal logic BIST and
    external interconnect test.
    """

    FUNCTIONAL = 0
    BYPASS = 1
    INTEST_SCAN = 2
    INTEST_COMPRESSED = 3
    INTEST_BIST = 4
    EXTEST = 5

    @property
    def is_test_mode(self) -> bool:
        return self not in (WrapperMode.FUNCTIONAL, WrapperMode.BYPASS)


class WrapperInstructionRegister:
    """The WIR: holds the current wrapper instruction (mode)."""

    def __init__(self, width_bits: int = 8):
        self.width_bits = width_bits
        self.mode = WrapperMode.FUNCTIONAL

    def encode(self, mode: WrapperMode) -> int:
        return mode.value

    def decode(self, value: int) -> WrapperMode:
        try:
            return WrapperMode(value & ((1 << self.width_bits) - 1))
        except ValueError:
            return WrapperMode.FUNCTIONAL

    def load(self, value: int) -> WrapperMode:
        self.mode = self.decode(value)
        return self.mode


class TestWrapper(Channel):
    """Transaction level model of an IEEE 1500-style test wrapper.

    The wrapper implements the TAM slave interface (it is one of the blocks
    "accessed via the TAM" in the paper's Figure 2) and owns a
    :class:`ConfigurableRegister` that sits on the configuration scan bus and
    feeds its WIR (Figure 3).
    """

    __test__ = False  # a model class, not a pytest test class

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 description: CoreTestDescription, core=None,
                 wir_width: int = 8,
                 tracer: Optional[TransactionTracer] = None,
                 misr_width: int = 32,
                 parallel_width_bits: int = 0):
        super().__init__(parent, name)
        if parallel_width_bits < 0:
            raise ValueError("parallel port width cannot be negative")
        self.description = description
        self.core = core
        #: Width of the wrapper parallel port (WPI/WPO) towards the TAM in
        #: bits; 0 means one lane per scan chain (unconstrained, the IEEE 1500
        #: maximum-parallelism assumption the model used before the port
        #: became configurable).
        self.parallel_width_bits = parallel_width_bits
        self.tracer = tracer
        self.wir = WrapperInstructionRegister(wir_width)
        #: Register placed on the configuration scan bus; updating it loads
        #: the WIR and thereby switches the wrapper mode.
        self.wir_register = ConfigurableRegister(
            name=f"{name}.wir", width_bits=wir_width,
            on_update=self._on_wir_update,
        )
        self.misr = MISR(misr_width, seed=0)
        self.rewind()

    # -- mode handling -------------------------------------------------------
    def _on_wir_update(self, value: int) -> None:
        self.wir.load(value)

    @property
    def mode(self) -> WrapperMode:
        return self.wir.mode

    def set_mode(self, mode: WrapperMode) -> None:
        """Directly set the wrapper mode (shortcut used by tests/examples;
        the timed path goes through the configuration scan bus)."""
        self.wir.mode = mode
        self.wir_register.value = self.wir.encode(mode)

    # -- timing parameters ------------------------------------------------------
    def shift_cycles_per_pattern(self, compressed: bool = False) -> int:
        """Scan shift + capture cycles for one pattern in the current setup."""
        return self.description.shift_cycles_per_pattern(compressed=compressed)

    @property
    def scan_lanes(self) -> int:
        """Scan chains the parallel port can feed concurrently.  Feeds the
        shift-time computation below, so the property and the timing it
        describes cannot drift apart."""
        chains = self.description.chain_count
        if self.parallel_width_bits <= 0:
            return chains
        return min(chains, self.parallel_width_bits)

    def external_shift_cycles_per_pattern(self, compressed: bool = False,
                                          capture_cycles: int = 1) -> int:
        """Shift + capture cycles per externally applied pattern.

        Unlike BIST (which shifts through the core-internal chains and never
        touches the wrapper ports), external test feeds the scan chains
        through the wrapper parallel port; a port narrower than the chain
        count concatenates whole chains per lane and stretches the shift
        accordingly (see
        :meth:`~repro.dft.ctl.CoreTestDescription.external_shift_cycles_per_pattern`).
        Compressed test is unaffected: the port only carries the (small)
        compressed volume and the decompressor drives the internal chains
        directly.
        """
        if compressed and self.description.internal_chain_count:
            return self.description.shift_cycles_per_pattern(
                compressed=True, capture_cycles=capture_cycles)
        return self.description.external_shift_cycles_per_pattern(
            lanes=self.scan_lanes, capture_cycles=capture_cycles)

    def stimulus_bits_per_pattern(self) -> int:
        return self.description.stimulus_bits_per_pattern()

    def response_bits_per_pattern(self) -> int:
        return self.description.response_bits_per_pattern()

    # -- TAM slave interface --------------------------------------------------------
    def tam_access(self, payload: TamPayload) -> TamPayload:
        """Handle a transaction delivered by the TAM.

        In functional and bypass modes the transaction is forwarded to the
        wrapped core; in the test modes the payload is interpreted as test
        stimuli/responses and accounted accordingly.
        """
        if self.mode in (WrapperMode.FUNCTIONAL, WrapperMode.BYPASS):
            self.functional_accesses += 1
            if self.core is not None and hasattr(self.core, "functional_access"):
                return self.core.functional_access(payload)
            return payload.complete(TamResponse.OK)

        if self.mode in (WrapperMode.INTEST_SCAN, WrapperMode.INTEST_COMPRESSED,
                         WrapperMode.EXTEST):
            patterns = int(payload.attributes.get("patterns", 1))
            if payload.command in (TamCommand.WRITE, TamCommand.WRITE_READ):
                self.apply_external_patterns(patterns, payload.data_bits)
            if payload.command in (TamCommand.READ, TamCommand.WRITE_READ):
                payload.response_data = self.signature
            return payload.complete(TamResponse.OK)

        if self.mode is WrapperMode.INTEST_BIST:
            # In BIST mode the TAM only carries control/status accesses.
            if payload.command is TamCommand.READ:
                payload.response_data = {
                    "patterns_applied": self.bist_patterns_applied,
                    "signature": self.signature,
                }
            return payload.complete(TamResponse.OK)

        self.mode_errors += 1
        return payload.complete(TamResponse.MODE_ERROR)

    # -- convenience TAM_IF view (untimed) ---------------------------------------------
    def write(self, payload: TamPayload) -> TamPayload:
        """Untimed TAM_IF ``write`` directly on the wrapper (Figure 2 view)."""
        payload.command = TamCommand.WRITE
        return self.tam_access(payload)

    def read(self, payload: TamPayload) -> TamPayload:
        """Untimed TAM_IF ``read`` directly on the wrapper."""
        payload.command = TamCommand.READ
        return self.tam_access(payload)

    def write_read(self, payload: TamPayload) -> TamPayload:
        """Untimed TAM_IF ``write_read`` directly on the wrapper."""
        payload.command = TamCommand.WRITE_READ
        return self.tam_access(payload)

    # -- test bookkeeping ---------------------------------------------------------------
    def apply_external_patterns(self, count: int, stimulus_bits: Optional[int] = None) -> None:
        """Account *count* externally supplied scan patterns."""
        if count <= 0:
            return
        bits = (stimulus_bits if stimulus_bits is not None
                else count * self.stimulus_bits_per_pattern())
        self.patterns_applied += count
        self.external_patterns_applied += count
        self.stimulus_bits_received += bits
        self.response_bits_produced += count * self.response_bits_per_pattern()
        # Fold a deterministic token per pattern (its running number) into
        # the signature so that repeated runs produce identical, checkable
        # signatures.  Consecutive bursts coalesce into one deferred fold.
        applied = self.external_patterns_applied
        self.misr.compact_range(applied - count + 1, applied + 1)

    def apply_bist_patterns(self, count: int) -> None:
        """Account *count* patterns generated by the core-internal LFSR."""
        if count <= 0:
            return
        if not self.description.has_logic_bist:
            raise ValueError(
                f"core {self.description.core_name!r} has no logic BIST engine"
            )
        self.patterns_applied += count
        self.bist_patterns_applied += count
        self.response_bits_produced += count * self.response_bits_per_pattern()
        applied = self.bist_patterns_applied
        self.misr.compact_range(applied - count + 1, applied + 1)

    @property
    def signature(self) -> int:
        """Current MISR signature of the wrapper's compactor."""
        return self.misr.signature

    # -- validation against the (synthetic) netlist -----------------------------------------
    def validate_patterns(self, pattern_count: int = 256, seed: int = 7,
                          fault_sample: Optional[int] = 200) -> float:
        """Fault-simulate LFSR patterns on the validation netlist.

        Returns the achieved stuck-at fault coverage.  This reproduces the
        *validation* aspect of the paper: the same wrapper model that provides
        timing for exploration can be hooked to a structural core model to
        check that the test actually detects faults.
        """
        description = self.description
        if description.validation_netlist is None:
            raise ValueError(
                f"core {description.core_name!r} has no validation netlist attached"
            )
        netlist = description.validation_netlist
        scan_config = description.validation_scan_config
        lfsr_width = 32
        lfsr = LFSR(lfsr_width, seed=seed)
        flip_flop_names = sorted(netlist.flip_flops)
        input_names = list(netlist.primary_inputs)
        patterns = []
        for _ in range(pattern_count):
            ff_values = {}
            for offset in range(0, len(flip_flop_names), lfsr_width):
                word = lfsr.next_word(lfsr_width)
                for bit, name in enumerate(flip_flop_names[offset:offset + lfsr_width]):
                    ff_values[name] = (word >> bit) & 1
            pi_word = lfsr.next_word(len(input_names))
            pi_values = {name: (pi_word >> bit) & 1
                         for bit, name in enumerate(input_names)}
            patterns.append(ScanPattern(ff_values, pi_values))
        faults = enumerate_faults(netlist, sample=fault_sample, seed=seed)
        simulator = FaultSimulator(netlist, scan_config)
        return simulator.fault_coverage(patterns, faults)

    def reset_statistics(self) -> None:
        #: Statistics accumulated during test execution.
        self.patterns_applied = 0
        self.bist_patterns_applied = 0
        self.external_patterns_applied = 0
        self.stimulus_bits_received = 0
        self.response_bits_produced = 0
        self.functional_accesses = 0
        self.mode_errors = 0
        self.misr.state = 0  # the constructor's seed; drops a pending fold

    def rewind(self) -> None:
        """Return to the just-built wrapper: the WIR register's reset
        value (functional mode), zeroed statistics and MISR."""
        self.wir_register.rewind()
        self.reset_statistics()

    def __repr__(self):
        return (
            f"TestWrapper({self.name!r}, core={self.description.core_name!r}, "
            f"mode={self.mode.name}, patterns={self.patterns_applied})"
        )
