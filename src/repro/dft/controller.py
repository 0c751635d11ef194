"""On-chip test controller TLM (paper, Section III-E).

The test controller implements the BIST control functions: it sequences logic
BIST sessions of wrapped cores and array BIST of embedded memories, reports
status to the ATE over the TAM and is itself configured through the
configuration scan bus.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Union

from repro.kernel.channel import Channel
from repro.kernel.event import Timeout
from repro.kernel.module import Module
from repro.kernel.simtime import SimTime
from repro.kernel.simulator import Simulator
from repro.memory.march import MarchTest, run_march_test, run_pattern_test
from repro.dft.config_bus import ConfigurableRegister
from repro.dft.monitor import ActivityLog
from repro.dft.payload import TamCommand, TamPayload, TamResponse
from repro.dft.tam import TamChannel
from repro.dft.wrapper import TestWrapper


class TestController(Channel):
    """Sequences on-chip BIST sessions and exposes status over the TAM."""

    __test__ = False  # a model class, not a pytest test class

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 tam: TamChannel, activity_log: Optional[ActivityLog] = None,
                 status_poll_bits: int = 32):
        super().__init__(parent, name)
        self.tam = tam
        self.activity_log = activity_log if activity_log is not None else ActivityLog()
        self.status_poll_bits = status_poll_bits
        self.config_register = ConfigurableRegister(
            name=f"{name}.config", width_bits=8,
            on_update=self._on_config_update,
        )
        self.rewind()

    def _on_config_update(self, value: int) -> None:
        self.enabled = bool(value & 0x1)

    def rewind(self) -> None:
        """Back to the just-built controller: disabled, no sessions."""
        self.config_register.rewind()
        #: Per-session status dictionaries, keyed by session name.
        self.sessions: Dict[str, Dict[str, object]] = {}

    def enable(self) -> None:
        """Shortcut to enable the controller without the configuration bus."""
        self.enabled = True
        self.config_register.value = 1

    # -- TAM slave interface (command/status port) ----------------------------------
    def tam_access(self, payload: TamPayload) -> TamPayload:
        if payload.command is TamCommand.READ:
            session = payload.attributes.get("session")
            if session is None:
                payload.response_data = {name: dict(status)
                                         for name, status in self.sessions.items()}
            else:
                payload.response_data = dict(self.sessions.get(session, {}))
        return payload.complete(TamResponse.OK)

    # -- logic BIST -----------------------------------------------------------------
    #: Chunks a logic BIST session advances in (status and power granularity).
    LOGIC_BIST_CHUNKS = 50

    def run_logic_bist(self, session: str, wrapper: TestWrapper,
                       pattern_count: int, chunks: int = LOGIC_BIST_CHUNKS,
                       power: float = 1.0):
        """Run a logic BIST session on *wrapper* (blocking; ``yield from``).

        The core-internal LFSR applies the patterns; the TAM is not used for
        pattern data.  The session advances in chunks so that progress is
        visible to ATE status polls and to the power monitor.
        """
        status = self._open_logic_bist(session, wrapper, pattern_count)
        chunk_size, _, cycles_per_pattern = self.logic_bist_chunks(
            wrapper, pattern_count, chunks)
        cycles_fs = self.tam.clock.cycles_fs
        start_fs = self.sim.now_fs
        applied = 0
        while applied < pattern_count:
            chunk = min(chunk_size, pattern_count - applied)
            yield Timeout(cycles_fs(chunk * cycles_per_pattern))
            wrapper.apply_bist_patterns(chunk)
            applied += chunk
            status["patterns_done"] = applied
        self._close_logic_bist(status, wrapper, start_fs, self.sim.now_fs,
                               power)
        return status

    def leap_logic_bist(self, session: str, wrapper: TestWrapper,
                        pattern_count: int, start_fs: int, end_fs: int,
                        power: float = 1.0) -> None:
        """Closed form of :meth:`run_logic_bist` over [*start_fs*,
        *end_fs*], for a caller that knows nothing else acts in between.

        The patterns are applied at once (the MISR folds the range as it
        would the chunks), and the session record ends as the chunk loop
        leaves it.
        """
        status = self._open_logic_bist(session, wrapper, pattern_count)
        wrapper.apply_bist_patterns(pattern_count)
        status["patterns_done"] = pattern_count
        self._close_logic_bist(status, wrapper, start_fs, end_fs, power)

    def logic_bist_chunks(self, wrapper: TestWrapper, pattern_count: int,
                          chunks: int = LOGIC_BIST_CHUNKS) -> tuple:
        """``(chunk_size, chunk_count, cycles_per_pattern)`` of a session of
        *pattern_count* patterns; every chunk but the last is full."""
        chunk_size = max(1, math.ceil(pattern_count / max(1, chunks)))
        return (chunk_size, -(-pattern_count // chunk_size),
                wrapper.shift_cycles_per_pattern(compressed=False))

    def _open_logic_bist(self, session: str, wrapper: TestWrapper,
                         pattern_count: int) -> Dict[str, object]:
        if not self.enabled:
            raise RuntimeError(f"test controller {self.name!r} is not enabled")
        if pattern_count <= 0:
            raise ValueError("pattern_count must be positive")
        status = {"kind": "logic_bist", "core": wrapper.description.core_name,
                  "patterns_total": pattern_count, "patterns_done": 0,
                  "done": False}
        self.sessions[session] = status
        return status

    def _close_logic_bist(self, status: Dict[str, object],
                          wrapper: TestWrapper, start_fs: int, end_fs: int,
                          power: float) -> None:
        status["done"] = True
        status["signature"] = wrapper.signature
        status["cycles"] = self.tam.clock.cycles_between(SimTime(start_fs),
                                                         SimTime(end_fs))
        # Once-per-session (cold) path: record_fs handles the disabled case
        # and keeps its interval validation.
        self.activity_log.record_fs(wrapper.description.core_name,
                                    "logic_bist", start_fs, end_fs, power)

    # -- memory array BIST ------------------------------------------------------------
    def run_memory_bist(self, session: str, memory_core, march: MarchTest,
                        pattern_backgrounds: int = 2,
                        cycles_per_operation: float = 1.15,
                        busy_fraction: float = 0.87,
                        chunks: int = 64, power: float = 1.0,
                        validation_stride: int = 257):
        """Run controller-driven array BIST on *memory_core* (blocking).

        The march elements and pattern backgrounds are applied back-to-back;
        each memory operation is a (pipelined) access over the system bus /
        TAM, so a ``busy_fraction`` share of the session occupies the TAM.
        A functional run of the same algorithm with address subsampling
        (*validation_stride*) checks that injected faults are actually caught.
        """
        if not self.enabled:
            raise RuntimeError(f"test controller {self.name!r} is not enabled")
        if not 0.0 <= busy_fraction <= 1.0:
            raise ValueError("busy_fraction must lie in [0, 1]")
        clock = self.tam.clock
        memory = memory_core.array
        words = memory.words
        march_operations = march.operation_count(words)
        pattern_operations = 2 * pattern_backgrounds * words
        total_operations = march_operations + pattern_operations
        total_cycles = round(total_operations * cycles_per_operation)
        status = {"kind": "memory_bist", "core": memory_core.name,
                  "operations_total": total_operations, "operations_done": 0,
                  "done": False, "failures": 0}
        self.sessions[session] = status
        start_time = self.sim.now

        # Functional validation pass on a subsampled address space.
        march_result = run_march_test(memory, march, stride=validation_stride,
                                      max_failures=64)
        pattern_result = run_pattern_test(memory, stride=validation_stride,
                                          max_failures=64)
        status["failures"] = len(march_result.failures) + len(pattern_result.failures)
        status["march_result"] = march_result
        status["pattern_result"] = pattern_result

        chunk_size = max(1, math.ceil(total_operations / max(1, chunks)))
        done_operations = 0
        while done_operations < total_operations:
            chunk = min(chunk_size, total_operations - done_operations)
            chunk_cycles = max(1, round(chunk * cycles_per_operation))
            busy_cycles = max(1, round(chunk_cycles * busy_fraction))
            yield from self.tam.occupy(
                initiator=self.name, busy_cycles=busy_cycles,
                kind="memory_bist", address=getattr(memory_core, "base_address", None),
                data_bits=chunk * memory.word_bits,
                attributes={"session": session, "operations": chunk},
            )
            idle_cycles = chunk_cycles - busy_cycles
            if idle_cycles > 0:
                yield Timeout(clock.cycles_fs(idle_cycles))
            done_operations += chunk
            status["operations_done"] = done_operations
        status["done"] = True
        status["cycles"] = clock.cycles_between(start_time, self.sim.now)
        status["expected_cycles"] = total_cycles
        self.activity_log.record_fs(memory_core.name, "memory_bist",
                                    start_time.femtoseconds, self.sim.now_fs,
                                    power)
        return status

    def __repr__(self):
        return f"TestController({self.name!r}, sessions={len(self.sessions)})"
