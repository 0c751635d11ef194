"""External bus interface (EBI) to the automated test equipment.

For external test, the pattern source is the ATE; the EBI translates the ATE
protocol into the TAM protocol (paper, Section III-C/E).  Besides the plain
per-transaction adaptation, the EBI implements the pipelined streaming of
pattern bursts used by the approximately-timed test flows: while the ATE link
delivers the next burst, the previous burst travels over the TAM and shifts
into the core, so the per-burst period is governed by the slowest of the three
stages — exactly the behaviour that determines test length and TAM
utilization in the case study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from repro.kernel.channel import Channel
from repro.kernel.module import Module
from repro.kernel.simulator import Simulator
from repro.kernel.sync import Countdown
from repro.dft.config_bus import ConfigurableRegister
from repro.dft.payload import TamPayload
from repro.dft.tam import AteLink, TamChannel


@dataclass
class ExternalTestTiming:
    """Per-pattern data volumes and shift time of an external scan test."""

    #: Stimulus bits per pattern moved over the ATE link (compressed volume
    #: when a compressed pattern set is streamed).
    ate_bits_per_pattern: int
    #: Response bits per pattern returned to the ATE (signature-sized when a
    #: compactor is active).
    ate_response_bits_per_pattern: int
    #: Bits per pattern that occupy the on-chip TAM (compressed volume plus
    #: expanded volume when the decompressor re-injects data onto the TAM).
    tam_bits_per_pattern: int
    #: Scan shift + capture cycles per pattern inside the core.
    shift_cycles_per_pattern: int

    def __post_init__(self):
        for name in ("ate_bits_per_pattern", "ate_response_bits_per_pattern",
                     "tam_bits_per_pattern", "shift_cycles_per_pattern"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")


class ExternalBusInterface(Channel):
    """Interface adaptor between the ATE link and the on-chip TAM."""

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 ate_link: AteLink, tam: TamChannel,
                 buffer_patterns: int = 64):
        super().__init__(parent, name)
        self.ate_link = ate_link
        self.tam = tam
        self.buffer_patterns = buffer_patterns
        self.config_register = ConfigurableRegister(
            name=f"{name}.config", width_bits=8,
            on_update=self._on_config_update,
        )
        self.enabled = False
        self.patterns_streamed = 0
        self.bursts_streamed = 0

    def _on_config_update(self, value: int) -> None:
        self.enabled = bool(value & 0x1)

    def enable(self) -> None:
        """Shortcut to enable the EBI without the configuration scan bus."""
        self.enabled = True
        self.config_register.value = 1

    # -- plain protocol translation ------------------------------------------------
    def forward(self, payload: TamPayload):
        """Translate a single ATE access into a TAM transaction (blocking)."""
        yield from self.ate_link.transfer(
            initiator=payload.initiator or self.name,
            stimulus_bits=payload.data_bits,
            response_bits=payload.response_bits,
            kind=f"ate_{payload.command.value}",
        )
        result = yield from self.tam.transport(payload)
        return result

    # -- pipelined pattern streaming --------------------------------------------------
    def stream_patterns(self, initiator: str, address: int, patterns: int,
                        timing: ExternalTestTiming,
                        wrapper=None, decompressor=None, compactor=None,
                        burst_patterns: Optional[int] = None):
        """Stream *patterns* scan patterns to the wrapper at *address*.

        Blocking call (``yield from``).  Per burst, three stages overlap:

        * the ATE link delivers the burst's stimuli (and receives responses),
        * the TAM carries the burst's on-chip data volume,
        * the target core shifts and captures the burst's patterns.

        The burst period is therefore the maximum of the three stage times,
        and each stage occupies (and is accounted on) its own resource, so the
        recorded transaction streams directly yield ATE-channel and TAM
        utilization.

        The stages are plain scheduled callbacks, not processes: the ATE and
        TAM stages go through :meth:`AteLink.transfer_then` and
        :meth:`TamChannel.occupy_then`, the shift stage is a delayed
        arrival, and all three arrive at one :class:`Countdown` per call
        that resumes the streaming process.  They push the same queue
        entries in the same order as one process per channel stage, a
        delayed event and an ``AllOf`` join would, so the activation stream
        is that of the process-based form.
        """
        if patterns <= 0:
            raise ValueError("pattern count must be positive")
        if not self.enabled:
            raise RuntimeError(
                f"EBI {self.name!r} must be enabled (configured) before streaming"
            )
        burst_size = burst_patterns or self.buffer_patterns
        clock = self.tam.clock
        remaining = patterns
        stats = {
            "patterns": 0,
            "bursts": 0,
            "ate_cycles": 0,
            "tam_busy_cycles": 0,
            "shift_cycles": 0,
        }
        join = Countdown(self.sim, f"{self.name}.burst_done")
        arrive = join.arrive
        while remaining > 0:
            burst = min(burst_size, remaining)
            ate_bits = burst * timing.ate_bits_per_pattern
            ate_response_bits = burst * timing.ate_response_bits_per_pattern
            tam_bits = burst * timing.tam_bits_per_pattern
            shift_cycles = burst * timing.shift_cycles_per_pattern
            tam_cycles = (self.tam.transfer_cycles(tam_bits)
                          + self.tam.arbitration_overhead_cycles)

            self.ate_link.transfer_then(
                arrive, initiator=initiator, stimulus_bits=ate_bits,
                response_bits=ate_response_bits, kind="pattern_burst",
                attributes={"patterns": burst},
            )
            self.tam.occupy_then(
                arrive, initiator=initiator, busy_cycles=tam_cycles,
                kind="pattern_burst", address=address, data_bits=tam_bits,
                attributes={"patterns": burst},
            )
            self.sim.schedule_callback(arrive, clock.cycles_fs(shift_cycles))
            yield join.wait(3)

            if decompressor is not None and not decompressor.bypass:
                decompressor.expand(
                    burst * timing.ate_bits_per_pattern, patterns=burst
                )
            elif wrapper is not None:
                wrapper.apply_external_patterns(burst)
            if compactor is not None:
                compactor.compact(
                    burst * (wrapper.response_bits_per_pattern() if wrapper else 0),
                )

            stats["patterns"] += burst
            stats["bursts"] += 1
            stats["ate_cycles"] += self.ate_link.transfer_cycles(
                ate_bits, ate_response_bits
            )
            stats["tam_busy_cycles"] += tam_cycles
            stats["shift_cycles"] += shift_cycles
            self.patterns_streamed += burst
            self.bursts_streamed += 1
            remaining -= burst
        return stats

    # -- convenience ---------------------------------------------------------------------
    @staticmethod
    def pattern_transfer_cycles(bits_per_pattern: int, link_width: int) -> int:
        """ATE/TAM cycles to move one pattern over a link of *link_width* bits."""
        if bits_per_pattern <= 0:
            return 0
        return math.ceil(bits_per_pattern / link_width)

    def __repr__(self):
        return f"ExternalBusInterface({self.name!r}, enabled={self.enabled})"
