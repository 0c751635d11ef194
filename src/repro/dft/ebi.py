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
from repro.kernel.event import Timeout
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
        if buffer_patterns < 1:
            raise ValueError(
                f"buffer_patterns must be at least 1, got {buffer_patterns}")
        self.ate_link = ate_link
        self.tam = tam
        self.buffer_patterns = buffer_patterns
        self.config_register = ConfigurableRegister(
            name=f"{name}.config", width_bits=8,
            on_update=self._on_config_update,
        )
        self.rewind()

    def _on_config_update(self, value: int) -> None:
        self.enabled = bool(value & 0x1)

    def rewind(self) -> None:
        """Back to the just-built EBI: disabled, counters zeroed."""
        self.config_register.rewind()
        self.patterns_streamed = 0
        self.bursts_streamed = 0

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

        The general path runs the stages as plain scheduled callbacks, not
        processes: the ATE and TAM stages go through
        :meth:`AteLink.transfer_then` and :meth:`TamChannel.occupy_then`,
        the shift stage is a delayed arrival, and all three arrive at one
        :class:`Countdown` per call that resumes the streaming process.
        They push the same queue entries in the same order as one process
        per channel stage, a delayed event and an ``AllOf`` join would, so
        the activation stream is that of the process-based form.

        While both channels are free with nobody waiting, every burst that
        ends no later than :meth:`Simulator.lookahead_fs` is leapt in
        closed form instead: nothing else can act before it ends, so its
        arbiter counts, channel accounting (ATE first unless its stage is
        the longer one), model update and stats are applied at once, and
        its queue entries are credited as dispatched.  The leapt train
        ends in one ``Timeout``, itself one of the credited entries, so
        records, counters, stats, ``dispatched_activations`` and ``now``
        are those of the general path wherever anything else can look.

        The train is leapt one *run* at a time: every full burst has the
        same shape, so the bursts that fit before the lookahead, ``count =
        min(full bursts left, (lookahead - now) // period)`` with the
        longest stage as the period, are applied together (a trailing
        partial burst is a run of one).  Counters, credit and stats advance
        ``count`` times; each channel's ``_account`` takes the count and,
        for a run of more than one, hands its record back, so that the
        run's records reach the tracer in one
        :meth:`TransactionTracer.record_run_fs`, burst by burst in the
        per-burst order; the decompressor, wrapper and compactor take the
        count in one call each, bit-identical to one call per burst.
        """
        if patterns <= 0:
            raise ValueError("pattern count must be positive")
        if burst_patterns is not None and burst_patterns < 1:
            raise ValueError(
                f"burst_patterns must be at least 1, got {burst_patterns}")
        if not self.enabled:
            raise RuntimeError(
                f"EBI {self.name!r} must be enabled (configured) before streaming"
            )
        burst_size = (self.buffer_patterns if burst_patterns is None
                      else burst_patterns)
        sim = self.sim
        ate_link, tam = self.ate_link, self.tam
        ate_mutex, tam_mutex = ate_link._mutex, tam._mutex
        cycles_fs = tam.clock.cycles_fs
        remaining = patterns
        stats = {
            "patterns": 0,
            "bursts": 0,
            "ate_cycles": 0,
            "tam_busy_cycles": 0,
            "shift_cycles": 0,
        }
        shared_tracer = ate_link.tracer is tam.tracer
        join = None
        while remaining > 0:
            if ate_mutex.idle and tam_mutex.idle:
                horizon_fs = sim.lookahead_fs()
                start_fs = end_fs = sim.now_fs
                # Leapt entries: all of them, and those at the train's end.
                credit = final = 0
                while remaining > 0:
                    # A run: the bursts of one size that end by the horizon.
                    burst = min(burst_size, remaining)
                    shape = self._burst_shape(burst, timing)
                    (ate_bits, ate_response_bits, ate_cycles, tam_bits,
                     tam_cycles, shift_cycles) = shape
                    ate_fs = cycles_fs(ate_cycles)
                    tam_fs = cycles_fs(tam_cycles)
                    shift_fs = cycles_fs(shift_cycles)
                    period_fs = max(ate_fs, tam_fs, shift_fs)
                    count = remaining // burst
                    if period_fs:
                        count = min(count, (horizon_fs - end_fs) // period_fs)
                    elif end_fs > horizon_fs:
                        count = 0
                    if count <= 0:
                        break
                    ate_mutex.acquisitions += count
                    tam_mutex.acquisitions += count
                    attributes = {"patterns": burst}
                    # A run of one is recorded as the general path records
                    # it; a longer run's records reach the tracer in one
                    # call, both channels' in one list when they share a
                    # tracer, so its rounds interleave the two.
                    ate_records = tam_records = None
                    if count > 1:
                        ate_records = []
                        tam_records = ate_records if shared_tracer else []
                    ate_data_bits = max(ate_bits, ate_response_bits)
                    if ate_fs <= tam_fs:
                        ate_link._account(end_fs, end_fs + ate_fs, ate_cycles,
                                          initiator, "pattern_burst",
                                          ate_data_bits, attributes, count,
                                          ate_records)
                    tam._account(end_fs, end_fs + tam_fs, tam_cycles,
                                 initiator, "pattern_burst", address,
                                 tam_bits, attributes, count, tam_records)
                    if ate_fs > tam_fs:
                        ate_link._account(end_fs, end_fs + ate_fs, ate_cycles,
                                          initiator, "pattern_burst",
                                          ate_data_bits, attributes, count,
                                          ate_records)
                    if ate_records:
                        ate_link.tracer.record_run_fs(count, period_fs,
                                                      ate_records)
                    if tam_records and not shared_tracer:
                        tam.tracer.record_run_fs(count, period_fs,
                                                 tam_records)
                    # Per burst and channel stage: its start, its expiry
                    # (if timed) and its arrival; plus the shift arrival
                    # and the streaming process's resumption.  At the
                    # train's end lie the resumption, the shift arrival if
                    # the shift ends there, and the last two entries of
                    # each channel stage that ends there: those of the
                    # run's last burst, or of every burst of runs that
                    # take no time (all six per burst).
                    credit += count * (6 + (ate_cycles > 0)
                                       + (tam_cycles > 0))
                    if period_fs:
                        final = 0
                    final += ((1 if period_fs else count)
                              * (1 + (shift_fs == period_fs)
                                 + 2 * (ate_fs == period_fs)
                                 + 2 * (tam_fs == period_fs)))
                    self._burst_done(burst, shape, stats, timing, wrapper,
                                     decompressor, compactor, count)
                    remaining -= count * burst
                    end_fs += count * period_fs
                if credit:
                    # The entries before the train's end are folded with
                    # this timestamp, the rest with the end's, where the
                    # train's own Timeout resumption stands for one.
                    sim.credit_activations(credit - final)
                    yield Timeout(end_fs - start_fs)
                    sim.credit_activations(final - 1)
                    continue
            burst = min(burst_size, remaining)
            shape = self._burst_shape(burst, timing)
            (ate_bits, ate_response_bits, _, tam_bits, tam_cycles,
             shift_cycles) = shape
            if join is None:
                join = Countdown(sim, f"{self.name}.burst_done")
            arrive = join.arrive
            ate_link.transfer_then(
                arrive, initiator=initiator, stimulus_bits=ate_bits,
                response_bits=ate_response_bits, kind="pattern_burst",
                attributes={"patterns": burst},
            )
            tam.occupy_then(
                arrive, initiator=initiator, busy_cycles=tam_cycles,
                kind="pattern_burst", address=address, data_bits=tam_bits,
                attributes={"patterns": burst},
            )
            sim.schedule_callback(arrive, cycles_fs(shift_cycles))
            yield join.wait(3)
            self._burst_done(burst, shape, stats, timing, wrapper,
                             decompressor, compactor, 1)
            remaining -= burst
        return stats

    def _burst_shape(self, burst: int, timing: ExternalTestTiming) -> tuple:
        """``(ate_bits, ate_response_bits, ate_cycles, tam_bits, tam_cycles,
        shift_cycles)`` of one burst of *burst* patterns."""
        ate_bits = burst * timing.ate_bits_per_pattern
        ate_response_bits = burst * timing.ate_response_bits_per_pattern
        tam_bits = burst * timing.tam_bits_per_pattern
        tam = self.tam
        return (ate_bits, ate_response_bits,
                self.ate_link.transfer_cycles(ate_bits, ate_response_bits),
                tam_bits,
                tam.transfer_cycles(tam_bits) + tam.arbitration_overhead_cycles,
                burst * timing.shift_cycles_per_pattern)

    def _burst_done(self, burst: int, shape: tuple, stats: dict,
                    timing: ExternalTestTiming, wrapper, decompressor,
                    compactor, count: int) -> None:
        """Model update and stats of *count* finished bursts of one shape."""
        if decompressor is not None and not decompressor.bypass:
            decompressor.expand(burst * timing.ate_bits_per_pattern,
                                patterns=burst, count=count)
        elif wrapper is not None:
            wrapper.apply_external_patterns(count * burst)
        if compactor is not None:
            compactor.compact(
                burst * (wrapper.response_bits_per_pattern() if wrapper else 0),
                count=count,
            )
        stats["patterns"] += count * burst
        stats["bursts"] += count
        stats["ate_cycles"] += count * shape[2]
        stats["tam_busy_cycles"] += count * shape[4]
        stats["shift_cycles"] += count * shape[5]
        self.patterns_streamed += count * burst
        self.bursts_streamed += count

    # -- convenience ---------------------------------------------------------------------
    @staticmethod
    def pattern_transfer_cycles(bits_per_pattern: int, link_width: int) -> int:
        """ATE/TAM cycles to move one pattern over a link of *link_width* bits."""
        if bits_per_pattern <= 0:
            return 0
        return math.ceil(bits_per_pattern / link_width)

    def __repr__(self):
        return f"ExternalBusInterface({self.name!r}, enabled={self.enabled})"
