"""Decompressor and compactor TLMs (paper, Section III-D).

Both are interface adaptors between the TAM and a core wrapper: the
decompressor expands compressed stimuli arriving from the TAM into scan data
for the wrapper, the compactor reduces the wrapper's responses (down to a
signature in the extreme case) before they travel back over the TAM.  Both are
configurable through the configuration scan bus and support a bypass mode,
and both support static as well as variable compression ratios.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from repro.kernel.channel import Channel
from repro.kernel.module import Module
from repro.kernel.simulator import Simulator
from repro.rtl.lfsr import MISR
from repro.dft.config_bus import ConfigurableRegister
from repro.dft.payload import TamCommand, TamPayload, TamResponse


class Decompressor(Channel):
    """Expands compressed test stimuli for a core wrapper.

    The adaptor is volume-oriented: it converts between compressed bits on its
    TAM side and expanded bits on its wrapper side and keeps count of both.
    A *variable* ratio can be modeled by passing ``ratio_for_pattern``, a
    callable mapping the pattern index to that pattern's compression ratio.
    """

    #: Configuration register encodings.
    MODE_BYPASS = 0
    MODE_ACTIVE = 1

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 compression_ratio: float, target_wrapper=None,
                 internal_chain_count: Optional[int] = None,
                 ratio_for_pattern: Optional[Callable[[int], float]] = None):
        super().__init__(parent, name)
        if compression_ratio < 1:
            raise ValueError("compression ratio must be >= 1")
        self.compression_ratio = compression_ratio
        self.target_wrapper = target_wrapper
        self.internal_chain_count = internal_chain_count
        self.ratio_for_pattern = ratio_for_pattern
        self.config_register = ConfigurableRegister(
            name=f"{name}.config", width_bits=4,
            on_update=self._on_config_update,
        )
        self.rewind()

    def _on_config_update(self, value: int) -> None:
        self.bypass = (value == self.MODE_BYPASS)

    def rewind(self) -> None:
        """Back to the just-built adaptor: bypass, counters zeroed."""
        self.config_register.rewind()
        self.compressed_bits_in = 0
        self.expanded_bits_out = 0
        self.patterns_expanded = 0

    def activate(self) -> None:
        """Shortcut to leave bypass mode without the configuration scan bus."""
        self.bypass = False
        self.config_register.value = self.MODE_ACTIVE

    # -- volume conversion -------------------------------------------------------
    def ratio(self, pattern_index: int = 0) -> float:
        if self.ratio_for_pattern is not None:
            ratio = self.ratio_for_pattern(pattern_index)
            if ratio < 1:
                raise ValueError("variable compression ratio must be >= 1")
            return ratio
        return self.compression_ratio

    def compressed_bits(self, expanded_bits: int, pattern_index: int = 0) -> int:
        """Compressed volume corresponding to *expanded_bits* of stimuli."""
        if self.bypass:
            return expanded_bits
        return max(1, math.ceil(expanded_bits / self.ratio(pattern_index)))

    def expand(self, compressed_bits: int, patterns: int = 1,
               pattern_index: int = 0, count: int = 1) -> int:
        """Account the expansion of *compressed_bits*; returns expanded bits.

        With *count*, accounts that many identical expansions at once, each
        rounded on its own, as *count* calls would.
        """
        if compressed_bits < 0:
            raise ValueError("compressed_bits cannot be negative")
        if self.bypass:
            expanded = compressed_bits
        else:
            expanded = round(compressed_bits * self.ratio(pattern_index))
        self.compressed_bits_in += count * compressed_bits
        self.expanded_bits_out += count * expanded
        self.patterns_expanded += count * patterns
        if self.target_wrapper is not None and patterns > 0:
            self.target_wrapper.apply_external_patterns(count * patterns,
                                                        count * expanded)
        return expanded

    # -- TAM slave interface ----------------------------------------------------------
    def tam_access(self, payload: TamPayload) -> TamPayload:
        """Compressed stimuli written over the TAM are expanded on the fly."""
        if payload.command in (TamCommand.WRITE, TamCommand.WRITE_READ):
            patterns = int(payload.attributes.get("patterns", 1))
            expanded = self.expand(payload.data_bits, patterns=patterns)
            payload.attributes["expanded_bits"] = expanded
        return payload.complete(TamResponse.OK)

    def __repr__(self):
        mode = "bypass" if self.bypass else f"{self.compression_ratio:g}x"
        return f"Decompressor({self.name!r}, {mode})"


class Compactor(Channel):
    """Compacts core responses before they travel back over the TAM."""

    MODE_BYPASS = 0
    MODE_ACTIVE = 1

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 compaction_ratio: float, signature_width: int = 32):
        super().__init__(parent, name)
        if compaction_ratio < 1:
            raise ValueError("compaction ratio must be >= 1")
        self.compaction_ratio = compaction_ratio
        self.misr = MISR(signature_width, seed=0)
        self.config_register = ConfigurableRegister(
            name=f"{name}.config", width_bits=4,
            on_update=self._on_config_update,
        )
        self.rewind()

    def _on_config_update(self, value: int) -> None:
        self.bypass = (value == self.MODE_BYPASS)

    def rewind(self) -> None:
        """Back to the just-built adaptor: bypass, counters and MISR
        zeroed."""
        self.config_register.rewind()
        self.response_bits_in = 0
        self.compacted_bits_out = 0
        self.misr.state = 0

    def activate(self) -> None:
        self.bypass = False
        self.config_register.value = self.MODE_ACTIVE

    def compact(self, response_bits: int, token: Optional[int] = None,
                count: int = 1) -> int:
        """Account compaction of *response_bits*; returns the outgoing volume.

        With *count*, accounts that many identical compactions at once.
        """
        if response_bits < 0:
            raise ValueError("response_bits cannot be negative")
        if self.bypass:
            outgoing = response_bits
        else:
            outgoing = max(1, math.ceil(response_bits / self.compaction_ratio))
        self.response_bits_in += count * response_bits
        self.compacted_bits_out += count * outgoing
        self.misr.compact(token if token is not None else response_bits,
                          count)
        return outgoing

    @property
    def signature(self) -> int:
        return self.misr.signature

    def tam_access(self, payload: TamPayload) -> TamPayload:
        """A TAM read returns the current signature."""
        if payload.command in (TamCommand.READ, TamCommand.WRITE_READ):
            payload.response_data = self.signature
        return payload.complete(TamResponse.OK)

    def __repr__(self):
        mode = "bypass" if self.bypass else f"{self.compaction_ratio:g}x"
        return f"Compactor({self.name!r}, {mode})"
