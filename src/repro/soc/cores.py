"""Functional TLMs of the four cores of the JPEG encoder SoC.

Each core has a *mission* behaviour (used by the functional JPEG encoding
flow) and is independently described for test by a
:class:`~repro.dft.ctl.CoreTestDescription` (see :mod:`repro.soc.testplan`).
The cores communicate exclusively through the system bus, which keeps the
communication-centric TLM view intact.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Union

import numpy as np

from repro.kernel.event import Timeout
from repro.kernel.module import Module
from repro.kernel.simulator import Simulator
from repro.memory.array import MemoryArray
from repro.memory.march import MarchTest, run_march_test, run_pattern_test
from repro.soc.jpeg.color import rgb_to_ycbcr
from repro.soc.jpeg.dct import BLOCK_SIZE, blockwise, dct_2d
from repro.soc.jpeg.encoder import CHANNEL_NAMES, EncodedImage, JpegEncoder
from repro.soc.jpeg.huffman import HuffmanCodec
from repro.soc.jpeg.quantize import quantize_block
from repro.soc.jpeg.zigzag import run_length_encode, to_zigzag
from repro.dft.payload import TamCommand, TamPayload, TamResponse


class MemoryCore(Module):
    """The embedded memory core (1 MByte in the paper's case study)."""

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 words: int, word_bits: int = 8, base_address: int = 0):
        super().__init__(parent, name)
        self.array = MemoryArray(words=words, word_bits=word_bits)
        self.base_address = base_address
        self.size_words = words

    def rewind(self) -> None:
        """Return the array to its just-built contents and counters."""
        self.array.rewind()

    # -- functional (mission mode) access ------------------------------------------
    def functional_access(self, payload: TamPayload) -> TamPayload:
        offset = int(payload.attributes.get("offset", 0))
        if payload.command in (TamCommand.WRITE, TamCommand.WRITE_READ):
            data = payload.data
            if data is None:
                return payload.complete(TamResponse.OK)
            if isinstance(data, (int, np.integer)):
                self.array.raw_write(offset, int(data))
            else:
                values = np.asarray(data).ravel()
                self.array.load((int(v) for v in values), base_address=offset)
        if payload.command in (TamCommand.READ, TamCommand.WRITE_READ):
            words = int(payload.attributes.get("words", 1))
            payload.response_data = self.array.dump(offset, words)
        return payload.complete(TamResponse.OK)

    def __repr__(self):
        return f"MemoryCore({self.name!r}, words={self.size_words})"


class ColorConversionCore(Module):
    """Dedicated RGB -> YCbCr color conversion core."""

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 cycles_per_pixel: float = 1.0):
        super().__init__(parent, name)
        self.cycles_per_pixel = cycles_per_pixel
        self.rewind()

    def rewind(self) -> None:
        self._output: Optional[np.ndarray] = None
        self.pixels_processed = 0

    def processing_cycles(self, pixel_count: int) -> int:
        return max(1, math.ceil(pixel_count * self.cycles_per_pixel))

    def functional_access(self, payload: TamPayload) -> TamPayload:
        if payload.command in (TamCommand.WRITE, TamCommand.WRITE_READ):
            pixels = np.asarray(payload.data, dtype=np.float64)
            if pixels.ndim != 3 or pixels.shape[2] != 3:
                return payload.complete(TamResponse.MODE_ERROR)
            self._output = rgb_to_ycbcr(pixels)
            pixel_count = pixels.shape[0] * pixels.shape[1]
            self.pixels_processed += pixel_count
            payload.attributes["processing_cycles"] = self.processing_cycles(pixel_count)
        if payload.command in (TamCommand.READ, TamCommand.WRITE_READ):
            payload.response_data = self._output
        return payload.complete(TamResponse.OK)

    def __repr__(self):
        return f"ColorConversionCore({self.name!r}, pixels={self.pixels_processed})"


class DctCore(Module):
    """Dedicated 8x8 DCT + quantization core."""

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 cycles_per_block: int = 80, quality: int = 75):
        super().__init__(parent, name)
        self.cycles_per_block = cycles_per_block
        self._encoder = JpegEncoder(quality=quality)
        self._built_quality = quality
        self.rewind()

    def rewind(self) -> None:
        if self.quality != self._built_quality:
            self.set_quality(self._built_quality)
        self._output: Optional[np.ndarray] = None
        self.blocks_processed = 0

    @property
    def quality(self) -> int:
        return self._encoder.quality

    def set_quality(self, quality: int) -> None:
        self._encoder = JpegEncoder(quality=quality)

    def functional_access(self, payload: TamPayload) -> TamPayload:
        if payload.command in (TamCommand.WRITE, TamCommand.WRITE_READ):
            data = payload.data or {}
            block = np.asarray(data.get("block"), dtype=np.float64)
            channel = int(data.get("channel", 0))
            if block.shape != (BLOCK_SIZE, BLOCK_SIZE):
                return payload.complete(TamResponse.MODE_ERROR)
            table = self._encoder._table_for(channel)
            self._output = quantize_block(dct_2d(block), table)
            self.blocks_processed += 1
            payload.attributes["processing_cycles"] = self.cycles_per_block
        if payload.command in (TamCommand.READ, TamCommand.WRITE_READ):
            payload.response_data = self._output
        return payload.complete(TamResponse.OK)

    def __repr__(self):
        return f"DctCore({self.name!r}, blocks={self.blocks_processed})"


class ProcessorCore(Module):
    """The embedded processor core.

    In mission mode it orchestrates JPEG encoding: it moves image data between
    the memory and the hardware accelerators over the system bus and performs
    the entropy coding in software.  For test sequence 7 it executes the
    memory march program (stored in its L1 cache, hence no instruction
    fetches over the bus).
    """

    def __init__(self, parent: Union[Simulator, Module], name: str, bus,
                 cycles_per_memory_op: float = 6.0,
                 bus_busy_cycles_per_memory_op: float = 2.0,
                 software_cycles_per_symbol: int = 4):
        super().__init__(parent, name)
        self.bus = bus
        self.cycles_per_memory_op = cycles_per_memory_op
        self.bus_busy_cycles_per_memory_op = bus_busy_cycles_per_memory_op
        self.software_cycles_per_symbol = software_cycles_per_symbol
        self.rewind()

    def rewind(self) -> None:
        self.last_command: Optional[Dict[str, object]] = None
        self.images_encoded = 0

    # -- functional access (the processor as a bus slave) ----------------------------
    def functional_access(self, payload: TamPayload) -> TamPayload:
        """The processor's slave port only accepts commands (mailbox style)."""
        if payload.command in (TamCommand.WRITE, TamCommand.WRITE_READ):
            if isinstance(payload.data, dict):
                self.last_command = dict(payload.data)
        if payload.command in (TamCommand.READ, TamCommand.WRITE_READ):
            payload.response_data = self.last_command
        return payload.complete(TamResponse.OK)

    # -- mission mode: JPEG encoding over the bus ------------------------------------------
    def encode_image(self, image: np.ndarray, memory_address: int,
                     colorconv_address: int, dct_address: int,
                     quality: int = 75, row_chunk: int = 8):
        """Encode *image* using the SoC's accelerators (blocking; ``yield from``).

        Returns an :class:`~repro.soc.jpeg.encoder.EncodedImage` that is
        bit-identical to what the pure-software :class:`JpegEncoder` produces
        for the same image and quality — the hardware cores perform the same
        arithmetic, only the communication is explicit.
        """
        image = np.asarray(image)
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError("expected an HxWx3 RGB image")
        clock = self.bus.clock
        height, width = image.shape[:2]

        # 1. Store the raw image in the embedded memory (DMA-style bursts).
        flat = image.astype(np.uint8).ravel()
        offset = 0
        chunk_words = max(1, row_chunk * width * 3)
        while offset < flat.size:
            chunk = flat[offset:offset + chunk_words]
            yield from self.bus.functional_write(
                self.name, memory_address + offset, chunk,
                data_bits=int(chunk.size) * 8,
            )
            offset += chunk.size

        # 2. Read the image back and hand it to the color conversion core.
        stored = yield from self.bus.functional_read(
            self.name, memory_address, bits=int(flat.size) * 8,
        )
        del stored  # timing-relevant read; content identical to `image`
        yield from self.bus.functional_write(
            self.name, colorconv_address, image.astype(np.float64),
            data_bits=int(flat.size) * 8,
        )
        yield Timeout(clock.cycles_fs(height * width))
        ycbcr = yield from self.bus.functional_read(
            self.name, colorconv_address, bits=int(flat.size) * 8,
        )

        # 3. Per channel and per 8x8 block, use the DCT core.
        encoder = JpegEncoder(quality=quality)
        channel_blocks = {}
        for channel, channel_name in enumerate(CHANNEL_NAMES):
            plane = ycbcr[:, :, channel] - 128.0
            blocks = []
            for row, col, block in blockwise(plane):
                yield from self.bus.functional_write(
                    self.name, dct_address,
                    {"block": block, "channel": channel},
                    data_bits=BLOCK_SIZE * BLOCK_SIZE * 8,
                )
                yield Timeout(clock.cycles_fs(80))
                quantized = yield from self.bus.functional_read(
                    self.name, dct_address, bits=BLOCK_SIZE * BLOCK_SIZE * 16,
                )
                pairs = run_length_encode(to_zigzag(quantized))
                blocks.append((row, col, pairs))
            channel_blocks[channel_name] = blocks

        # 4. Entropy coding in software on the processor.
        symbols = []
        for channel_name in CHANNEL_NAMES:
            for _, _, pairs in channel_blocks[channel_name]:
                symbols.extend(pairs)
        codec = HuffmanCodec.from_symbols(symbols)
        bitstream = codec.encode(symbols)
        yield Timeout(clock.cycles_fs(len(symbols) * self.software_cycles_per_symbol))

        # 5. Store the compressed size back into memory (bookkeeping word).
        yield from self.bus.functional_write(
            self.name, memory_address, len(bitstream) & 0xFF, data_bits=32,
        )

        self.images_encoded += 1
        return EncodedImage(
            width=width, height=height, quality=quality,
            channel_blocks=channel_blocks, bitstream=bitstream,
            code_table=codec.code_table,
            quant_tables={"Y": encoder.luminance_table,
                          "Cb": encoder.chrominance_table,
                          "Cr": encoder.chrominance_table},
        )

    # -- test sequence 7: processor-driven memory march -----------------------------------------
    def run_memory_march(self, memory_core: MemoryCore, march: MarchTest,
                         pattern_backgrounds: int = 2, chunks: int = 128,
                         validation_stride: int = 257):
        """Execute the march + pattern test program on the embedded memory.

        The program itself resides in the processor's L1 cache (as in the
        paper), so only the data accesses travel over the system bus: each
        memory operation costs ``cycles_per_memory_op`` processor cycles of
        which ``bus_busy_cycles_per_memory_op`` occupy the bus.
        """
        memory = memory_core.array
        words = memory.words
        total_operations = (march.operation_count(words)
                            + 2 * pattern_backgrounds * words)
        clock = self.bus.clock

        # Functional validation pass on a subsampled address space.
        march_result = run_march_test(memory, march, stride=validation_stride,
                                      max_failures=64)
        pattern_result = run_pattern_test(memory, stride=validation_stride,
                                          max_failures=64)
        failures = len(march_result.failures) + len(pattern_result.failures)

        chunk_size = max(1, math.ceil(total_operations / max(1, chunks)))
        done = 0
        start = self.sim.now
        while done < total_operations:
            chunk = min(chunk_size, total_operations - done)
            chunk_cycles = max(1, round(chunk * self.cycles_per_memory_op))
            busy_cycles = max(1, round(chunk * self.bus_busy_cycles_per_memory_op))
            busy_cycles = min(busy_cycles, chunk_cycles)
            yield from self.bus.occupy(
                initiator=self.name, busy_cycles=busy_cycles,
                kind="memory_march", address=memory_core.base_address,
                data_bits=chunk * memory.word_bits,
                attributes={"operations": chunk},
            )
            idle_cycles = chunk_cycles - busy_cycles
            if idle_cycles > 0:
                yield Timeout(clock.cycles_fs(idle_cycles))
            done += chunk
        return {
            "operations": total_operations,
            "failures": failures,
            "march_result": march_result,
            "pattern_result": pattern_result,
            "cycles": clock.cycles_between(start, self.sim.now),
        }

    def __repr__(self):
        return f"ProcessorCore({self.name!r}, images_encoded={self.images_encoded})"
