"""Protocol v2: framed sessions, batched ops, binary columnar payloads.

Four layers of evidence that the fast data plane is also a *correct* one:

* property suites — hypothesis round-trips arbitrary frames through the
  frame codec and arbitrary typed documents through the shard-block codec,
  and shows every truncation/corruption is rejected with a clear error,
  never half-decoded;
* wire regressions — a live server answers malformed/oversized frames and
  preambles with structured ``{"ok": false}`` errors plus a
  ``coordinator_protocol_errors_total`` tick instead of silently dropping
  the connection, and a framed session survives its own bad frame;
* batching semantics — multi-span leases, coalesced heartbeats, and the
  delta-merged per-worker RTT histograms in the coordinator registry;
* decoder fuzz — every bit flip and truncation of a shard block, huge or
  ragged declared lengths, foreign dtypes and a layout-1 payload are all
  refused with ``StoreError`` and never return rows; every truncation and
  bit flip of a framed stream raises ``FrameError`` or decodes to the
  original, and no declared length is allocated before it arrives; deeply
  nested JSON raises each decoder's documented error;
* differentials — campaigns of 2-row and of 128-row spans, every span
  completed as a columnar block, are byte-identical to the monolithic run
  over real sockets at 1/2/4 workers with one worker killed mid-lease, and
  a partitioned worker reconnects with bounded exponential backoff instead
  of abandoning work.
"""

import io
import json
import socket
import struct
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.campaign import campaign_from_axes
from repro.explore.coordinator import (
    FRAME_KIND_BLOCK,
    FRAME_KIND_JSON,
    MAX_FRAME_BYTES,
    PROTOCOL_MAGIC,
    READ_CHUNK_BYTES,
    Coordinator,
    CoordinatorError,
    CoordinatorServer,
    CoordinatorSession,
    FrameError,
    answer_frame,
    decode_block_payload,
    encode_block_frame,
    encode_frame,
    encode_json_frame,
    read_frame,
)
from repro.explore.distrib import MergeError, job_to_dict, plan_shards
from repro.explore.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.explore.scenarios import ScenarioSpec
from repro.explore.store import (
    COLUMN_KINDS,
    MANIFEST_NAME,
    ColumnarStore,
    StoreError,
    _column_array,
    _round_trips,
    decode_shard_block,
    encode_shard_block,
)
from repro.explore.worker import CampaignWorker, InProcessClient
from tests.explore.conftest import FlakyClient
from tests.explore.test_coordinator import (
    assert_metrics_match_status,
    assert_span_partition,
    fake_jobs,
    scripted_executor,
    submit_fake,
)


# -- hypothesis: frame codec round trips -------------------------------------

frame_kinds = st.integers(min_value=0, max_value=255)
payloads = st.binary(max_size=4096)


class TestFrameCodec:
    @settings(max_examples=100, deadline=None)
    @given(kind=frame_kinds, payload=payloads)
    def test_round_trip(self, kind, payload):
        reader = io.BytesIO(encode_frame(kind, payload))
        assert read_frame(reader) == (kind, payload)
        assert read_frame(reader) is None  # clean EOF after the frame

    @settings(max_examples=100, deadline=None)
    @given(kind=frame_kinds, payload=st.binary(min_size=1, max_size=512),
           data=st.data())
    def test_any_truncation_is_detected(self, kind, payload, data):
        encoded = encode_frame(kind, payload)
        cut = data.draw(st.integers(min_value=1, max_value=len(encoded) - 1))
        with pytest.raises(FrameError, match="mid-frame|truncated"):
            read_frame(io.BytesIO(encoded[:cut]))

    def test_oversized_length_prefix_rejected_without_reading_it(self):
        header = struct.pack(">IB", MAX_FRAME_BYTES + 1, FRAME_KIND_JSON)
        with pytest.raises(FrameError, match="exceeds"):
            read_frame(io.BytesIO(header))
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(FRAME_KIND_JSON, b"x" * (MAX_FRAME_BYTES + 1))

    @settings(max_examples=50, deadline=None)
    @given(meta=st.dictionaries(
        st.text(min_size=1, max_size=10),
        st.one_of(st.integers(min_value=-10**9, max_value=10**9),
                  st.text(max_size=20), st.booleans()),
        max_size=5),
        block=st.binary(max_size=2048))
    def test_block_frame_round_trip(self, meta, block):
        frame = encode_block_frame(meta, block)
        read = read_frame(io.BytesIO(frame))
        assert read is not None and read[0] == FRAME_KIND_BLOCK
        decoded_meta, decoded_block = decode_block_payload(read[1])
        assert decoded_meta == meta
        assert decoded_block == block

    def test_block_payload_defects_are_named(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_block_payload(b"\x00\x00")
        with pytest.raises(FrameError, match="truncated"):
            decode_block_payload(struct.pack(">I", 10) + b"{}")
        bad_json = struct.pack(">I", 3) + b"nop"
        with pytest.raises(FrameError, match="malformed"):
            decode_block_payload(bad_json)
        not_object = json.dumps([1]).encode()
        with pytest.raises(FrameError, match="not a JSON object"):
            decode_block_payload(
                struct.pack(">I", len(not_object)) + not_object)


# -- hypothesis: shard-block codec round trips --------------------------------

column_names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=8)

scalar_strategies = {
    "int": st.integers(min_value=-2**53, max_value=2**53),
    "float": st.floats(allow_nan=False, allow_infinity=False, width=64),
    "bool": st.booleans(),
    # Trailing NULs are rejected by the encoder (numpy's fixed-width
    # unicode would drop them silently); the reject path has its own test.
    "str": st.text(max_size=12).filter(lambda s: not s.endswith("\x00")),
}


@st.composite
def shard_documents(draw):
    """An arbitrary shard-result-shaped document: unique column names, one
    scalar dtype per column, 1..16 rows."""
    names = draw(st.lists(column_names, min_size=1, max_size=5, unique=True))
    kinds = [draw(st.sampled_from(sorted(scalar_strategies)))
             for _ in names]
    row_count = draw(st.integers(min_value=1, max_value=16))
    rows = [
        {name: draw(scalar_strategies[kind])
         for name, kind in zip(names, kinds)}
        for _ in range(row_count)
    ]
    return {
        "schema_version": 1,
        "shard": {"index": draw(st.integers(0, 7)), "count": 8},
        "columns": names,
        "row_count": row_count,
        "rows": rows,
    }


_VALUE_KINDS = {bool: "bool", int: "int", float: "float", str: "str"}


def miskinded_columns(document):
    """Columns the store schema declares with another kind than the
    document's values: the codec must refuse these, not coerce them."""
    return [name for name in document["columns"]
            if name in COLUMN_KINDS
            and any(_VALUE_KINDS[type(row[name])] != COLUMN_KINDS[name]
                    for row in document["rows"])]


def encode_or_refuse(document):
    """The encoded block, or None once the codec has refused a document
    with a miskinded declared column."""
    if miskinded_columns(document):
        with pytest.raises(StoreError,
                           match="cannot store losslessly|cannot represent"):
            encode_shard_block(document)
        return None
    return encode_shard_block(document)


class TestShardBlockCodec:
    @settings(max_examples=80, deadline=None)
    @given(document=shard_documents())
    def test_round_trip_is_json_identical(self, document):
        encoded = encode_or_refuse(document)
        if encoded is None:
            return
        block = decode_shard_block(encoded)
        assert block.row_count == document["row_count"]
        assert json.dumps(block.document(), sort_keys=False) == \
            json.dumps(document, sort_keys=False)

    @settings(max_examples=60, deadline=None)
    @given(document=shard_documents(), data=st.data())
    def test_any_truncation_is_rejected(self, document, data):
        encoded = encode_or_refuse(document)
        if encoded is None:
            return
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        with pytest.raises(StoreError):
            decode_shard_block(encoded[:cut])

    @settings(max_examples=60, deadline=None)
    @given(document=shard_documents(), data=st.data())
    def test_corrupt_archive_bytes_are_rejected(self, document, data):
        encoded = encode_or_refuse(document)
        if encoded is None:
            return
        encoded = bytearray(encoded)
        # Magic, header and layout lengths, CRC-32; the checksum covers
        # the rest.
        body_start = 4 + 4 + 4 + 4
        # Corrupt a tail byte (header or column buffers).
        position = data.draw(st.integers(min_value=len(encoded) - 16,
                                         max_value=len(encoded) - 1))
        if encoded[position] == 0:
            encoded[position] = 0xFF
        else:
            encoded[position] = 0
        assert position >= body_start  # the tail is inside the body
        try:
            block = decode_shard_block(bytes(encoded))
        except StoreError:
            return  # rejected with a clear error — the expected outcome
        # A flipped byte the decoder tolerates must still decode to the
        # identical arrays; silent corruption is the one forbidden outcome.
        assert json.dumps(block.document(), sort_keys=False) == \
            json.dumps(document, sort_keys=False)

    @settings(max_examples=300, deadline=None)
    @given(column=st.sampled_from(["round", "budget", "survivor", "scenario",
                                   "undeclared"]),
           values=st.lists(st.one_of(
               st.integers(min_value=-2**70, max_value=2**70),
               st.floats(), st.booleans(),
               st.text(max_size=4), st.text(max_size=3).map(
                   lambda text: text + "\x00")), max_size=6))
    def test_typed_check_refuses_what_a_json_comparison_refuses(
            self, column, values):
        """The encoder's typed lossless check agrees with serializing both
        sides: a value of another kind, mixed kinds in an undeclared
        column and trailing NULs are refused, anything else kept."""
        try:
            array = _column_array(column, values)
        except StoreError:
            return  # refused before either check runs
        assert _round_trips(array, values) == \
            (json.dumps(array.tolist()) == json.dumps(values))

    def test_defects_are_named(self):
        document = scripted_executor(plan_shards(fake_jobs(4), 2)[0])
        encoded = encode_shard_block(document)
        with pytest.raises(StoreError, match="bad magic"):
            decode_shard_block(b"XXXX" + encoded[4:])
        with pytest.raises(StoreError, match="no row list"):
            encode_shard_block({"columns": ["a"]})
        with pytest.raises(StoreError, match="declares no columns"):
            encode_shard_block({"columns": [], "rows": []})
        with pytest.raises(StoreError, match="missing column"):
            encode_shard_block({"columns": ["a", "b"], "rows": [{"a": 1}]})
        with pytest.raises(StoreError, match="NUL-terminated"):
            encode_shard_block({"columns": ["name"], "row_count": 1,
                                "rows": [{"name": "lossy\x00"}]})
        # A value of another kind than its declared column is refused,
        # never coerced (1.5 -> 1, True -> 1, 1 -> 1.0, False -> "False").
        for column, value in (("round", 1.5), ("round", True),
                              ("budget", 1), ("survivor", 0),
                              ("scenario", False)):
            with pytest.raises(StoreError, match="cannot store losslessly"):
                encode_shard_block({"columns": [column], "row_count": 1,
                                    "rows": [{column: value}]})
        for value in ("", 2**70):
            with pytest.raises(StoreError, match="cannot represent"):
                encode_shard_block({"columns": ["seed"], "row_count": 1,
                                    "rows": [{"seed": value}]})
        # Undeclared columns take one dtype; mixing kinds would coerce.
        with pytest.raises(StoreError, match="cannot store losslessly"):
            encode_shard_block({"columns": ["a"], "row_count": 2,
                                "rows": [{"a": 1}, {"a": True}]})
        # A lying row_count in the header is caught against the arrays.
        tampered = dict(document)
        tampered["row_count"] = document["row_count"] + 1
        lying = encode_shard_block({**tampered,
                                    "rows": document["rows"]})
        with pytest.raises(StoreError, match="declares"):
            decode_shard_block(lying)


# -- decoder fuzz: every malformed block is refused, none returns rows -------

def fuzz_block():
    """An honest encoded 3-row shard block."""
    return encode_shard_block(scripted_executor(
        plan_shards(fake_jobs(3), 1)[0]))


def reframe(header, layout, tail=b""):
    """A block of *header*, *layout* and column bytes *tail*, with a valid
    checksum, so only the decoder's own checks can refuse it."""
    header, layout = (json.dumps(part, separators=(",", ":")).encode("utf-8")
                      for part in (header, layout))
    body = header + layout + tail
    return struct.pack(">4sIII", b"RSB2", len(header), len(layout),
                       zlib.crc32(body)) + body


def parts_of(encoded):
    """The decoded header, layout and column bytes of a block."""
    header_len, layout_len = struct.unpack_from(">II", encoded, 4)
    layout_end = 16 + header_len + layout_len
    return (json.loads(encoded[16:16 + header_len]),
            json.loads(encoded[16 + header_len:layout_end]),
            encoded[layout_end:])


def refused(payload, match=None):
    """Decode *payload*, asserting it raises StoreError (and never returns
    a block)."""
    with pytest.raises(StoreError, match=match):
        decode_shard_block(payload)


class TestShardBlockFuzz:
    def test_every_bit_flip_is_refused(self):
        encoded = fuzz_block()
        for position in range(len(encoded)):
            for bit in range(8):
                flipped = bytearray(encoded)
                flipped[position] ^= 1 << bit
                refused(bytes(flipped))

    def test_every_truncation_is_refused(self):
        encoded = fuzz_block()
        for cut in range(len(encoded)):
            refused(encoded[:cut])

    def test_huge_header_length_is_refused_without_reading_it(self):
        encoded = fuzz_block()
        for offset in (4, 8):  # the header length, the layout length
            huge = encoded[:offset] + struct.pack(">I", 2**31) + \
                encoded[offset + 4:]
            refused(huge, "truncated shard block header")

    @pytest.mark.parametrize("length, match", [
        (2**31, "truncated shard block payload|lengths disagree"),
        (2**31 - 1, "not a multiple"),
        (5, "not a multiple"),
    ])
    def test_bad_column_byte_length_is_refused_without_allocating(
            self, length, match):
        header, layout, tail = parts_of(fuzz_block())
        position = header["columns"].index("seed")
        assert layout[position] == ["<i8", 24]
        layout[position][1] = length
        payload = reframe(header, layout, tail)
        tracemalloc.start()
        try:
            refused(payload, match)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_layout_1_payload_is_refused(self):
        """An ``RSB1`` block (one ``.npy`` file per column)."""
        header = json.dumps({"columns": ["a"], "row_count": 0}).encode()
        body = header + struct.pack(">I", 0)
        rsb1 = b"RSB1" + struct.pack(">II", len(header),
                                     zlib.crc32(body)) + body
        refused(rsb1, "bad magic")

    @pytest.mark.parametrize("dtype", [
        "|O", "|O8", "|V8", "|V0", "<i4", ">i8", "<u8", "<f4", "<c16",
        "|S8", "<U0", "<M8[s]", "i8", "int64", "<U", ""])
    def test_foreign_dtypes_never_reach_frombuffer(self, dtype, monkeypatch):
        reached = []
        original = np.frombuffer

        def spy(buffer, dtype=float, count=-1, offset=0):
            reached.append(np.dtype(dtype))
            return original(buffer, dtype=dtype, count=count, offset=offset)

        monkeypatch.setattr(np, "frombuffer", spy)
        header, layout, tail = parts_of(fuzz_block())
        header["columns"] = ["undeclared"] + header["columns"]
        refused(reframe(header, [[dtype, 8]] + layout, b"\x00" * 8 + tail),
                "layout entry")
        assert reached == []

    @pytest.mark.parametrize("entry", [
        7, "<i8", {"<i8": 24}, [["<i8"], 24], ["<i8", 24, 0], ["<i8", True],
        ["<i8", -8], ["<i8", 24.0], None])
    def test_malformed_layout_entries_are_refused(self, entry):
        encoded = fuzz_block()
        # Decoded first, so its layout is memoized: an entry equal to a
        # valid one (24.0 == 24) must still be refused.
        decode_shard_block(encoded)
        header, layout, tail = parts_of(encoded)
        layout[header["columns"].index("seed")] = entry
        refused(reframe(header, layout, tail), "layout")

    def test_layout_must_cover_the_columns(self):
        header, layout, tail = parts_of(fuzz_block())
        for other in (layout[:-1], None, {"seed": ["<i8", 24]}):
            refused(reframe(header, other, tail), "layout")
        text = json.dumps(header, separators=(",", ":")).encode("utf-8")
        body = text + b"[[" + tail  # a layout that is not JSON
        refused(struct.pack(">4sIII", b"RSB2", len(text), 2,
                            zlib.crc32(body)) + body,
                "corrupt shard block layout")
        columns = header["columns"]
        for names in ([], columns[:-1] + [7], columns[:-1] + [["seed"]]):
            refused(reframe({**header, "columns": names}, layout, tail),
                    "declares no columns")

    def test_declared_column_of_another_dtype_is_refused(self):
        header, layout, tail = parts_of(fuzz_block())
        position = header["columns"].index("seed")
        assert layout[position][0] == "<i8"
        layout[position][0] = "<f8"
        refused(reframe(header, layout, tail), "declared <i8")

    def test_honest_reframe_decodes(self):
        """The fuzz helpers themselves produce a decodable block, so the
        refusals above are the decoder's checks at work."""
        encoded = fuzz_block()
        assert reframe(*parts_of(encoded)) == encoded
        assert decode_shard_block(encoded).row_count == 3


class TestFrameFuzz:
    """``read_frame`` over truncated, bit-flipped and over-declared
    streams: each read raises ``FrameError`` or yields the original frame
    (for a block frame: what decodes to the original meta and block)."""

    def stream(self):
        """A JSON frame, a block frame and the ``(kind, payload)`` each
        encodes."""
        json_frame = encode_json_frame({"op": "status"})
        block_frame = encode_block_frame({"op": "complete", "lease_id": 1},
                                         fuzz_block())
        return (json_frame, block_frame,
                [(FRAME_KIND_JSON, json_frame[5:]),
                 (FRAME_KIND_BLOCK, block_frame[5:])])

    def test_every_truncation_yields_whole_frames_or_frame_error(self):
        json_frame, block_frame, frames = self.stream()
        encoded = json_frame + block_frame
        boundaries = {0, len(json_frame), len(encoded)}
        for cut in range(len(encoded) + 1):
            reader = io.BytesIO(encoded[:cut])
            whole = [frame for frame, end in zip(
                frames, (len(json_frame), len(encoded))) if end <= cut]
            assert [read_frame(reader) for _ in whole] == whole
            if cut in boundaries:
                assert read_frame(reader) is None
            else:
                with pytest.raises(FrameError, match="mid-frame"):
                    read_frame(reader)

    def test_every_bit_flip_of_a_block_frame_is_refused_or_original(self):
        _, encoded, frames = self.stream()
        meta, block = decode_block_payload(frames[1][1])
        meta_end = 5 + 4 + len(json.dumps(meta, separators=(",", ":")))
        original = decode_shard_block(block).document()
        for position in range(len(encoded)):
            for bit in range(8):
                flipped = bytearray(encoded)
                flipped[position] ^= 1 << bit
                try:
                    frame = read_frame(io.BytesIO(bytes(flipped)))
                    if frame[0] != FRAME_KIND_BLOCK:
                        continue  # answered as an unknown frame kind
                    got_meta, got_block = decode_block_payload(frame[1])
                    document = decode_shard_block(got_block).document()
                except (FrameError, StoreError):
                    continue
                # The meta carries no checksum; the op handler validates
                # it.  Everything else decodes to the original or fails.
                assert isinstance(got_meta, dict)
                if position >= meta_end:
                    assert got_meta == meta
                assert document == original

    @pytest.mark.parametrize("declared, sent", [
        (MAX_FRAME_BYTES, 10), (MAX_FRAME_BYTES, READ_CHUNK_BYTES + 10),
        (2**31, 10)])
    def test_declared_length_is_not_allocated_before_it_arrives(
            self, declared, sent):
        stream = struct.pack(">IB", declared, FRAME_KIND_BLOCK) + \
            b"x" * sent
        reader = io.BufferedReader(io.BytesIO(stream))
        tracemalloc.start()
        try:
            with pytest.raises(FrameError, match="mid-frame|exceeds"):
                read_frame(reader)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_payload_above_one_chunk_round_trips(self):
        payload = bytes(range(256)) * (READ_CHUNK_BYTES // 256 * 2 + 3)
        reader = io.BufferedReader(io.BytesIO(
            encode_frame(FRAME_KIND_BLOCK, payload)))
        assert read_frame(reader) == (FRAME_KIND_BLOCK, payload)
        assert read_frame(reader) is None


DEEP = b"[" * 100_000


class TestDeeplyNestedJson:
    """100 000 nested ``[`` raise each decoder's documented error, not
    ``RecursionError``."""

    def test_block_layout(self):
        header, _, tail = parts_of(fuzz_block())
        text = json.dumps(header, separators=(",", ":")).encode("utf-8")
        body = text + DEEP + tail
        refused(struct.pack(">4sIII", b"RSB2", len(text), len(DEEP),
                            zlib.crc32(body)) + body,
                "corrupt shard block layout")

    def deep_header_block(self):
        """A CRC-valid block whose header is :data:`DEEP`."""
        _, layout, tail = parts_of(fuzz_block())
        text = json.dumps(layout, separators=(",", ":")).encode("utf-8")
        body = DEEP + text + tail
        return struct.pack(">4sIII", b"RSB2", len(DEEP), len(text),
                           zlib.crc32(body)) + body

    def test_block_header(self):
        refused(self.deep_header_block(), "corrupt shard block header")

    def test_completion_meta(self):
        with pytest.raises(FrameError, match="malformed completion meta"):
            decode_block_payload(struct.pack(">I", len(DEEP)) + DEEP)

    def test_json_request_frame_is_a_counted_protocol_error(self):
        coordinator = Coordinator(lease_timeout=600.0)
        try:
            answer = answer_frame(coordinator, FRAME_KIND_JSON, DEEP)
            assert answer["ok"] is False
            assert "malformed JSON frame" in answer["error"]
            assert coordinator.status()["protocol_errors"] == 1
        finally:
            coordinator.close()

    def test_session_response_is_a_connection_error(self):
        session = CoordinatorSession(port=1)
        with pytest.raises(ConnectionError, match="malformed JSON"):
            session._parse_response((FRAME_KIND_JSON, DEEP))

    def test_store_manifest(self, tmp_path):
        path = tmp_path / "store"
        path.mkdir()
        (path / MANIFEST_NAME).write_bytes(DEEP)
        with pytest.raises(StoreError, match="not valid JSON"):
            ColumnarStore.open(path)

    def test_completion_is_a_counted_invalid_document(self, tmp_path):
        coordinator = Coordinator(lease_timeout=600.0)
        try:
            submit_fake(coordinator, tmp_path, 4, 2)
            lease, shard = coordinator.request_lease("w1")
            block = self.deep_header_block()
            with pytest.raises(MergeError, match="corrupt shard block header"):
                coordinator.complete_lease(lease.lease_id, block)
            answer = answer_frame(coordinator, FRAME_KIND_BLOCK,
                                  encode_block_frame(
                                      {"op": "complete",
                                       "lease_id": lease.lease_id},
                                      block)[5:])
            assert answer["ok"] is False
            assert coordinator.status()["invalid_documents"] == 2
            # The span stays leased: an honest completion still lands.
            assert coordinator.complete_lease(
                lease.lease_id, encode_shard_block(scripted_executor(shard)))
        finally:
            coordinator.close()


# -- wire regressions: protocol errors are answered, not dropped -------------

@pytest.fixture
def live_server():
    coordinator = Coordinator(lease_timeout=600.0)
    server = CoordinatorServer(coordinator)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield coordinator, server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)
    coordinator.close()


def raw_connect(server):
    connection = socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10.0)
    return connection


class TestProtocolErrors:
    def expect_error_line(self, connection, match):
        with connection.makefile("rb") as reader:
            line = reader.readline()
        response = json.loads(line)
        assert response["ok"] is False
        assert match in response["error"]
        return response

    def test_unknown_preamble_gets_structured_answer(self, live_server):
        coordinator, server = live_server
        with raw_connect(server) as connection:
            connection.sendall(b"GET / HTTP/1.1\r\n\r\n")
            connection.shutdown(socket.SHUT_WR)
            self.expect_error_line(connection, "unrecognized protocol")
        assert coordinator.status()["protocol_errors"] == 1

    def test_malformed_v1_json_gets_structured_answer(self, live_server):
        """A connection without the RXP2 preamble — here a JSON request
        line — gets one structured error line, is counted, and is closed."""
        coordinator, server = live_server
        with raw_connect(server) as connection:
            connection.sendall(b'{"op": "status"}\n')
            with connection.makefile("rb") as reader:
                response = json.loads(reader.readline())
                assert response["ok"] is False
                assert "unrecognized protocol preamble" in response["error"]
                assert reader.read(1) == b""  # closed after the one answer
        assert coordinator.status()["protocol_errors"] == 1

    def test_malformed_heartbeat_rtt_is_answered_not_fatal(self,
                                                          live_server):
        coordinator, server = live_server
        with CoordinatorSession(port=server.port, timeout=10.0) as session:
            for rtt in ([1], "x"):
                with pytest.raises(CoordinatorError, match="RTT snapshot"):
                    session.call({"op": "heartbeat", "lease_ids": [],
                                  "worker": "w", "rtt": rtt})
            # Same session, next op: the connection survived both frames.
            assert session._sock is not None
            connection = session._sock
            assert session.status()["protocol_errors"] == 0
            assert session._sock is connection

    def test_oversized_frame_is_answered_then_closed(self, live_server):
        coordinator, server = live_server
        with raw_connect(server) as connection:
            connection.sendall(PROTOCOL_MAGIC)
            connection.sendall(struct.pack(">IB", MAX_FRAME_BYTES + 1,
                                           FRAME_KIND_JSON))
            with connection.makefile("rb") as reader:
                frame = read_frame(reader)
                assert frame is not None
                response = json.loads(frame[1])
                assert response["ok"] is False
                assert "exceeds" in response["error"]
                # Framing is unrecoverable: the server closes the session.
                assert reader.read(1) == b""
        assert coordinator.status()["protocol_errors"] == 1

    def test_session_survives_a_malformed_json_frame(self, live_server):
        coordinator, server = live_server
        with raw_connect(server) as connection:
            connection.sendall(PROTOCOL_MAGIC)
            connection.sendall(encode_frame(FRAME_KIND_JSON, b"not json"))
            with connection.makefile("rb") as reader:
                frame = read_frame(reader)
                response = json.loads(frame[1])
                assert response["ok"] is False
                assert "malformed JSON frame" in response["error"]
                # Same socket, next frame: the session is still alive.
                connection.sendall(encode_json_frame({"op": "status"}))
                frame = read_frame(reader)
                response = json.loads(frame[1])
                assert response["ok"] is True
        status = response["status"]
        assert status["protocol_errors"] == 1

    def test_unknown_frame_kind_is_answered_and_survivable(self, live_server):
        coordinator, server = live_server
        with raw_connect(server) as connection:
            connection.sendall(PROTOCOL_MAGIC)
            connection.sendall(encode_frame(0x7F, b"??"))
            with connection.makefile("rb") as reader:
                response = json.loads(read_frame(reader)[1])
                assert response["ok"] is False
                assert "unknown frame kind" in response["error"]
                connection.sendall(encode_json_frame({"op": "status"}))
                assert json.loads(read_frame(reader)[1])["ok"] is True
        assert coordinator.status()["protocol_errors"] == 1

    def test_protocol_errors_total_reaches_the_exporter(self, live_server):
        coordinator, server = live_server
        with raw_connect(server) as connection:
            connection.sendall(b"BOGUS")
            connection.shutdown(socket.SHUT_WR)
            connection.recv(4096)
        rendered = coordinator.metrics.render()
        assert "coordinator_protocol_errors_total 1" in rendered


# -- batching: multi-span leases, coalesced heartbeats, RTT aggregation ------

class TestBatchedOps:
    def test_request_leases_grants_up_to_count(self, tmp_path):
        coordinator = Coordinator(lease_timeout=60.0)
        submit_fake(coordinator, tmp_path, 10, 4)
        try:
            granted = coordinator.request_leases("w0", 3)
            assert len(granted) == 3
            assert [shard.index for _, shard in granted] == [0, 1, 2]
            granted = coordinator.request_leases("w0", 3)
            assert len(granted) == 1  # only one span left
            assert coordinator.request_leases("w0", 3) == []
        finally:
            coordinator.close()

    def test_heartbeat_many_mixes_live_and_unknown(self, tmp_path):
        coordinator = Coordinator(lease_timeout=60.0)
        submit_fake(coordinator, tmp_path, 10, 4)
        try:
            granted = coordinator.request_leases("w0", 2)
            ids = [lease.lease_id for lease, _ in granted]
            live = coordinator.heartbeat_many(ids + [999])
            assert live == {ids[0]: True, ids[1]: True, 999: False}
        finally:
            coordinator.close()

    def test_worker_rtt_histograms_delta_merge(self):
        coordinator = Coordinator(lease_timeout=60.0)
        try:
            local = MetricsRegistry().histogram(
                "worker_heartbeat_rtt_seconds", "t", LATENCY_BUCKETS)
            local.observe(0.004)
            local.observe(0.004)
            coordinator.record_worker_rtt("w0", local.snapshot())
            # A cumulative retransmit plus one new observation: only the
            # delta lands.
            local.observe(0.3)
            coordinator.record_worker_rtt("w0", local.snapshot())
            coordinator.record_worker_rtt("w0", local.snapshot())  # no-op
            aggregated = coordinator.metrics.get(
                "worker_heartbeat_rtt_seconds")
            snapshot = aggregated.snapshot(worker="w0")
            assert snapshot["count"] == 3
            assert snapshot["sum"] == pytest.approx(0.308)
        finally:
            coordinator.close()

    def test_worker_restart_resets_the_rtt_baseline(self):
        coordinator = Coordinator(lease_timeout=60.0)
        try:
            local = MetricsRegistry().histogram(
                "worker_heartbeat_rtt_seconds", "t", LATENCY_BUCKETS)
            local.observe(0.004)
            local.observe(0.004)
            coordinator.record_worker_rtt("w0", local.snapshot())
            fresh = MetricsRegistry().histogram(
                "worker_heartbeat_rtt_seconds", "t", LATENCY_BUCKETS)
            fresh.observe(0.004)  # non-monotone vs the last snapshot
            coordinator.record_worker_rtt("w0", fresh.snapshot())
            snapshot = coordinator.metrics.get(
                "worker_heartbeat_rtt_seconds").snapshot(worker="w0")
            assert snapshot["count"] == 3  # 2 + restarted worker's 1
        finally:
            coordinator.close()

    def test_foreign_bucket_bounds_are_rejected(self):
        coordinator = Coordinator(lease_timeout=60.0)
        try:
            with pytest.raises(CoordinatorError, match="bucket bounds"):
                coordinator.record_worker_rtt(
                    "w0", {"bounds": [1.0], "counts": [0, 0], "sum": 0.0,
                           "count": 0})
        finally:
            coordinator.close()

    def test_prefetch_worker_drains_in_batches(self, tmp_path):
        coordinator = Coordinator(lease_timeout=60.0)
        campaign_id, jobs, paths = submit_fake(coordinator, tmp_path, 12, 6)
        try:
            worker = CampaignWorker(
                InProcessClient(coordinator), "batcher", max_idle_polls=1,
                heartbeat_interval=0, prefetch=4,
                executor=scripted_executor, sleep=lambda seconds: None)
            stats = worker.run()
            assert stats["completed"] == 6
            assert coordinator.campaign_progress(campaign_id)["complete"]
            assert paths["json"].read_bytes() == \
                paths["mono_json"].read_bytes()
        finally:
            coordinator.close()

    def test_threaded_in_process_workers_share_one_coordinator(self,
                                                               tmp_path):
        """More worker threads than cores, each beating its leases every
        millisecond, drive one coordinator through the in-process frame
        path with a tiny switch interval: the op handler's lock must keep
        every span merged exactly once."""
        coordinator = Coordinator(lease_timeout=60.0)
        campaign_id, jobs, paths = submit_fake(coordinator, tmp_path, 96, 96)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [CampaignWorker(
                InProcessClient(coordinator), f"t{index}", max_idle_polls=2,
                heartbeat_interval=0.001, prefetch=2,
                executor=scripted_executor, sleep=lambda seconds: None)
                for index in range(8)]
            threads = [threading.Thread(target=worker.run)
                       for worker in workers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert coordinator.campaign_progress(campaign_id)["complete"]
            assert sum(worker.stats["completed"] for worker in workers) == 96
            assert_span_partition(coordinator)
            assert_metrics_match_status(coordinator)
            assert paths["json"].read_bytes() == \
                paths["mono_json"].read_bytes()
        finally:
            coordinator.close()


# -- reconnect with bounded exponential backoff ------------------------------

class TestWorkerReconnect:
    def make_worker(self, coordinator, failures, tries, sleeps):
        flaky = FlakyClient(InProcessClient(coordinator), failures=failures)
        return flaky, CampaignWorker(
            flaky, "flaky", max_idle_polls=1, heartbeat_interval=0,
            reconnect_tries=tries, reconnect_backoff=0.5,
            executor=scripted_executor, sleep=sleeps.append)

    def test_transient_partition_is_survived(self, tmp_path):
        coordinator = Coordinator(lease_timeout=60.0)
        campaign_id, jobs, paths = submit_fake(coordinator, tmp_path, 8, 4)
        sleeps = []
        try:
            flaky, worker = self.make_worker(coordinator, 2, 3, sleeps)
            stats = worker.run()
            assert stats["completed"] == 4
            assert stats["reconnects"] == 2
            # Exponential: 0.5, then 1.0 (reset on success would restart).
            assert sleeps[:2] == [0.5, 1.0]
            assert coordinator.campaign_progress(campaign_id)["complete"]
            assert paths["json"].read_bytes() == \
                paths["mono_json"].read_bytes()
        finally:
            coordinator.close()

    def test_budget_exhaustion_abandons_the_leases(self, tmp_path):
        coordinator = Coordinator(lease_timeout=60.0)
        submit_fake(coordinator, tmp_path, 8, 4)
        sleeps = []
        try:
            flaky, worker = self.make_worker(coordinator, 10, 2, sleeps)
            stats = worker.run()
            assert stats["completed"] == 0
            assert stats["reconnects"] == 2
            assert sleeps == [0.5, 1.0]
        finally:
            coordinator.close()

    def test_default_budget_zero_exits_immediately(self, tmp_path):
        """The historical contract: without opt-in, one connection error
        still means an immediate, clean exit — and no 'reconnects' key."""
        coordinator = Coordinator(lease_timeout=60.0)
        submit_fake(coordinator, tmp_path, 8, 4)
        try:
            flaky = FlakyClient(InProcessClient(coordinator), failures=1)
            worker = CampaignWorker(flaky, "fragile", max_idle_polls=1,
                                    heartbeat_interval=0,
                                    executor=scripted_executor,
                                    sleep=lambda seconds: None)
            stats = worker.run()
            assert stats == {"leases": 0, "completed": 0, "stale": 0,
                             "idle_polls": 0}
        finally:
            coordinator.close()


# -- differential: columnar == monolithic over real sockets -----------------

#: Two real grids: 8 jobs in 5 spans of at most 2 rows, and 256 jobs in 2
#: spans of 128 rows.  Both complete every span as a columnar shard block.
PAYLOAD_GRIDS = {
    "small": ({"core_count": [1, 2], "tam_width_bits": [16, 32]},
              ScenarioSpec(name="base", patterns_per_core=16, seed=3), 5),
    "large": ({"core_count": [1, 2], "tam_width_bits": [8, 16, 32, 64],
               "seed": list(range(1, 17))},
              ScenarioSpec(name="base", patterns_per_core=4, seed=3), 2),
}


@pytest.fixture(scope="module")
def monolithic_reference(tmp_path_factory):
    references = {}
    for payload, (axes, base, spans) in PAYLOAD_GRIDS.items():
        campaign = campaign_from_axes(axes, base=base)
        tmp_path = tmp_path_factory.mktemp(f"monolithic-{payload}")
        run = campaign.run()
        json_path = tmp_path / "mono.json"
        csv_path = tmp_path / "mono.csv"
        run.write_json(json_path, deterministic=True)
        run.write_csv(csv_path, deterministic=True)
        references[payload] = {
            "jobs": campaign.jobs(), "spans": spans,
            "json": json_path.read_bytes(), "csv": csv_path.read_bytes()}
    return references


class TestDifferentialColumnarPayloads:
    @pytest.mark.parametrize("worker_count", [1, 2, 4])
    def test_columnar_json_and_monolithic_agree_with_one_kill(
            self, worker_count, tmp_path, monolithic_reference, monkeypatch):
        completions = {"block_frames": 0, "completed": 0}
        json_ops = []

        def counting(method, key):
            def counted(self, *args):
                completions[key] += 1
                return method(self, *args)
            return counted

        def recording(self, request):
            json_ops.append(request.get("op"))
            return dispatch(self, request)

        dispatch = Coordinator.dispatch
        monkeypatch.setattr(Coordinator, "dispatch", recording)
        monkeypatch.setattr(Coordinator, "dispatch_block", counting(
            Coordinator.dispatch_block, "block_frames"))
        monkeypatch.setattr(Coordinator, "complete_lease", counting(
            Coordinator.complete_lease, "completed"))
        for payload, reference in monolithic_reference.items():
            spans = plan_shards(reference["jobs"], reference["spans"])
            rows = [len(shard.jobs) for shard in spans]
            if payload == "large":
                assert min(rows) == 128
            else:
                assert max(rows) <= 2
            completions.update(block_frames=0, completed=0)
            json_ops.clear()
            coordinator = Coordinator(lease_timeout=0.5)
            server = CoordinatorServer(coordinator)
            thread = threading.Thread(target=server.serve_forever,
                                      kwargs={"poll_interval": 0.05},
                                      daemon=True)
            thread.start()
            json_path = tmp_path / f"{payload}.json"
            csv_path = tmp_path / f"{payload}.csv"
            sessions = []
            try:
                victim = CoordinatorSession(port=server.port)
                submitter = CoordinatorSession(port=server.port)
                sessions = [submitter]
                submitter.submit(
                    [job_to_dict(job) for job in reference["jobs"]],
                    len(spans),
                    json_path=str(json_path), csv_path=str(csv_path))
                # The victim takes one lease and is never heard from again;
                # the survivors pick the span up after the lease times out.
                granted = victim.request_leases("victim", 1)
                assert len(granted["leases"]) == 1
                victim.close()
                sessions += [CoordinatorSession(port=server.port)
                             for _ in range(worker_count)]
                workers = [
                    CampaignWorker(session, f"{payload}-w{index}",
                                   poll_interval=0.05, max_idle_polls=40,
                                   prefetch=2)
                    for index, session in enumerate(sessions[1:])
                ]
                threads = [threading.Thread(target=worker.run)
                           for worker in workers]
                for worker_thread in threads:
                    worker_thread.start()
                for worker_thread in threads:
                    worker_thread.join(timeout=60.0)
                status = submitter.status()
                assert status["completed_spans"] == len(spans)
                assert status["steals"] == 1
                # Every completion arrived as a block frame; no JSON op
                # completed anything.
                assert completions["completed"] >= len(spans)
                assert completions["block_frames"] == \
                    completions["completed"]
                assert "complete" not in json_ops
                assert json_path.read_bytes() == reference["json"]
                assert csv_path.read_bytes() == reference["csv"]
            finally:
                for session in sessions:
                    session.close()
                server.shutdown()
                server.server_close()
                thread.join(timeout=5.0)
                coordinator.close()
