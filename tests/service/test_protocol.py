"""Tests for the wire protocol (repro.service.protocol)."""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.bitmap import WAHBitVector
from repro.bitmap.builder import build_bitvectors
from repro.bitmap.binning import EqualWidthBinning
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    RemoteOverloadError,
    RemoteQueryError,
    decode_body,
    decode_mask,
    encode_frame,
    encode_mask,
    error_response,
    raise_for_error,
    recv_frame,
    send_frame,
)


class TestFraming:
    def test_round_trip(self):
        payload = {"op": "query", "sql": "SELECT MI FROM a, b", "step": 3}
        frame = encode_frame(payload)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert decode_body(frame[4:]) == payload

    def test_unicode_survives(self):
        payload = {"sql": "SELECT COUNT FROM témp, sal"}
        frame = encode_frame(payload)
        assert decode_body(frame[4:]) == payload

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="exceeds limit"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_non_json_body_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_body(b"\xff\xfe not json")

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_body(b"[1, 2, 3]")

    def test_socket_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "ping", "n": 17}
            send_frame(a, payload)
            # Two frames back to back: framing must not bleed.
            send_frame(a, {"op": "stats"})
            assert recv_frame(b) == payload
            assert recv_frame(b) == {"op": "stats"}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_is_protocol_error(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"op": "query", "sql": "SELECT MI FROM a, b"})
            a.sendall(frame[: len(frame) - 3])
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()


    def test_multi_mib_frame_in_small_chunks(self):
        """A large body trickling in small pieces is reassembled whole."""
        payload = {"op": "query", "sql": "x" * (3 << 20)}
        frame = encode_frame(payload)
        a, b = socket.socketpair()

        def trickle():
            for lo in range(0, len(frame), 1000):
                a.sendall(frame[lo:lo + 1000])

        sender = threading.Thread(target=trickle)
        sender.start()
        try:
            assert recv_frame(b) == payload
        finally:
            sender.join()
            a.close()
            b.close()

    def test_mid_header_eof_is_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"op": "ping"})[:2])
            a.close()
            with pytest.raises(ProtocolError, match="mid-header"):
                recv_frame(b)
        finally:
            b.close()

    def test_eof_after_a_frame_returns_none(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "ping"})
            a.close()
            assert recv_frame(b) == {"op": "ping"}
            assert recv_frame(b) is None
        finally:
            b.close()

class TestMaskCodec:
    def test_word_exact_round_trip(self, rng):
        binning = EqualWidthBinning(0.0, 1.0, 4)
        vectors = build_bitvectors(rng.random(500), binning)
        for vector in vectors:
            clone = decode_mask(decode_body(
                encode_frame({"m": encode_mask(vector)})[4:]
            )["m"])
            assert clone.n_bits == vector.n_bits
            assert np.array_equal(clone.words, vector.words)
            assert clone.count() == vector.count()

    def test_degenerate_vectors(self):
        for vector in (WAHBitVector.ones(97), WAHBitVector.zeros(97)):
            clone = decode_mask(encode_mask(vector))
            assert clone.count() == vector.count()
            assert np.array_equal(clone.words, vector.words)

    def test_bad_payloads_rejected(self):
        with pytest.raises(ProtocolError):
            decode_mask({"n_bits": 10})  # missing words
        with pytest.raises(ProtocolError):
            decode_mask({"n_bits": 10, "words": "!!!not-base64!!!"})
        with pytest.raises(ProtocolError, match="word-aligned"):
            decode_mask({"n_bits": 10, "words": "AAA="})  # 2 bytes


class TestErrorMapping:
    def test_ok_passes_through(self):
        assert raise_for_error({"ok": True, "value": 3.0})["value"] == 3.0

    def test_overload_maps_to_retryable(self):
        with pytest.raises(RemoteOverloadError):
            raise_for_error(error_response("overload", "busy"))

    def test_query_error_carries_kind(self):
        with pytest.raises(RemoteQueryError) as info:
            raise_for_error(error_response("query", "no such variable"))
        assert info.value.kind == "query"
        assert "no such variable" in str(info.value)

    def test_overload_is_a_query_error_subclass(self):
        # Clients catching the broad class also see overloads.
        assert issubclass(RemoteOverloadError, RemoteQueryError)
