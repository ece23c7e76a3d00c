"""Payload semantics: laziness, slicing, content equality."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.daos.payload as payload_module
from repro.daos.payload import (
    BytesPayload,
    ConcatPayload,
    PatternPayload,
    _pattern_block,
)

BLOCK = PatternPayload._BLOCK


def _reference_block(seed, block):
    """The defining formula for pattern bytes, independent of the module."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=[seed, block]))
    )
    return rng.integers(0, 256, size=BLOCK, dtype=np.uint8).tobytes()


def test_bytes_payload_roundtrip():
    payload = BytesPayload(b"hello world")
    assert payload.size == 11
    assert payload.to_bytes() == b"hello world"
    assert len(payload) == 11


def test_bytes_payload_slice():
    payload = BytesPayload(b"hello world")
    assert payload.slice(6, 5).to_bytes() == b"world"


def test_slice_bounds_validated():
    payload = BytesPayload(b"abc")
    with pytest.raises(ValueError):
        payload.slice(2, 2)
    with pytest.raises(ValueError):
        payload.slice(-1, 1)


def test_pattern_payload_deterministic():
    assert PatternPayload(64, seed=1).to_bytes() == PatternPayload(64, seed=1).to_bytes()
    assert PatternPayload(64, seed=1).to_bytes() != PatternPayload(64, seed=2).to_bytes()


def test_pattern_payload_slice_is_lazy_and_consistent():
    whole = PatternPayload(1000, seed=9)
    piece = whole.slice(100, 50)
    assert isinstance(piece, PatternPayload)
    assert piece.to_bytes() == whole.to_bytes()[100:150]


def test_pattern_payload_slice_of_slice():
    whole = PatternPayload(1000, seed=9)
    nested = whole.slice(100, 500).slice(50, 20)
    assert nested.to_bytes() == whole.to_bytes()[150:170]


def test_pattern_crosses_block_boundary():
    block = PatternPayload._BLOCK
    whole = PatternPayload(block * 2 + 10, seed=3)
    spanning = whole.slice(block - 5, 10)
    assert spanning.to_bytes() == whole.to_bytes()[block - 5 : block + 5]


def test_cross_type_equality():
    pattern = PatternPayload(32, seed=4)
    assert BytesPayload(pattern.to_bytes()) == pattern
    assert pattern == BytesPayload(pattern.to_bytes())
    assert BytesPayload(b"\x00" * 32) != pattern


def test_size_mismatch_not_equal():
    assert BytesPayload(b"ab") != BytesPayload(b"abc")


def test_zero_size_pattern():
    assert PatternPayload(0, seed=1).to_bytes() == b""


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        PatternPayload(-1, seed=0)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        PatternPayload(10, seed=-1)


@pytest.mark.parametrize(
    "seed, block, digest",
    [
        (0, 0, "99010c74fb3633c7828e25fdf1e59f3f4ff4e67055fbd0bfb90066b9a3b2bc0e"),
        (1, 7, "6df49b0e421857cbb870d7cf9a6c421e04f1bf21a1b7b940a65f2f368e8a444e"),
        (2**63 + 5, 15, "ef7ee33aad25a37138e4d6bb4da55ba85ef4c2379f92e357013d78851d4a2a08"),
        (2**70 + 3, 1, "65f603e1df285075affb06e95fc152d4fc6783646c2ec2adbadc409826d47354"),
    ],
)
def test_pattern_block_stream_is_pinned(seed, block, digest):
    """Pattern bytes never move: every golden digest in the repo rests on them."""
    assert hashlib.sha256(_pattern_block(seed, block).tobytes()).hexdigest() == digest


def test_pattern_payload_digest_is_pinned():
    payload_module._DIGEST_MEMO.clear()
    assert PatternPayload(1 << 20, seed=42).content_digest().hex() == (
        "908d532c798bb120871112c357394b1f5ed0ab80b6f8dd84c5627fbf75a766f1"
    )


@given(
    seed=st.integers(min_value=0, max_value=2**70 - 1),
    block=st.integers(min_value=0, max_value=2**20 - 1),
)
@settings(max_examples=50, deadline=None)
def test_pattern_block_matches_reference_formula(seed, block):
    assert _pattern_block(seed, block).tobytes() == _reference_block(seed, block)


@st.composite
def _windows(draw):
    """A pattern window spanning 1-4 blocks that starts and ends mid-block."""
    seed = draw(st.integers(min_value=0, max_value=2**70 - 1))
    first = draw(st.integers(min_value=0, max_value=2**20 - 4))
    blocks = draw(st.integers(min_value=1, max_value=4))
    lo = draw(st.integers(min_value=1, max_value=BLOCK - 2))
    hi_min = lo + 1 if blocks == 1 else 1
    hi = draw(st.integers(min_value=hi_min, max_value=BLOCK - 1))
    origin = first * BLOCK + lo
    size = (first + blocks - 1) * BLOCK + hi - origin
    expected = b"".join(_reference_block(seed, b) for b in range(first, first + blocks))
    return PatternPayload(size, seed=seed, origin=origin), expected[lo : lo + size]


@given(first=_windows(), second=_windows())
@settings(max_examples=30, deadline=None)
def test_multi_block_windows_stream_reference_bytes(first, second):
    """Block-view streaming cuts each block at the right ``lo``/``hi``."""
    (left, left_bytes), (right, right_bytes) = first, second
    payload_module._DIGEST_MEMO.clear()  # digest through _chunks, not the memo
    for payload, expected in (
        (left, left_bytes),
        (right, right_bytes),
        (ConcatPayload([left, right]), left_bytes + right_bytes),
    ):
        assert payload.to_bytes() == expected
        assert payload.content_digest() == hashlib.sha256(expected).digest()


def test_hash_consistent_with_equality():
    pattern = PatternPayload(16, seed=5)
    raw = BytesPayload(pattern.to_bytes())
    assert hash(pattern) == hash(raw)


@given(
    size=st.integers(min_value=0, max_value=4096),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_pattern_slice_equals_bytes_slice(size, seed, data):
    """Slicing a pattern payload equals slicing its materialisation."""
    payload = PatternPayload(size, seed=seed)
    offset = data.draw(st.integers(min_value=0, max_value=size))
    length = data.draw(st.integers(min_value=0, max_value=size - offset))
    assert (
        payload.slice(offset, length).to_bytes()
        == payload.to_bytes()[offset : offset + length]
    )


def test_digest_memo_spans_instances():
    """Fresh instances of the same content reuse the memoised digest.

    Serving paths build a new payload object per request, so the digest
    memo must key on content identity, and a memo hit must agree with a
    from-scratch computation (here: the equivalent BytesPayload).
    """
    payload_module._DIGEST_MEMO.clear()
    first = PatternPayload(100_000, seed=77, origin=3)
    digest = first.content_digest()
    assert payload_module._DIGEST_MEMO  # populated by the first computation
    again = PatternPayload(100_000, seed=77, origin=3)
    assert again.content_digest() == digest
    assert digest == BytesPayload(first.to_bytes()).content_digest()
    # Concat keys compose from piece keys; equal content, equal digest.
    split = ConcatPayload([first.slice(0, 40_000), first.slice(40_000, 60_000)])
    assert split.content_digest() == digest
    assert ConcatPayload(
        [first.slice(0, 40_000), first.slice(40_000, 60_000)]
    ).content_digest() == digest


def test_pattern_blocks_are_frozen():
    """The cross-instance block cache hands out read-only arrays."""
    block = PatternPayload(16, seed=3)._block(0)
    with pytest.raises(ValueError):
        block[0] = 0
    assert isinstance(block, np.ndarray)
