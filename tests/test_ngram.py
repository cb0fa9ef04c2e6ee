"""Golden-value tests for the hash kernels: the vectorized numpy
implementations must match a direct scalar transcription of the
reference's C semantics (cldutil_shared.cc:107-387)."""

import numpy as np
import pytest

from tools import ngram

M32 = 0xFFFFFFFF
WORD_MASK = [0xFFFFFFFF, 0x000000FF, 0x0000FFFF, 0x00FFFFFF]
PRE, POST = 0x00004444, 0x44440000


def load32(b: bytes, i: int) -> int:
    w = b[i:i + 4] + b"\0" * (4 - len(b[i:i + 4]))
    return int.from_bytes(w, "little")


def quad_scalar(b: bytes, start: int, bc: int, pre: bool, post: bool) -> int:
    prepost = (PRE if pre else 0) | (POST if post else 0)
    w0 = load32(b, start)
    if bc <= 4:
        w0 &= WORD_MASK[bc & 3]
        w0 = (w0 ^ (w0 >> 3)) & M32
        return (w0 ^ prepost) & M32
    if bc <= 8:
        w0 = (w0 ^ (w0 >> 3)) & M32
        w1 = load32(b, start + 4) & WORD_MASK[bc & 3]
        w1 = (w1 ^ (w1 << 4)) & M32
        return ((w0 ^ prepost) + w1) & M32
    w0 = (w0 ^ (w0 >> 3)) & M32
    w1 = load32(b, start + 4)
    w1 = (w1 ^ (w1 << 4)) & M32
    w2 = load32(b, start + 8) & WORD_MASK[bc & 3]
    w2 = (w2 ^ (w2 << 2)) & M32
    return ((w0 ^ prepost) + w1 + w2) & M32


def octa_scalar(b: bytes, start: int, bc: int, pre: bool, post: bool) -> int:
    M64 = (1 << 64) - 1
    prepost = (PRE if pre else 0) | (POST if post else 0)
    shifts = [("r", 3), ("l", 4), ("l", 2), ("r", 8), ("r", 4), ("r", 6)]
    ncase = min((bc - 1) >> 2, 5)
    word0 = 0
    summ = 0
    for k in range(ncase + 1):
        wk = load32(b, start + 4 * k)
        if k == ncase:
            wk &= WORD_MASK[bc & 3]
        summ = (summ + wk) & M64
        d, s = shifts[k]
        mixed = wk ^ (wk >> s if d == "r" else wk << s)
        word0 = (word0 + mixed) & M64
    summ = (summ + (summ >> 17)) & M64
    summ = (summ + (summ >> 9)) & M64
    summ = (summ & 0xFF) << 32
    return ((word0 ^ prepost) + summ) & M64


WORDS = [b"the", b"quick", b"internationalization", b"a", b"ab", b"abc",
         b"abcd", b"abcde", b"caf\xc3\xa9", b"\xd0\xbf\xd1\x80\xd0\xb8",
         b"twelve_chars", b"thirteen_char"]


@pytest.mark.parametrize("word", WORDS)
@pytest.mark.parametrize("pre,post", [(True, True), (True, False),
                                      (False, True), (False, False)])
def test_quad_hash_matches_scalar(word, pre, post):
    bc = min(len(word), 12)
    buf = np.frombuffer(word + b"\0" * 16, dtype=np.uint8)
    win = ngram.gather_windows(buf, np.array([0]), 12)
    got = ngram.quad_hash(win, np.array([bc]), np.array([pre]),
                          np.array([post]))
    assert int(got[0]) == quad_scalar(word, 0, bc, pre, post)


@pytest.mark.parametrize("word", WORDS)
@pytest.mark.parametrize("pre,post", [(True, True), (False, False)])
def test_octa_hash_matches_scalar(word, pre, post):
    bc = min(len(word), 24)
    buf = np.frombuffer(word + b"\0" * 32, dtype=np.uint8)
    win = ngram.gather_windows(buf, np.array([0]), 24)
    got = ngram.octa_hash40(win, np.array([bc]), np.array([pre]),
                            np.array([post]))
    assert int(got[0]) == octa_scalar(word, 0, bc, pre, post)


def test_quad_hash_batch_consistency():
    text = b" the quick brown fox jumps over the lazy dog "
    buf = np.frombuffer(text + b"\0" * 16, dtype=np.uint8)
    starts = np.array([1, 5, 11, 17])
    bcs = np.array([3, 5, 5, 3])
    pre = np.array([True] * 4)
    post = np.array([True] * 4)
    wins = ngram.gather_windows(buf, starts, 12)
    got = ngram.quad_hash(wins, bcs, pre, post)
    for i, (s, c) in enumerate(zip(starts, bcs)):
        assert int(got[i]) == quad_scalar(text, int(s), int(c), True, True)


def test_pair_hash():
    a, b = np.uint64(0x123456789A), np.uint64(0x55)
    got = ngram.pair_hash(np.array([a]), np.array([b]))
    expect = ((int(a) >> 13) | (int(a) << (64 - 13))) & ((1 << 64) - 1)
    expect = (expect + int(b)) & ((1 << 64) - 1)
    assert int(got[0]) == expect


def test_bi_hash_small_and_large():
    b = b"\xe4\xbd\xa0\xe5\xa5\xbd\xe5\x97"
    buf = np.frombuffer(b + b"\0" * 8, dtype=np.uint8)
    win = ngram.gather_windows(buf, np.array([0, 0]), 8)
    got = ngram.bi_hash(win, np.array([3, 6]))
    w0 = load32(b, 0) & WORD_MASK[3]
    w0 = (w0 ^ (w0 >> 3)) & M32
    assert int(got[0]) == w0
    w0 = load32(b, 0)
    w0 = (w0 ^ (w0 >> 3)) & M32
    w1 = load32(b, 4) & WORD_MASK[2]
    w1 = (w1 ^ (w1 << 18)) & M32
    assert int(got[1]) == (w0 + w1) & M32
