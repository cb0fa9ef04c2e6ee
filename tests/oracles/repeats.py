"""numpy cheap-predictor kernels: the oracles of ``native.rep_words_multi``
(the Repeats retry of ``Detector.detect_batch``) and
``native.cheap_squeeze`` (its CheapSqueeze pre-pass: ``squeeze_trigger``
gates a text, ``squeeze`` rewrites it).

The reference's loop ``hash = ((hash << 4) ^ c) & 0xfff`` with a
4096-entry last-value table keeps only the last ~3 chars in the hash,
so "char equals the value last stored under its hash" is exactly "char
equals the char that followed the previous occurrence of the same
3-char context" — a pandas groupby(context).shift(1).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

# reference: internal/compact_lang_det_impl.cc:206-214
CHUNKSIZE = 48                    # kChunksizeDefault
SPACES_THRESH_PERCENT = 25        # kSpacesThreshPercent
PREDICT_THRESH_PERCENT = 40       # kPredictThreshPercent
SQUEEZE_TEST_THRESH = 4096        # kCheapSqueezeTestThresh
SQUEEZE_TEST_LEN = 256            # kCheapSqueezeTestLen
SPACES_TRIGGER_PERCENT = 25       # kSpacesTriggerPercent
PREDICT_TRIGGER_PERCENT = 67      # kPredictTriggerPercent


def _char_values(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-char combined byte values (the c of the reference's loop:
    all UTF-8 bytes of the char packed big-endian) and byte lengths."""
    cps = np.frombuffer(text.encode("utf-32-le"), dtype="<u4").astype(np.int64)
    nbytes = 1 + (cps >= 0x80) + (cps >= 0x800) + (cps >= 0x10000)
    # pack UTF-8 bytes big-endian into one int (matches the reference's
    # c accumulation for 1..4-byte chars)
    b1 = np.where(nbytes == 1, cps, 0)
    b2m = nbytes == 2
    b3m = nbytes == 3
    b4m = nbytes == 4
    v = b1.copy()
    v[b2m] = (((0xC0 | (cps[b2m] >> 6)) << 8) | (0x80 | (cps[b2m] & 0x3F)))
    v[b3m] = (((0xE0 | (cps[b3m] >> 12)) << 16)
              | ((0x80 | ((cps[b3m] >> 6) & 0x3F)) << 8)
              | (0x80 | (cps[b3m] & 0x3F)))
    v[b4m] = (((0xF0 | (cps[b4m] >> 18)) << 24)
              | ((0x80 | ((cps[b4m] >> 12) & 0x3F)) << 16)
              | ((0x80 | ((cps[b4m] >> 6) & 0x3F)) << 8)
              | (0x80 | (cps[b4m] & 0x3F)))
    return v, nbytes


def predicted_bytes_mask_numpy(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(mask of chars predicted by the 12-bit context hash, byte length
    per char), in the pandas groupby form described in the module
    docstring. mask[i] True == the reference's ``c == tbl[hash]``
    hit."""
    v, nbytes = _char_values(text)
    if len(v) == 0:
        return np.zeros(0, dtype=bool), nbytes
    # rolling 12-bit context hash BEFORE consuming char i
    h = np.zeros(len(v), dtype=np.int64)
    c1 = np.roll(v, 1); c1[0] = 0
    c2 = np.roll(v, 2); c2[:2] = 0
    c3 = np.roll(v, 3); c3[:3] = 0
    h = ((c3 << 8) ^ (c2 << 4) ^ c1) & 0xFFF
    s = pd.Series(v)
    prev = s.groupby(pd.Series(h)).shift(1)
    mask = (prev.to_numpy() == v)
    return mask, nbytes


def count_predicted_bytes(text: str) -> int:
    """Bytes of the chars the 12-bit predictor guesses."""
    mask, nbytes = predicted_bytes_mask_numpy(text)
    return int(nbytes[mask].sum())


def squeeze_trigger(text: str) -> bool:
    """CheapSqueezeTriggerTest (impl.cc:952-971) on one text: look at
    the first 256 chars; trigger if >=25% of their bytes are spaces or
    >=67% are predicted."""
    probe = text[:SQUEEZE_TEST_LEN]
    if not probe:
        return False
    n = len(probe.encode("utf-8"))
    n_sp = probe.count(" ")
    if n_sp * 100 >= SPACES_TRIGGER_PERCENT * n:
        return True
    return count_predicted_bytes(probe) * 100 >= PREDICT_TRIGGER_PERCENT * n


def squeeze(text: str) -> str:
    """CheapSqueezeInplace (impl.cc:785-865): delete 48-byte chunks
    with >=25% spaces or >=40% predicted bytes, per chunk over char
    arrays (a char belongs to the chunk its first byte is in)."""
    mask, nbytes = predicted_bytes_mask_numpy(text)
    if len(mask) == 0:
        return text
    cps = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    cum = np.cumsum(nbytes) - nbytes  # byte offset per char
    chunk = cum // CHUNKSIZE
    nchunks = int(chunk[-1]) + 1
    sp_b = np.where(cps == 32, nbytes, 0)
    pred_b = np.where(mask, nbytes, 0)
    tot_b = np.bincount(chunk, weights=nbytes, minlength=nchunks)
    sp_sum = np.bincount(chunk, weights=sp_b, minlength=nchunks)
    pr_sum = np.bincount(chunk, weights=pred_b, minlength=nchunks)
    tot_b = np.maximum(tot_b, 1)
    drop = ((sp_sum * 100) >= (SPACES_THRESH_PERCENT * tot_b)) | \
           ((pr_sum * 100) >= (PREDICT_THRESH_PERCENT * tot_b))
    keep = ~drop[chunk]
    return cps[keep].tobytes().decode("utf-32-le")


def remove_repeated_words(span_text: str) -> str:
    """CheapRepWordsInplace (impl.cc:610-692): drop words whose bytes
    are more than half predicted. Operates on a space-framed span,
    returns a space-framed span."""
    mask, nbytes = predicted_bytes_mask_numpy(span_text)
    if len(mask) == 0:
        return span_text
    cps = np.frombuffer(span_text.encode("utf-32-le"), dtype="<u4")
    is_space = cps == 32
    word_id = np.cumsum(is_space)
    good = np.where(mask, nbytes, 0)
    word_pred = np.bincount(word_id, weights=good)
    word_len = np.bincount(word_id, weights=np.where(is_space, 0, nbytes))
    drop_word = (word_pred * 2) > word_len
    keep = ~(drop_word[word_id] & ~is_space)
    kept = cps[keep]
    # collapse any doubled spaces introduced by dropped words
    sp = kept == 32
    dbl = np.zeros(len(kept), dtype=bool)
    dbl[1:] = sp[1:] & sp[:-1]
    kept = kept[~dbl]
    out = kept.tobytes().decode("utf-32-le")
    if not out.startswith(" "):
        out = " " + out
    if not out.endswith(" "):
        out += " "
    return out
