"""Repetition / boilerplate detection — the cheap-predictor family.

Reimplements the reference's 12-bit-hash next-char predictor
(reference: internal/compact_lang_det_impl.cc:541-580
CountPredictedBytes, :610-692 CheapRepWordsInplace, :785-865
CheapSqueezeInplace, :952-971 CheapSqueezeTriggerTest; constants
:206-214).

Runtime path: the Repeats retry of ``Detector.detect_batch`` drops
predicted words from every span of a batch with ONE native call
(quadscan.c ``rep_words_multi``), ``squeeze_triggers`` gates the
CheapSqueeze pre-pass for a batch with one more
(``squeeze_test_multi``), and ``squeeze`` runs the native per-char
``predict_mask``. tests/oracles/repeats.py holds their numpy oracles;
tests/test_native.py checks the C kernels against them bit for bit.

Word rule (CheapRepWords): a word is a space plus the non-space chars
up to the next space; a span's first word may have no space. It is
dropped when 2 x its predicted bytes > its length, where the predicted
bytes include the leading space's (if the predictor guessed it) but
the length counts only the non-space bytes.
"""

from __future__ import annotations

import numpy as np

CHUNKSIZE = 48                    # kChunksizeDefault
SPACES_THRESH_PERCENT = 25        # kSpacesThreshPercent
PREDICT_THRESH_PERCENT = 40       # kPredictThreshPercent
SQUEEZE_TEST_THRESH = 4096        # kCheapSqueezeTestThresh
SQUEEZE_TEST_LEN = 256            # kCheapSqueezeTestLen
SPACES_TRIGGER_PERCENT = 25       # kSpacesTriggerPercent
PREDICT_TRIGGER_PERCENT = 67      # kPredictTriggerPercent


def predicted_bytes_mask(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(mask of chars predicted by the 12-bit context hash, byte length
    per char). mask[i] True == the reference's ``c == tbl[hash]`` hit."""
    from cld2_ray import native
    mask, nb = native.predict_mask(text.encode("utf-8"))
    return mask, nb.astype(np.int64)


def squeeze_triggers(texts: list[str]) -> np.ndarray:
    """CheapSqueeze pre-pass gate (impl.cc:1867-1901): bool[n], True
    where a text is longer than 4096 chars and its first 256 chars pass
    CheapSqueezeTriggerTest (impl.cc:952-971: >=25% spaces or >=67%
    predicted bytes). One native call for the batch
    (native.squeeze_test_multi); tests/oracles/repeats.py
    squeeze_trigger is the per-text oracle."""
    from cld2_ray import native
    out = np.zeros(len(texts), dtype=bool)
    long = [i for i, t in enumerate(texts)
            if t and len(t) > SQUEEZE_TEST_THRESH]
    if long:
        out[long] = native.squeeze_test_multi(
            *native.utf8_cat([texts[i][:SQUEEZE_TEST_LEN] for i in long]),
            SPACES_TRIGGER_PERCENT, PREDICT_TRIGGER_PERCENT)
    return out


def squeeze(text: str) -> str:
    """CheapSqueezeInplace (impl.cc:785-865): delete 48-byte chunks
    with >=25% spaces or >=40% predicted bytes. Vectorized per chunk
    over char arrays (chunk boundaries in bytes)."""
    mask, nbytes = predicted_bytes_mask(text)
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
