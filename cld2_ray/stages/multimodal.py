"""Multimodal (image/audio/video) stages.

Media travel as opaque ``binary`` columns with typed metadata columns,
processed by actor-pool map_batches stages. Image decode (24-bit BMP)
and audio parse (PCM WAV) are REAL pure-python codecs
(cld2_ray/functions/media.py) — dimensions, channels and pixel/sample
statistics come from parsing the actual bytes. Formats that would need
external codec libraries (JPEG/PNG/MP3/video) are not available in
this environment; unparseable payloads surface as ``decode_ok=False``
rows rather than crashing the stage.

The EMBED stage computes a REAL embedding with no pretrained weights:
decoded pixels are area-pooled to a fixed GxGx3 grid and projected by
a fixed-seed Gaussian random-projection matrix (Johnson-Lindenstrauss
features — distances between images are approximately preserved), then
L2-normalized. The projection matrix is built once per actor in
__init__ (the model-load-once pattern); undecodable payloads emit a
zero vector with ``embed_ok=False``.

Batch-size guidance (memory-aware): media rows are MBs each, so these
stages run with small ``batch_size`` (e.g. 8-32) and
``batch_format="pyarrow"`` to keep the binary payloads zero-copy.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from cld2_ray.functions import media

STUB_DECODE = False  # BMP/WAV decode parses real bytes
STUB_EMBED = False   # random-projection features over decoded pixels


def _pool_grid(px: np.ndarray, g: int) -> np.ndarray:
    """Area-pool (h, w, 3) uint8 pixels to a (g, g, 3) float mean grid.
    Images smaller than the grid are first upsampled by nearest-pixel
    replication so every cell is populated (otherwise a tiny image
    would embed half its features as black and break the
    nearby-images-map-nearby property)."""
    h, w, _ = px.shape
    if h < g:
        px = px[np.minimum(np.arange(g) * h // g, h - 1)]
        h = g
    if w < g:
        px = px[:, np.minimum(np.arange(g) * w // g, w - 1)]
        w = g
    yi = np.arange(h) * g // h
    xi = np.arange(w) * g // w
    pool = np.zeros((g, g, 3), np.float64)
    cnt = np.zeros((g, g), np.float64)
    np.add.at(pool, (yi[:, None], xi[None, :]), px.astype(np.float64))
    np.add.at(cnt, (yi[:, None], xi[None, :]), 1.0)
    return pool / np.maximum(cnt, 1.0)[:, :, None]


class ImageDecodeStage:
    """binary image bytes -> (width, height, channels, mean_pixel,
    decode_ok). Real BMP parsing; unknown formats -> decode_ok=False."""

    def __init__(self, image_col: str = "image"):
        self.image_col = image_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.image_col].to_pylist()
        n = len(payloads)
        w = np.zeros(n, np.int64)
        h = np.zeros(n, np.int64)
        ch = np.zeros(n, np.int64)
        mean = np.zeros(n, np.float32)
        ok = np.zeros(n, bool)
        for i, b in enumerate(payloads):
            dec = media.decode_bmp(b or b"")
            if dec is not None:
                w[i], h[i], ch[i], mean[i] = dec
                ok[i] = True
        return (batch.append_column("width", pa.array(w))
                .append_column("height", pa.array(h))
                .append_column("channels", pa.array(ch))
                .append_column("mean_pixel", pa.array(mean))
                .append_column("decode_ok", pa.array(ok)))


class ImageEmbedStage:
    """image bytes -> embedding list<float32>[dim] + embed_ok.

    Real, model-free image features: decode pixels (BMP), area-pool to
    a grid x grid x 3 mean-color tensor, project through a fixed-seed
    Gaussian matrix (built ONCE per actor in __init__ — the stateful
    actor-pool pattern a learned encoder would use), L2-normalize.
    Nearby images map to nearby vectors (JL random projection), so the
    output feeds the simsearch/near-dup operators directly."""

    def __init__(self, image_col: str = "image", dim: int = 64,
                 grid: int = 8, seed: int = 1234):
        self.image_col = image_col
        self.dim = dim
        self.grid = grid
        rng = np.random.default_rng(seed)
        n_feat = grid * grid * 3
        self.proj = rng.standard_normal((n_feat, dim)) / np.sqrt(dim)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.image_col].to_pylist()
        n = len(payloads)
        feats = np.zeros((n, self.grid * self.grid * 3), np.float64)
        ok = np.zeros(n, bool)
        for i, b in enumerate(payloads):
            px = media.decode_bmp_pixels(b or b"")
            if px is not None:
                feats[i] = (_pool_grid(px, self.grid).ravel()
                            / 255.0 - 0.5)
                ok[i] = True
        emb = feats @ self.proj                 # one matmul per batch
        norm = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = np.where(ok[:, None], emb / np.maximum(norm, 1e-12), 0.0)
        arr = pa.array(emb.astype(np.float32).tolist(),
                       type=pa.list_(pa.float32()))
        return (batch.append_column("embedding", arr)
                .append_column("embed_ok", pa.array(ok)))


class ImageResizeStage:
    """image bytes -> resized image bytes (+ out dims, resize_ok): the
    standard pre-embedding normalization step. Real pixels: BMP decode,
    nearest-neighbor sample (media.resize_nearest), BMP re-encode —
    downstream stages (decode/embed) consume the output unchanged.
    Undecodable payloads pass through with resize_ok=False."""

    def __init__(self, image_col: str = "image", out_w: int = 24,
                 out_h: int = 24):
        self.image_col = image_col
        self.out_w = out_w
        self.out_h = out_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.image_col].to_pylist()
        n = len(payloads)
        out = [b""] * n
        mean = np.zeros(n, np.float32)
        ok = np.zeros(n, bool)
        for i, b in enumerate(payloads):
            px = media.decode_bmp_pixels(b or b"")
            if px is not None:
                rs = media.resize_nearest(px, self.out_w, self.out_h)
                out[i] = media.encode_bmp(rs)
                mean[i] = float(rs.mean() / 255.0)
                ok[i] = True
        return (batch.append_column("resized",
                                    pa.array(out, pa.binary()))
                .append_column("out_width", pa.array(
                    np.where(ok, self.out_w, 0).astype(np.int64)))
                .append_column("out_height", pa.array(
                    np.where(ok, self.out_h, 0).astype(np.int64)))
                .append_column("mean_resized", pa.array(mean))
                .append_column("resize_ok", pa.array(ok)))


class AudioFrameStage:
    """binary audio bytes -> (sample_rate, n_samples, n_frames, rms,
    decode_ok). Real PCM-WAV parsing; n_frames = full frame_ms windows."""

    def __init__(self, audio_col: str = "audio", frame_ms: int = 25):
        self.audio_col = audio_col
        self.frame_ms = frame_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.audio_col].to_pylist()
        n = len(payloads)
        sr = np.zeros(n, np.int64)
        ns = np.zeros(n, np.int64)
        nf = np.zeros(n, np.int64)
        rms = np.zeros(n, np.float32)
        ok = np.zeros(n, bool)
        for i, b in enumerate(payloads):
            dec = media.decode_wav(b or b"")
            if dec is not None:
                sr[i], ns[i], rms[i] = dec
                nf[i] = ns[i] // max(sr[i] * self.frame_ms // 1000, 1)
                ok[i] = True
        return (batch.append_column("sample_rate", pa.array(sr))
                .append_column("n_samples", pa.array(ns))
                .append_column("n_frames", pa.array(nf))
                .append_column("rms", pa.array(rms))
                .append_column("decode_ok", pa.array(ok)))


class VideoFrameSampleStage:
    """binary video bytes (Y4M) -> (width, height, fps_num, n_frames,
    n_sampled, mean_luma, decode_ok). Real container parsing: frame
    markers are walked and every ``sample_every``-th luma plane is
    decoded (the classic frame-sampling stage before per-frame
    embedding); unparseable payloads -> decode_ok=False."""

    def __init__(self, video_col: str = "video", sample_every: int = 2):
        self.video_col = video_col
        self.sample_every = sample_every

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.video_col].to_pylist()
        n = len(payloads)
        w = np.zeros(n, np.int64)
        h = np.zeros(n, np.int64)
        fps = np.zeros(n, np.int64)
        nf = np.zeros(n, np.int64)
        ns = np.zeros(n, np.int64)
        luma = np.zeros(n, np.float32)
        ok = np.zeros(n, bool)
        for i, b in enumerate(payloads):
            dec = media.decode_y4m(b or b"", self.sample_every)
            if dec is not None:
                w[i], h[i], fps[i], _, nf[i], frames = dec
                ns[i] = len(frames)
                if frames:
                    luma[i] = float(np.mean([f.mean() for f in frames])
                                    / 255.0)
                ok[i] = True
        return (batch.append_column("width", pa.array(w))
                .append_column("height", pa.array(h))
                .append_column("fps_num", pa.array(fps))
                .append_column("n_frames", pa.array(nf))
                .append_column("n_sampled", pa.array(ns))
                .append_column("mean_luma", pa.array(luma))
                .append_column("decode_ok", pa.array(ok)))
