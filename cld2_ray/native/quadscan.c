/* The native kernels of cld2_ray, one exported entry per kernel, each
 * bound by cld2_ray/native/__init__.py and checked bit for bit against
 * an independent oracle in tests/:
 *
 *  - langid: the quadgram + octagram walk (hashing, last-2 ring dedupe,
 *    table probes) fused with chunk scoring (quad_octa_chunk_score,
 *    cjk_chunk_score), the script-span scan (script_spans_scan_multi),
 *    the Repeats predictor's two uses (cheap_squeeze, the CheapSqueeze
 *    pre-pass, and rep_words_multi, the retry's word drop) and CLD2's
 *    document stage (doc_stage).  The n-gram walk and hashes mirror
 *    the reference engine's GetQuadHits / GetOctaHits / QuadHashV2 /
 *    OctaHash40 (reference: internal/cldutil.cc:315-533,
 *    internal/cldutil_shared.cc:167-358) with this engine's documented
 *    dense-sampling deviation.
 *  - the quality filter's other layers: the UTF-8 gate with HTML
 *    extraction (extract_scan_batch), the page hint scan
 *    (page_hints_scan), the quality rules' statistics (quality_scan),
 *    Python's str.lower over the extracted column in a caller's
 *    document order (lower_docs, the one lowered plane of the two aux
 *    models), fastlangid_score and ppl_score.
 *  - batched MD5 / BLAKE2b for the dedup pipelines (md5_batch,
 *    md5_windows, blake2b_batch), and table_lookup_batch, the table
 *    probe over a query array.
 *
 * Shared primitives, each defined once below: the UTF-8 decode step
 * (utf8_len / utf8_next), the UTF-8 encoder (utf8_put), the unaligned
 * little-endian loads (load_le32 / load_le64), the open-addressed table
 * probe (table_lookup; native.table_build builds the tables it reads)
 * and the Repeats predictor step (pred_step).
 * A batch of documents is the Arrow layout (data, offsets[n+1]):
 * document d is data[offsets[d], offsets[d+1]).  A kernel's pointer
 * parameters are its inputs and its outputs; its scratch is its own,
 * allocated per call (scratch_get), and no kernel keeps writable state
 * between calls, so all are reentrant.
 *
 * Build: cc -O3 -ffp-contract=off -shared -fPIC quadscan.c -o
 * quadscan.so (done by the package shim, cached next to this file).
 */

#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* Per-call scratch, the one buffer policy of these kernels: a kernel
 * allocates its scratch on entry, sized from the inputs it reads, and
 * frees it with scratch_done before it returns; callers pass only
 * inputs and outputs.  scratch_get returns n elements of size bytes
 * (zeroed if zero), each array (at most 8 per kernel) its own
 * allocation, so a sanitizer build sees every bound; a failed one
 * clears ok, and the kernel returns -1. */
typedef struct {
    void *p[8];
    int n, ok;
} scratch;

static void *scratch_get(scratch *s, int64_t n, size_t size, int zero) {
    size_t count = n > 0 ? (size_t)n : 1;
    void *p = zero ? calloc(count, size) : malloc(count * size);
    s->p[s->n++] = p;
    s->ok = s->ok && p;
    return p;
}

/* Free all of s's arrays; returns rc, the kernel's return value. */
static int64_t scratch_done(scratch *s, int64_t rc) {
    for (int i = 0; i < s->n; i++) free(s->p[i]);
    return rc;
}

/* max(hi[i] - lo[i]) over i < n, 0 if n == 0: the longest document
 * (lo = offsets, hi = offsets + 1) or span. */
static int64_t max_len(const int64_t *lo, const int64_t *hi, int64_t n) {
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++)
        if (hi[i] - lo[i] > m) m = hi[i] - lo[i];
    return m;
}

/* The UTF-8 step every kernel walks text with.  The byte length of the
 * char at p[i] (i < end) comes from its lead byte alone and is clamped
 * to the bytes left: input is not validated, a stray continuation byte
 * counts as a 2-byte lead and a char cut off at end keeps the bytes
 * present. */
static inline int utf8_len(const uint8_t *p, int64_t i, int64_t end) {
    uint8_t c = p[i];
    int l = c < 0x80 ? 1 : (c < 0xE0 ? 2 : (c < 0xF0 ? 3 : 4));
    return i + l > end ? (int)(end - i) : l;
}

/* The codepoint of the char at p[i] (i < end), decoded from the
 * utf8_len bytes stored in *len. */
static inline uint32_t utf8_next(const uint8_t *p, int64_t i, int64_t end,
                                 int *len) {
    int l = *len = utf8_len(p, i, end);
    uint32_t c = p[i];
    if (l == 1) return c;
    if (l == 2) return ((c & 0x1Fu) << 6) | (p[i + 1] & 0x3Fu);
    if (l == 3)
        return ((c & 0x0Fu) << 12) | ((p[i + 1] & 0x3Fu) << 6)
               | (p[i + 2] & 0x3Fu);
    return ((c & 0x07u) << 18) | ((p[i + 1] & 0x3Fu) << 12)
           | ((p[i + 2] & 0x3Fu) << 6) | (p[i + 3] & 0x3Fu);
}

static inline int utf8_enc_len(uint32_t cp) {
    return cp < 0x80 ? 1 : (cp < 0x800 ? 2 : (cp < 0x10000 ? 3 : 4));
}

/* Write cp's UTF-8 encoding (utf8_enc_len(cp) bytes) at out; returns
 * the byte count. */
static inline int utf8_put(uint8_t *out, uint32_t cp) {
    if (cp < 0x80) {
        out[0] = (uint8_t)cp;
        return 1;
    }
    if (cp < 0x800) {
        out[0] = 0xC0 | (cp >> 6);
        out[1] = 0x80 | (cp & 0x3F);
        return 2;
    }
    if (cp < 0x10000) {
        out[0] = 0xE0 | (cp >> 12);
        out[1] = 0x80 | ((cp >> 6) & 0x3F);
        out[2] = 0x80 | (cp & 0x3F);
        return 3;
    }
    out[0] = 0xF0 | (cp >> 18);
    out[1] = 0x80 | ((cp >> 12) & 0x3F);
    out[2] = 0x80 | ((cp >> 6) & 0x3F);
    out[3] = 0x80 | (cp & 0x3F);
    return 4;
}

static const uint32_t kWordMask0[4] = {0xFFFFFFFFu, 0x000000FFu,
                                       0x0000FFFFu, 0x00FFFFFFu};
static const uint32_t kPreSpace = 0x00004444u;
static const uint32_t kPostSpace = 0x44440000u;

/* Unaligned little-endian loads of 4 and 8 bytes at p. */
static inline uint32_t load_le32(const uint8_t *p) {
    uint32_t w;
    memcpy(&w, p, 4);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap32(w);
#endif
    return w;
}

static inline uint64_t load_le64(const uint8_t *p) {
    uint64_t w;
    memcpy(&w, p, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    return w;
}

/* little-endian 32-bit load of window bytes [4k, 4k+4); bytes at or
 * past `limit` read as 0x20 (space padding, as the numpy path pads):
 * one load inside the text, a byte loop only for the padded tail */
static inline uint32_t le32(const uint8_t *buf, int64_t pos, int64_t limit) {
    if (pos + 4 <= limit) return load_le32(buf + pos);
    uint32_t w = 0;
    for (int i = 0; i < 4; i++) {
        uint32_t b = (pos + i < limit) ? buf[pos + i] : 0x20u;
        w |= b << (8 * i);
    }
    return w;
}

static inline uint32_t quad_hash(const uint8_t *buf, int64_t s, int64_t bc,
                                 int64_t limit, int pre, int post) {
    uint32_t mask = kWordMask0[bc & 3];
    uint32_t prepost = (pre ? kPreSpace : 0u) | (post ? kPostSpace : 0u);
    uint32_t w0 = le32(buf, s, limit);
    if (bc <= 4) {
        uint32_t a = w0 & mask;
        a = a ^ (a >> 3);
        return a ^ prepost;
    }
    uint32_t a = w0 ^ (w0 >> 3);
    uint32_t w1 = le32(buf, s + 4, limit);
    if (bc <= 8) {
        uint32_t b = w1 & mask;
        b = b ^ (b << 4);
        return (a ^ prepost) + b;
    }
    uint32_t w2 = le32(buf, s + 8, limit);
    uint32_t c = w2 & mask;
    c = c ^ (c << 2);
    return (a ^ prepost) + (w1 ^ (w1 << 4)) + c;
}

static inline uint64_t octa_hash40(const uint8_t *buf, int64_t s, int64_t bc,
                                   int64_t limit) {
    /* pre = post = 1 (words are always space-delimited) */
    uint64_t prepost = (uint64_t)(kPreSpace | kPostSpace);
    uint32_t mask = kWordMask0[bc & 3];
    int64_t ncase = (bc - 1) >> 2;   /* 0..5 */
    if (ncase > 5) ncase = 5;
    uint64_t word0 = 0, summ = 0;
    static const int dirs[6] = {0, 1, 1, 0, 0, 0};  /* 0=right,1=left */
    static const int amts[6] = {3, 4, 2, 8, 4, 6};
    for (int k = 0; k <= ncase; k++) {
        uint64_t wk = le32(buf, s + 4 * k, limit);
        if (k == ncase) wk &= mask;
        summ += wk;
        word0 += wk ^ (dirs[k] ? (wk << amts[k]) : (wk >> amts[k]));
    }
    summ += summ >> 17;
    summ += summ >> 9;
    summ = (summ & 0xFFu) << 32;
    return (word0 ^ prepost) + summ;
}

/* The open-addressed table probe: power-of-two slots, linear probing
 * from the mixed key, key 0 marks an empty slot (a key 0 is stored and
 * looked up as 1) and a miss reads 0, as does a stored value of 0.
 * native.table_build writes these tables. */
static inline uint64_t table_lookup(const uint64_t *keys, const uint64_t *vals,
                                    uint64_t mask, uint64_t q) {
    if (q == 0) q = 1;
    uint64_t k = q * 0x9E3779B97F4A7C15ull;
    k ^= k >> 29;
    uint64_t idx = k & mask;
    for (;;) {
        uint64_t key = keys[idx];
        if (key == q) return vals[idx];
        if (key == 0) return 0;
        idx = (idx + 1) & mask;
    }
}

/* CLD2 4-way-associative bucket probes (reference:
 * internal/cldutil_shared.h:383-455 OctaFPJustHash/QuadFPJustHash +
 * {Octa,Quad}HashV3Lookup4). The matched entry's low bits (below
 * keymask) index a pre-decoded packed-langprob array built at
 * artifact time (tools/langmodel.py ref_tables); 0 = miss.
 * bucket_match compares all 4 slots of a bucket at once (one SSE2
 * compare where the target has it, else a loop without a branch per
 * slot) and takes the first match (the lowest set bit), as the
 * reference's slot-by-slot compare does. */
static inline uint64_t bucket_match(const uint32_t *b, uint32_t key,
                                    uint32_t keymask,
                                    const uint64_t *packed) {
#ifdef __SSE2__
    __m128i x = _mm_and_si128(
        _mm_xor_si128(_mm_loadu_si128((const __m128i *)b),
                      _mm_set1_epi32((int)key)),
        _mm_set1_epi32((int)keymask));
    unsigned m = (unsigned)_mm_movemask_ps(
        _mm_castsi128_ps(_mm_cmpeq_epi32(x, _mm_setzero_si128())));
#else
    unsigned m = 0;
    for (int k = 0; k < 4; k++)
        m |= (unsigned)(((key ^ b[k]) & keymask) == 0) << k;
#endif
    return m ? packed[b[__builtin_ctz(m)] & ~keymask] : 0;
}

static inline uint64_t bucket_lookup40(const uint32_t *buckets,
                                       uint64_t nbuckets_mask,
                                       uint32_t keymask,
                                       const uint64_t *packed,
                                       uint64_t h) {
    uint64_t subscr = (h + (h >> 12)) & nbuckets_mask;
    uint32_t key = ((uint32_t)(h >> 4)) & keymask;
    return bucket_match(buckets + 4 * subscr, key, keymask, packed);
}

static inline uint64_t bucket_lookup32(const uint32_t *buckets,
                                       uint32_t nbuckets_mask,
                                       uint32_t keymask,
                                       const uint64_t *packed,
                                       uint32_t h) {
    uint32_t subscr = (h + (h >> 12)) & nbuckets_mask;
    uint32_t key = h & keymask;
    return bucket_match(buckets + 4 * (uint64_t)subscr, key, keymask,
                        packed);
}

/* BiHashV2 (reference: internal/cldutil_shared.cc:107-122), used for
 * CJK bigrams over the raw bytes of two adjacent chars (<= 8 bytes;
 * bytes past bytecount are always masked, so padding never leaks). */
static inline uint32_t bi_hash32(const uint8_t *buf, int64_t s, int64_t bc,
                                 int64_t limit) {
    uint32_t mask = kWordMask0[bc & 3];
    uint32_t w0 = le32(buf, s, limit);
    if (bc <= 4) {
        uint32_t a = w0 & mask;
        return a ^ (a >> 3);
    }
    uint32_t a = w0 ^ (w0 >> 3);
    uint32_t w1 = le32(buf, s + 4, limit) & mask;
    return a + (w1 ^ (w1 << 18));
}

/* The 12-bit-context next-char predictor (reference CountPredictedBytes
 * compact_lang_det_impl.cc:541-580) of cheap_squeeze and
 * rep_words_multi: the char last seen under each rolling hash h of the
 * previous 3 chars.  pred_step reads the char at b[i] (i < end)
 * into *c, its bytes packed big-endian, sets *hit if the table
 * predicted it, stores it under h and advances h; it returns the
 * char's byte length. */
typedef struct { int64_t tbl[4096]; uint32_t h; } predictor;

static inline void pred_reset(predictor *p) {
    for (int k = 0; k < 4096; k++) p->tbl[k] = -1;
    p->h = 0;
}

static inline int pred_step(predictor *p, const uint8_t *b, int64_t i,
                            int64_t end, int64_t *c, int *hit) {
    int len = utf8_len(b, i, end);
    int64_t v = 0;
    for (int k = 0; k < len; k++) v = (v << 8) | b[i + k];
    *hit = p->tbl[p->h] == v;
    p->tbl[p->h] = v;
    p->h = ((p->h << 4) ^ (uint32_t)v) & 0xFFF;
    *c = v;
    return len;
}

/* Run p over the chars of b that start before lim (<= end), from *i
 * on: add their space bytes to *sp and their predicted bytes to *pr,
 * and leave *i at the first char starting at or past lim. */
static inline void pred_run(predictor *p, const uint8_t *b, int64_t *i,
                            int64_t lim, int64_t end, int64_t *sp,
                            int64_t *pr) {
    int64_t c;
    int hit;
    while (*i < lim) {
        int len = pred_step(p, b, *i, end, &c, &hit);
        if (c == ' ') (*sp)++;
        if (hit) *pr += len;
        *i += len;
    }
}

/* CheapSqueeze (reference constants compact_lang_det_impl.cc:206-214) */
#define SQ_CHUNK 48              /* kChunksizeDefault */
#define SQ_SPACES_THRESH 25      /* kSpacesThreshPercent */
#define SQ_PREDICT_THRESH 40     /* kPredictThreshPercent */
#define SQ_TEST_THRESH 4096      /* kCheapSqueezeTestThresh */
#define SQ_TEST_LEN 256          /* kCheapSqueezeTestLen */
#define SQ_SPACES_TRIGGER 25     /* kSpacesTriggerPercent */
#define SQ_PREDICT_TRIGGER 67    /* kPredictTriggerPercent */

/* The CheapSqueeze pre-pass of DetectLanguageSummaryV2
 * (compact_lang_det_impl.cc:1867-1901) over a batch: document d is
 * cat[offsets[d], offsets[d+1]).  A document of more than
 * SQ_TEST_THRESH chars whose first SQ_TEST_LEN chars pass
 * CheapSqueezeTriggerTest (:952-971: spaces make up >= 25% of their
 * bytes, or the predictor guesses >= 67% of them) is squeezed
 * (CheapSqueezeInplace, :785-865): the predictor restarts and runs over
 * the whole document, and each 48-byte chunk (a char belongs to the
 * chunk its first byte is in) with >= 25% space bytes or >= 40%
 * predicted bytes is deleted.  Every other document is copied as it
 * is.  out (as many bytes as the input) gets the documents back to
 * back, out_offsets[n+1] their bounds and squeezed[d] 1 where d was
 * squeezed.  Returns the output length.  tests/oracles/repeats.py
 * (squeeze_trigger, squeeze) is the oracle. */
int64_t cheap_squeeze(const uint8_t *cat, const int64_t *offsets,
                      int64_t n_docs, uint8_t *out, int64_t *out_offsets,
                      uint8_t *squeezed) {
    predictor p;
    int64_t o = 0;
    out_offsets[0] = 0;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t start = offsets[d], end = offsets[d + 1];
        int64_t i = start, probe = start, nc = 0, sp = 0, pr = 0;
        for (; i < end && nc <= SQ_TEST_THRESH; nc++) {
            if (nc == SQ_TEST_LEN) probe = i;
            i += utf8_len(cat, i, end);
        }
        int sq = 0;
        if (nc > SQ_TEST_THRESH) {
            int64_t n = probe - start;
            pred_reset(&p);
            i = start;
            pred_run(&p, cat, &i, probe, end, &sp, &pr);
            sq = sp * 100 >= SQ_SPACES_TRIGGER * n
                 || pr * 100 >= SQ_PREDICT_TRIGGER * n;
        }
        squeezed[d] = (uint8_t)sq;
        if (!sq) {
            memcpy(out + o, cat + start, (size_t)(end - start));
            o += end - start;
        } else {
            pred_reset(&p);
            for (i = start; i < end;) {
                int64_t cs = i, lim = start
                    + ((i - start) / SQ_CHUNK + 1) * SQ_CHUNK;
                sp = pr = 0;
                pred_run(&p, cat, &i, lim < end ? lim : end, end, &sp, &pr);
                if (sp * 100 < SQ_SPACES_THRESH * (i - cs)
                        && pr * 100 < SQ_PREDICT_THRESH * (i - cs)) {
                    memcpy(out + o, cat + cs, (size_t)(i - cs));
                    o += i - cs;
                }
            }
        }
        out_offsets[d + 1] = o;
    }
    return o;
}

/* CheapRepWords (tests/oracles/repeats.py remove_repeated_words,
 * reference CheapRepWordsInplace compact_lang_det_impl.cc:610-692)
 * over spans of one buffer: span s is cat[starts[s], ends[s]).
 * Per span the predictor restarts.  A word is a space plus the
 * non-space chars up to the next space (the span's first word may lack
 * the space); it is dropped when twice its predicted bytes, the
 * leading space's included, exceed its non-space bytes.  Spaces are
 * kept, runs of spaces collapse to one, and a non-empty span comes out
 * framed by single spaces.  out needs the spans' total length + 2 * n
 * bytes; out_bounds gets the cumulative output ends.  Returns the
 * output length. */
int64_t rep_words_multi(const uint8_t *cat, const int64_t *starts,
                        const int64_t *ends, int64_t n_spans,
                        uint8_t *out, int64_t *out_bounds) {
    predictor p;
    int64_t o = 0;
    for (int64_t s = 0; s < n_spans; s++) {
        int64_t start = starts[s], end = ends[s];
        if (end > start) {
            pred_reset(&p);
            int64_t ws = start, pred = 0, len = 0;
            out[o++] = ' ';
            for (int64_t i = start; i <= end;) {
                int64_t c = 0;
                int n = 0, hit = 0;
                if (i < end)
                    n = pred_step(&p, cat, i, end, &c, &hit);
                if (i == end || c == ' ') {
                    /* close the word [ws, i); a space after a space is
                     * dropped (dropped words leave doubled spaces) */
                    int64_t p = ws;
                    if (p < i && cat[p] == ' ') {
                        if (out[o - 1] != ' ') out[o++] = ' ';
                        p++;
                    }
                    if (pred * 2 <= len)
                        for (; p < i; p++) out[o++] = cat[p];
                    if (i == end) break;
                    ws = i;
                    pred = 0;
                    len = 0;
                } else {
                    len += n;
                }
                if (hit) pred += n;
                i += n;
            }
            if (out[o - 1] != ' ') out[o++] = ' ';
        }
        out_bounds[s] = o;
    }
    return o;
}

/* Python's str.lower over a batch, for fastlangid_score and ppl_score
 * (cld2_ray/functions/uscript.py lowered).  Writes the documents
 * order[0..n_order) of cat[offsets[d], offsets[d+1]) back to back into
 * out, document j at out[out_offsets[j], out_offsets[j+1]), each:
 *
 *  - cut, when cap >= 0 and it is longer, to its longest prefix of at
 *    most cap bytes that ends before a char's lead byte (the cut comes
 *    first: the text lowered is the cut one);
 *  - lowered char by char: ASCII A-Z by a bit flip (8 bytes a step when
 *    all 8 are ASCII), any other codepoint cp < n_low through low[cp]
 *    (cp itself past the table); an entry with bit 31 set lowers to the
 *    two chars ext[2k], ext[2k+1], k its low 31 bits (U+0130 -> i
 *    U+0307);
 *  - U+03A3 as CPython's handle_capital_sigma (Objects/unicodeobject.c)
 *    lowers it: final sigma U+03C2 when the nearest char before it that
 *    is not case-ignorable is cased, and the nearest such char after it
 *    is not cased or there is none (within the cut text), else U+03C3.
 *    A char's class is a run of the run-length table cls_start[] /
 *    cls[] (LOW_CASED, LOW_IGNORABLE; cls_start[0] = 0);
 *  - framed by one space on each side when frame is set.
 *
 * The tables come from the running interpreter's str.lower, which
 * uscript.str_lower_tables probes; no entry lowers a char to more than
 * 3/2 of its UTF-8 bytes, so with a char cut off at a document's end
 * (read as its lead byte) a document of b bytes writes at most
 * 3b/2 + 1 + 2 * frame bytes, which the binding allocates.  Input is
 * not validated: bytes that are not UTF-8 lower by utf8_next's
 * decoding.  No scratch; returns the bytes written. */
#define LOW_CASED 1
#define LOW_IGNORABLE 2

static inline uint8_t low_class(uint32_t cp, const uint32_t *cls_start,
                                const uint8_t *cls, int64_t n_cls) {
    int64_t lo = 0, hi = n_cls;      /* the last run starting <= cp */
    while (hi - lo > 1) {
        int64_t mid = (lo + hi) / 2;
        if (cls_start[mid] <= cp) lo = mid;
        else hi = mid;
    }
    return cls[lo];
}

/* 1 iff the U+03A3 at b[i, a) of the text b[s, e) is final */
static int final_sigma(const uint8_t *b, int64_t s, int64_t i, int64_t a,
                       int64_t e, const uint32_t *cls_start,
                       const uint8_t *cls, int64_t n_cls) {
    uint8_t k = 0;
    int l;
    for (int64_t j = i; j > s;) {
        int64_t q = j - 1;
        while (q > s && (b[q] & 0xC0) == 0x80) q--;
        k = low_class(utf8_next(b, q, j, &l), cls_start, cls, n_cls);
        if (!(k & LOW_IGNORABLE)) break;
        j = q;
    }
    if (k != LOW_CASED) return 0;
    for (int64_t j = a; j < e; j += l) {
        k = low_class(utf8_next(b, j, e, &l), cls_start, cls, n_cls);
        if (!(k & LOW_IGNORABLE)) return k != LOW_CASED;
    }
    return 1;
}

int64_t lower_docs(const uint8_t *cat, const int64_t *offsets,
                   const int64_t *order, int64_t n_order, int64_t cap,
                   int32_t frame, const uint32_t *low, int64_t n_low,
                   const uint32_t *ext, const uint32_t *cls_start,
                   const uint8_t *cls, int64_t n_cls, uint8_t *out,
                   int64_t *out_offsets) {
    const uint64_t hi7 = 0x8080808080808080ull;
    int64_t o = 0;
    for (int64_t j = 0; j < n_order; j++) {
        int64_t d = order[j], s = offsets[d], e = offsets[d + 1];
        if (cap >= 0 && e - s > cap) {
            e = s + cap;
            while (e > s && (cat[e] & 0xC0) == 0x80) e--;
        }
        out_offsets[j] = o;
        if (frame) out[o++] = ' ';
        for (int64_t i = s; i < e;) {
            if (i + 8 <= e) {
                uint64_t x;
                memcpy(&x, cat + i, 8);
                if (!(x & hi7)) {
                    /* bytes >= 'A' and > 'Z' set their high bit; no
                     * byte carries into the next */
                    uint64_t up = (x + 0x3F3F3F3F3F3F3F3Full)
                                  & ~(x + 0x2525252525252525ull) & hi7;
                    x |= up >> 2;
                    memcpy(out + o, &x, 8);
                    i += 8;
                    o += 8;
                    continue;
                }
            }
            uint8_t c = cat[i];
            if (c < 0x80) {
                out[o++] = c | (uint8_t)(((uint8_t)(c - 'A') < 26) << 5);
                i++;
                continue;
            }
            int l;
            uint32_t cp = utf8_next(cat, i, e, &l);
            if (cp == 0x3A3)
                cp = final_sigma(cat, s, i, i + l, e, cls_start, cls,
                                 n_cls)
                     ? 0x3C2 : 0x3C3;
            else if (cp < (uint64_t)n_low)
                cp = low[cp];
            if (cp & 0x80000000u) {
                const uint32_t *two = ext + 2 * (cp & 0x7FFFFFFFu);
                o += utf8_put(out + o, two[0]);
                cp = two[1];
            }
            o += utf8_put(out + o, cp);
            i += l;
        }
        if (frame) out[o++] = ' ';
    }
    out_offsets[n_order] = o;
    return o;
}

#include <math.h>

/* Character-trigram LM scoring (cld2_ray/functions/perplexity.py):
 * per doc, walk the framed lowered UTF-8 bytes, hash each char to a
 * v-bucket value (v a power of two), and accumulate -log2 P(c3|c1c2)
 * with add-0.1 smoothing and unigram*0.1 backoff — no intermediate
 * key/prob arrays.  lang_ids: per-doc LM row (<0 = skip doc).  uni:
 * per-lang v float64 unigram probs.  Outputs per-doc total bits and
 * trigram count.
 *
 * The memo, allocated per call (1 MB): 2^PPL_MEMO_BITS direct-mapped
 * slots of (trigram key, -log2 p).  The key lang<<40 | (c0*v+c1)*v+c2
 * fixes the bigram key, both counts and the unigram backoff, so a hit
 * adds the same double in the same order as the probes would (most
 * trigrams of a page repeat within the call).  A trigram key never sets
 * bit 39, the bigram flag, so ~0 marks an empty slot.  Returns 0, or -1
 * when the memo cannot be allocated. */
#define PPL_MEMO_BITS 16
typedef struct { uint64_t key; double bits; } ppl_slot;

int ppl_score(const uint8_t *cat, const int64_t *offsets, int64_t n_docs,
              const int64_t *lang_ids,
              const uint64_t *keys, const uint64_t *vals, uint64_t mask,
              const double *uni, int64_t v,
              double *bits_out, int64_t *n_out) {
    scratch sc = {{0}, 0, 1};
    ppl_slot *memo = scratch_get(&sc, 1 << PPL_MEMO_BITS, sizeof *memo, 0);
    if (!sc.ok) return (int)scratch_done(&sc, -1);
    memset(memo, 0xFF, sizeof *memo << PPL_MEMO_BITS);
    uint64_t vmask = (uint64_t)v - 1;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t end = offsets[d + 1];
        int64_t lang = lang_ids[d];
        double bits = 0.0;
        int64_t cnt = 0;
        if (lang >= 0) {
            const double *urow = uni + lang * v;
            uint64_t base = (uint64_t)lang << 40;
            uint64_t bflag = 1ull << 39;
            int64_t c0 = -1, c1 = -1;
            for (int64_t i = offsets[d]; i < end;) {
                int len;
                uint32_t cp = utf8_next(cat, i, end, &len);
                int64_t c2 = (int64_t)(((uint64_t)cp * 2654435761ull) & vmask);
                if (c0 >= 0 && c1 >= 0) {
                    uint64_t b = (uint64_t)(c0 * v + c1);
                    uint64_t tri = base | (b * (uint64_t)v + (uint64_t)c2);
                    ppl_slot *m = memo + ((tri * 0x9E3779B97F4A7C15ull)
                                          >> (64 - PPL_MEMO_BITS));
                    if (m->key != tri) {
                        uint64_t bi = base | bflag | b;
                        uint64_t ct = table_lookup(keys, vals, mask, tri);
                        uint64_t cb = table_lookup(keys, vals, mask, bi);
                        double p = cb > 0
                            ? ((double)ct + 0.1) / ((double)cb + 0.1 * 64)
                            : urow[c2] * 0.1;
                        m->key = tri;
                        m->bits = -log2(p);
                    }
                    bits += m->bits;
                    cnt++;
                }
                c0 = c1;
                c1 = c2;
                i += len;
            }
        }
        bits_out[d] = bits;
        n_out[d] = cnt;
    }
    return (int)scratch_done(&sc, 0);
}

/* Vectorized open-addressed lookup over a query array (the HashTable
 * fast path: model.py HashTable.lookup's probe loop in C). */
int table_lookup_batch(const uint64_t *keys, const uint64_t *vals,
                       uint64_t mask, const uint64_t *queries, int64_t n,
                       uint64_t *out) {
    for (int64_t i = 0; i < n; i++)
        out[i] = table_lookup(keys, vals, mask, queries[i]);
    return 0;
}

/* Python str.isspace() / str.strip() whitespace set */
static inline int is_py_space(uint32_t cp) {
    return (cp >= 9 && cp <= 13) || (cp >= 0x1C && cp <= 0x20)
        || cp == 0x85 || cp == 0xA0 || cp == 0x1680
        || (cp >= 0x2000 && cp <= 0x200A)
        || cp == 0x2028 || cp == 0x2029 || cp == 0x202F
        || cp == 0x205F || cp == 0x3000;
}

/* Narrow the text b[*s, *e) as Python's str.strip() does: drop
 * is_py_space chars from both ends, each char whole. */
static void py_strip(const uint8_t *b, int64_t *s, int64_t *e) {
    int l;
    while (*s < *e && is_py_space(utf8_next(b, *s, *e, &l))) *s += l;
    while (*e > *s) {
        int64_t q = *e - 1;
        while (q > *s && (b[q] & 0xC0) == 0x80) q--;
        if (!is_py_space(utf8_next(b, q, *e, &l)) || q + l != *e) break;
        *e = q;
    }
}

/* Byte j of the framed document " " + p[0, len) + " " (j <= len + 1;
 * past the frame it reads as a space too, never used). */
static inline uint64_t fl_byte(const uint8_t *p, int64_t len, int64_t j) {
    return j == 0 || j > len ? 32u : p[j - 1];
}

/* The aux langid of cld2_ray/functions/fastlangid.py, classify_batch's
 * routing and scoring in one pass over the lowered docs, doc d at
 * cat[offsets[d], offsets[d+1]).  Per doc:
 *
 *  - route[d]: -1 if the doc is whitespace only (is_py_space, the set
 *    str.strip removes; empty included).  Else the dominant script (the
 *    most letters by script_lut, codepoints past lut_size count as
 *    none; the smallest id wins a tie), if the doc has letters and
 *    one_script[dominant] is set (a script that implies one language).
 *    Else 0, and the doc is scored:
 *  - hash every 2/3/4-byte window of the framed " " + doc + " " (h =
 *    h*31 + byte, wrapping uint64; bucket = (h * golden) >> 46), in the
 *    order all 2-grams, then 3-grams, then 4-grams, each by position;
 *    nfeats[d] counts them (3 per doc byte, absent buckets included).
 *    Each present bucket's weight row (idx: bucket -> row + 1, 0 =
 *    absent) is counted, and scores[d] (k floats, 0 on an unscored
 *    doc) is the sum of count * row over the distinct rows, added in
 *    first-seen order; nrows[d] is the distinct-row count.
 *
 * Scratch, allocated per call: cnt, one counter per weight row, and
 * grams, 3 slots per byte of the longest doc.  Returns 0, -1 when the
 * scratch cannot be allocated, or -2 when idx names a row past n_rows
 * (a bad artifact).
 *
 * The scoring waits on memory latency, not arithmetic: each distinct
 * gram adds a k-float row (114 floats, 456 bytes) of a ~25 MB table
 * that fits L3 but not L2.  So the kernel keeps many loads in flight:
 * phase 1 hashes all of a doc's windows and loads their row numbers
 * (independent loads of the 1 MB idx), phase 2 counts them without a
 * data-dependent branch, and the adds prefetch every cache line of the
 * row 8 rows ahead into L1.  The committed artifact numbers its rows
 * hottest-first (fastlangid.hot_first), so the rows most docs touch
 * share lines and pages and stay in L2.  The wide adds vectorize: one
 * build carries an AVX-512, an AVX2 and a baseline copy and the loader
 * picks one for the CPU (GCC function multi-versioning).  The adds stay
 * elementwise in row order and -ffp-contract=off forbids FMA, so every
 * copy gives the same bits, whatever the row numbering.  Other
 * compilers and targets build the plain function. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 11
#define FL_CLONES __attribute__((target_clones( \
    "arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define FL_CLONES
#endif
FL_CLONES
int fastlangid_score(const uint8_t *cat, const int64_t *offsets,
                     int64_t n_docs, const uint8_t *script_lut,
                     int64_t lut_size, const uint8_t *one_script,
                     const int32_t *idx, const float *w, int64_t n_rows,
                     int64_t k, int32_t *route, float *scores,
                     int64_t *nfeats, int64_t *nrows) {
    const uint64_t gold = 0x9E3779B97F4A7C15ull;
    scratch sc = {{0}, 0, 1};
    int32_t *cnt = scratch_get(&sc, n_rows, sizeof *cnt, 1);
    int32_t *grams = scratch_get(
        &sc, 3 * max_len(offsets, offsets + 1, n_docs), sizeof *grams, 0);
    if (!sc.ok) return (int)scratch_done(&sc, -1);
    for (int64_t d = 0; d < n_docs; d++) {
        const uint8_t *p = cat + offsets[d];
        int64_t len = offsets[d + 1] - offsets[d];
        int64_t per_script[256] = {0};
        int blank = 1;
        for (int64_t i = 0; i < len;) {
            int l;
            uint32_t cp = utf8_next(p, i, len, &l);
            blank &= is_py_space(cp);
            per_script[cp < (uint32_t)lut_size ? script_lut[cp] : 0]++;
            i += l;
        }
        int dom = 1;
        for (int s = 2; s < 256; s++)
            if (per_script[s] > per_script[dom]) dom = s;
        route[d] = blank ? -1
                 : per_script[dom] && one_script[dom] ? dom : 0;
        nfeats[d] = nrows[d] = 0;
        float *s = scores + d * k;
        memset(s, 0, (size_t)k * sizeof *s);
        if (route[d]) continue;

        /* phase 1: the row (+1) of every window, 2-grams at [0, len],
         * 3-grams after them at [0, len - 1], 4-grams at [0, len - 2] */
        int64_t ng = 3 * len;
        int32_t *g3 = grams + len + 1, *g4 = g3 + len;
        uint64_t b0 = 32, b1 = fl_byte(p, len, 1), b2 = fl_byte(p, len, 2);
        for (int64_t i = 0; i <= len; i++) {
            uint64_t b3 = fl_byte(p, len, i + 3);
            uint64_t h2 = b0 * 31u + b1, h3 = h2 * 31u + b2,
                     h4 = h3 * 31u + b3;
            grams[i] = idx[(h2 * gold) >> 46];
            if (i < len) g3[i] = idx[(h3 * gold) >> 46];
            if (i + 1 < len) g4[i] = idx[(h4 * gold) >> 46];
            b0 = b1;
            b1 = b2;
            b2 = b3;
        }
        /* phase 2: count, keeping each distinct row once in first-seen
         * order at the front of grams (slot nt <= g was read already).
         * Absent grams count in cnt[0], cleared after, and a row is
         * kept iff it is new and not 0. */
        int64_t nt = 0;
        for (int64_t g = 0; g < ng; g++) {
            int32_t r = grams[g];
            if ((uint32_t)r >= (uint64_t)n_rows)
                return (int)scratch_done(&sc, -2);
            int32_t c = cnt[r];
            cnt[r] = c + 1;
            grams[nt] = r;
            nt += (c == 0) & (r != 0);
        }
        cnt[0] = 0;
        /* phase 3: add count * row, whole rows prefetched 8 ahead */
        for (int64_t t = 0; t < nt; t++) {
            if (t + 8 < nt) {
                const char *row =
                    (const char *)(w + (int64_t)grams[t + 8] * k);
                const char *end = row + k * (int64_t)sizeof(float);
                row = (const char *)((uintptr_t)row & ~(uintptr_t)63);
                for (; row < end; row += 64) __builtin_prefetch(row, 0, 3);
            }
            int32_t r = grams[t];
            float c = (float)cnt[r];
            const float *wr = w + (int64_t)r * k;
            for (int64_t j = 0; j < k; j++) s[j] += c * wr[j];
            cnt[r] = 0;
        }
        nfeats[d] = ng;
        nrows[d] = nt;
    }
    return (int)scratch_done(&sc, 0);
}

/* The last two quad hashes of a span: the quad walk's last-2 repeat
 * filter, reset per span. */
typedef struct {
    uint32_t r1, r2;
    int n;
} quad_ring;

/* One quad candidate of a span: the bytes [cs, ebyte), of which the
 * first bc = min(ebyte - cs, 12) are hashed with their pre/post space
 * flags.  A hash equal to one of the last two is dropped; any other is
 * probed in the quad table, and a hit is appended at offset cs (the
 * slot is written either way and kept only on a hit, so the stream
 * needs room for one slot past its last hit). */
static inline void quad_emit(const uint8_t *sp, int64_t len, int64_t cs,
                             int64_t ebyte, quad_ring *ring,
                             const uint64_t *qkeys, const uint64_t *qvals,
                             uint64_t qmask,
                             uint64_t *out_qvals, int64_t *out_qoffs,
                             int64_t *nq) {
    int64_t bc = ebyte - cs;
    if (bc > 12) bc = 12;
    if (bc <= 0) return;
    int pre = cs > 0 && sp[cs - 1] == 0x20;
    int64_t pp = cs + bc;
    if (pp > len - 1) pp = len - 1;
    int post = sp[pp] == 0x20;
    uint32_t h = quad_hash(sp, cs, bc, len, pre, post);
    int dup = (ring->n >= 1 && h == ring->r1)
              || (ring->n >= 2 && h == ring->r2);
    ring->r2 = ring->r1;
    ring->r1 = h;
    if (ring->n < 2) ring->n++;
    if (dup) return;
    uint64_t v = table_lookup(qkeys, qvals, qmask, (uint64_t)h);
    out_qvals[*nq] = v;
    out_qoffs[*nq] = cs;
    *nq += v != 0;
}

/* Scan ONE span (framed " w1 w2 " utf-8 bytes). Appends table HITS
 * (val != 0) to the output arrays at *nq_io / *no_io, at offsets into
 * the span. Ring-dedupe state is local (reset per span), same as the
 * numpy path.
 *
 * One walk over the span's chars serves both hit streams: a word ends
 * at its space (or, for the quads, at the span's end) and is then
 * probed for its octa hits and its quad hits.  Mirror of tools/hits.py:
 * a char starts where (b & 0xC0) != 0x80; is_space = first byte ==
 * 0x20.
 *
 * Octas: the GetOctaHits walk (reference cldutil.cc:416-533, mirrored
 * by hits.octa_word_and_pair_hits): per word that follows a space
 * (truncated to 8 CHARS) an OctaHash40; the last-2 repeat ring updates
 * only on non-repeats; non-repeats probe the distinct-octa table
 * (word), the distinct-octa table again with PairHash(prev, cur) at the
 * PRIOR word's offset, and the delta-octa table (word). dpacked/xpacked
 * are already selected for this span's script class by the caller.
 *
 * Quads, word by word.  Within a word of chars w[0..m-1] with byte
 * starts c[0..m-1] and word-end byte offset wend, for each j (char
 * index within the span <= n-2, the span's last char excluded):
 *   e_char = min(j+4, m); ebyte = (e_char==m) ? wend : c[e_char]
 *   keep if (e_char - j) >= 3 or j == 0   [word_start]
 * and quad_emit hashes [c[j], ebyte).  The char starts of a word are
 * buffered in cpos; a word longer than WCAP chars spills all but its
 * last 4, which is safe because e looks ahead only 4. */
static void scan_one_span(const uint8_t *sp, int64_t len,
                          const uint64_t *qkeys, const uint64_t *qvals,
                          uint64_t qmask,
                          const uint64_t *skeys, const uint64_t *svals,
                          uint64_t smask,
                          const uint32_t *db, uint64_t dbmask,
                          uint32_t dkeymask, const uint64_t *dpacked,
                          const uint32_t *xb, uint64_t xbmask,
                          uint32_t xkeymask, const uint64_t *xpacked,
                          uint64_t *out_qvals, int64_t *out_qoffs,
                          int64_t *nq_io,
                          uint64_t *out_ovals, int64_t *out_ooffs,
                          uint8_t *out_odist,
                          int64_t *no_io) {
    int64_t nq = *nq_io, no = *no_io;
    if (len <= 0) return;
    /* quads stop at char nchars_limit (the span's last); a span of
     * fewer than 3 chars has none, so its limit stops every word */
    int64_t nchars_limit = -1;
    for (int64_t b = 0; b < len; b++)
        nchars_limit += (sp[b] & 0xC0) != 0x80;
    if (nchars_limit < 2) nchars_limit = 0;
    /* octa state */
    uint64_t r1 = 0, r2 = 0; int nxt = 0;
    int64_t prior_start = -1;
    int64_t prev_space = -1;
    int64_t nchars_word = 0;
    int64_t trunc = -1;
    /* quad state */
    enum { WCAP = 4100 };
    int64_t cpos[WCAP];
    int64_t m = 0;
    int word_head = 1;   /* cpos[0] is the word's true first char */
    int64_t word_first_char = 0;   /* char idx in span of cpos[0] */
    int64_t char_idx = 0;          /* char idx in span */
    quad_ring ring = {0, 0, 0};
    /* each octa probe writes its slot and keeps it only on a hit (no
     * branch on the value; the stream has room for one slot past its
     * last hit, see quad_octa_chunk_score) */
#define OCTA_EMIT(v, off, dist) \
    (out_ovals[no] = (v), out_ooffs[no] = (off), \
     out_odist[no] = (dist), no += (v) != 0)
    for (int64_t b = 0; b <= len; b++) {
        int is_end = (b == len);
        if (!is_end && (sp[b] & 0xC0) == 0x80) continue;   /* cont. */
        if (!is_end && sp[b] != 0x20) {
            if (prev_space >= 0) {
                nchars_word++;
                if (nchars_word == 9 && trunc < 0) trunc = b;
            }
            if (m == 0) { word_first_char = char_idx; word_head = 1; }
            if (m == WCAP) {
                /* pathological giant word: emit the chars whose 4-char
                 * lookahead is known, keep the last 4 */
                int64_t flush = m - 4;
                for (int64_t j = 0; j < flush; j++) {
                    if (word_first_char + j >= nchars_limit) break;
                    quad_emit(sp, len, cpos[j], cpos[j + 4], &ring,
                              qkeys, qvals, qmask,
                              out_qvals, out_qoffs, &nq);
                }
                memmove(cpos, cpos + flush, 4 * sizeof *cpos);
                word_first_char += flush;
                word_head = 0;   /* cpos[0] is now mid-word */
                m = 4;
            }
            cpos[m++] = b;
            char_idx++;
            continue;
        }
        /* the word's quads: it ended at byte b (the space/end) */
        for (int64_t j = 0; j < m; j++) {
            if (word_first_char + j >= nchars_limit) break;
            int64_t e_char = j + 4 > m ? m : j + 4;
            /* word_start: a whole short word (preceded by a space
             * char — single-byte 0x20, so a byte test equals the char
             * test) */
            int keep = (e_char - j) >= 3 ||
                       (j == 0 && word_head && cpos[0] > 0 &&
                        sp[cpos[0] - 1] == 0x20);
            if (keep)
                quad_emit(sp, len, cpos[j],
                          e_char == m ? b : cpos[e_char], &ring,
                          qkeys, qvals, qmask,
                          out_qvals, out_qoffs, &nq);
        }
        m = 0;
        if (is_end) break;
        /* the word's octas: it follows the space at prev_space */
        int64_t ws = prev_space + 1;
        int64_t we = (trunc >= 0) ? trunc : b;
        if (prev_space >= 0 && we > ws) {
            /* bc is UNCAPPED (<= 32): OctaHash40 reads at most 24
             * bytes but masks with bc & 3 */
            uint64_t h = octa_hash40(sp, ws, we - ws, len);
            if (h != r1 && h != r2) {
                if (nxt == 0) r1 = h; else r2 = h;
                nxt = 1 - nxt;
                uint64_t prior_h = (nxt == 0) ? r1 : r2;
                uint64_t v;
                if (prior_h != 0 && prior_h != h && prior_start >= 0) {
                    uint64_t ph = ((prior_h >> 13) | (prior_h << 51)) + h;
                    v = bucket_lookup40(xb, xbmask, xkeymask, xpacked, ph);
                    OCTA_EMIT(v, prior_start, 1);
                }
                v = bucket_lookup40(xb, xbmask, xkeymask, xpacked, h);
                OCTA_EMIT(v, ws, 1);
                v = bucket_lookup40(db, dbmask, dkeymask, dpacked, h);
                OCTA_EMIT(v, ws, 0);
                /* seed-trained word stats (model.socta) */
                v = table_lookup(skeys, svals, smask, h);
                OCTA_EMIT(v, ws, 0);
            }
            prior_start = ws;
        }
        prev_space = b;
        nchars_word = 0;
        trunc = -1;
        char_idx++;
    }
#undef OCTA_EMIT
    *nq_io = nq;
    *no_io = no;
}

/* Single-pass quality statistics (cld2_ray/functions/quality.py
 * rule_columns): ONE walk over each utf-8 doc, stripped first
 * (py_strip), replaces five full RE2 scans, a token flatten/match pass
 * and a line pass.  Semantics pinned to the Arrow/RE2 kernels and to
 * pandas (tests/oracles/quality.py):
 *   - \s = [\t\n\f\r ] exactly (ASCII; NOT \v, NOT NBSP) — verified
 *     against pyarrow.compute
 *   - words = maximal \S+ runs; alpha word = contains >=1 cp with
 *     is_letter[cp] (RE2's \pL, probed from RE2: quality._scan_luts)
 *   - stopword token match = ^['"(]*(?:STOP)[.,;:!?'")]*$ ignore_case:
 *     strip leading {'"(}, strip trailing {.,;:!?'")}, simple-fold
 *     (fold[] = RE2-derived orbit map onto the stopword alphabet,
 *     identity elsewhere; see quality._scan_luts), and probe the
 *     stopword table (table_lookup; key = the folded UTF-8 bytes,
 *     <= 8, little-endian)
 *   - sentences = cps {. ! ? 0x3002 0xFF01 0xFF1F}; symbols =
 *     '#' + floor(dot_run/3) + 0x2026; lorem = case-insensitive
 *     "lorem ipsum" substring; brace = '{'
 *   - lines = the doc split on '\n', each stripped of is_py_space
 *     chars (str.strip()), empties dropped; a line starting with
 *     - * U+2022 U+00B7 is a bullet line, one ending in "..." or U+2026
 *     an ellipsis line, and one equal to an earlier line of the doc a
 *     dup line (tests/oracles/quality.line_stats_pandas)
 *   - pii candidate = the doc holds an ASCII digit or '@', which every
 *     scrub.PII_PATTERNS match needs (RE2's \d is [0-9])
 * quality_scan's rows:
 *   [n_words, n_chars, n_ws, alpha_words, n_stop, n_sentences,
 *    symbols, has_lorem, has_brace, n_lines, bullet_lines,
 *    ellipsis_lines, dup_lines, pii_candidate]
 *
 * The walk decodes each char once.  Inside a word, with no dot run or
 * "lorem ipsum" match in progress, most chars change nothing but the
 * char count, the word's letter flag and the line's end, so a run of
 * such ASCII bytes (QC_RUN in the kernel's ASCII class table) takes a
 * tight loop, and such a multi-byte char (not qs_mb_special) a short
 * step; every other char takes the full step.  Documents are UTF-8
 * (Arrow strings).  A malformed one is read memory-safely, each char
 * clamped at the document's end; a lead byte then also takes the
 * bytes after it into its char, a '\n' among them. */
enum { QC_RUN = 1, QC_LETTER = 2, QC_PII = 4 };

/* The multi-byte chars that are whitespace (is_py_space), sentence ends
 * or symbols for quality_scan; any other only counts inside a word. */
static inline int qs_mb_special(uint32_t cp) {
    return cp == 0x85 || cp == 0xA0 || cp == 0x1680
        || (cp >= 0x2000 && cp <= 0x205F) || (cp >= 0x3000 && cp <= 0x3002)
        || cp == 0xFF01 || cp == 0xFF1F;
}

/* The stopword probe of one token cat[ts, te).  afold: the fold of
 * each ASCII byte, 0x80 for the bytes >= 0x80, or NULL when fold maps
 * some ASCII char outside ASCII; a token of at most 8 bytes, all ASCII,
 * then builds its key from afold, one byte per char, without a decode
 * (a longer all-ASCII token folds to more than 8 bytes and misses). */
static inline int stop_token_match(const uint8_t *cat, int64_t ts,
                                   int64_t te, const uint8_t *afold,
                                   const uint32_t *fold, int64_t fold_lim,
                                   const uint64_t *sw_keys,
                                   const uint64_t *sw_vals,
                                   uint64_t sw_mask) {
    while (ts < te && (cat[ts] == '\'' || cat[ts] == '"'
                       || cat[ts] == '(')) ts++;
    while (te > ts) {
        uint8_t c = cat[te - 1];
        if (c == '.' || c == ',' || c == ';' || c == ':'
            || c == '!' || c == '?' || c == '\'' || c == '"'
            || c == ')') te--;
        else break;
    }
    if (te <= ts || te - ts > 16) return 0;
    uint64_t key = 0;
    if (afold && te - ts <= 8) {
        int k = 0;
        for (; ts + k < te; k++) {
            uint8_t f = afold[cat[ts + k]];
            if (f & 0x80) break;
            /* no stopword holds a NUL (see below) */
            if (f == 0) return 0;
            key |= (uint64_t)f << (8 * k);
        }
        if (ts + k == te)
            return table_lookup(sw_keys, sw_vals, sw_mask, key) != 0;
        key = 0;
    }
    uint8_t kb[8];
    int kn = 0;
    for (int64_t j = ts; j < te;) {
        int jl;
        uint32_t c2 = utf8_next(cat, j, te, &jl);
        if (c2 < (uint32_t)fold_lim) c2 = fold[c2];
        /* no stopword holds a NUL, whose zero bytes would vanish from
         * the key's high end ("la\0" would pack as "la") */
        if (c2 == 0 || kn + utf8_enc_len(c2) > 8) return 0;
        kn += utf8_put(kb + kn, c2);
        j += jl;
    }
    for (int b2 = 0; b2 < kn; b2++)
        key |= (uint64_t)kb[b2] << (8 * b2);
    return table_lookup(sw_keys, sw_vals, sw_mask, key) != 0;
}

static inline int is_re2_space(uint32_t cp) {
    return cp == 32 || cp == 9 || cp == 10 || cp == 12 || cp == 13;
}

/* The dup-line hash table: cap (a power of two) slots of line hash h
 * and epoch tag ep.  A slot belongs to the current doc iff its tag
 * equals the doc's epoch, so no per-doc clear. */
typedef struct {
    struct { uint64_t h, ep; } *slot;
    int64_t cap;
} line_table;

/* 64-bit hash of the line cat[ts, te), 8 bytes a step from a seed of
 * its length; the last 0-7 bytes are one zero-padded word read by a
 * memcpy that stops at te.  Only equality is read (dup lines), so the
 * argument is about collisions.  A step h -> m((h ^ w) * K), with K
 * odd and m(x) = x ^ (x >> 32), is a bijection of h for a fixed word w
 * and of w for a fixed h.  So two lines of one length (one seed, one
 * word count) that differ in one word never collide: the states part
 * at that word and stay apart.  Lines of different lengths start
 * apart, and other distinct lines collide only if their 64-bit states
 * meet, ~2^-64 per pair.  A doc of b bytes has at most b/2 + 1 lines,
 * so ~b^2/8 pairs: under 1e-8 for a 1 MB doc. */
static inline uint64_t line_hash(const uint8_t *cat, int64_t ts,
                                 int64_t te) {
    const uint64_t K = 0x9E3779B97F4A7C15ull;
    uint64_t h = (uint64_t)(te - ts) * K;
    for (; ts + 8 <= te; ts += 8) {
        h = (h ^ load_le64(cat + ts)) * K;
        h ^= h >> 32;
    }
    if (ts < te) {
        uint64_t w = 0;
        memcpy(&w, cat + ts, (size_t)(te - ts));
        h = (h ^ w) * K;
        h ^= h >> 32;
    }
    return h;
}

/* One stripped non-empty line [ts, te) whose first char is first_cp:
 * count it, and its bullet, ellipsis and dup flags, into row[9..12]. */
static inline void line_commit(const uint8_t *cat, int64_t ts, int64_t te,
                               uint32_t first_cp, const line_table *lt,
                               uint64_t ep, int64_t *row) {
    row[9]++;
    row[10] += first_cp == '-' || first_cp == '*' || first_cp == 0x2022
               || first_cp == 0x00B7;
    row[11] += te - ts >= 3
               && ((cat[te-1] == '.' && cat[te-2] == '.' && cat[te-3] == '.')
                   || (cat[te-1] == 0xA6 && cat[te-2] == 0x80
                       && cat[te-3] == 0xE2));
    uint64_t h = line_hash(cat, ts, te);
    uint64_t m = (uint64_t)lt->cap - 1;
    for (uint64_t idx = h & m;; idx = (idx + 1) & m) {
        if (lt->slot[idx].ep != ep) {
            lt->slot[idx].ep = ep;
            lt->slot[idx].h = h;
            return;
        }
        if (lt->slot[idx].h == h) {
            row[12]++;
            return;
        }
    }
}

/* Per-doc text stats (see native.quality_scan) into out[n_docs][14].
 * The dup-line table is allocated per call, zeroed, as doc d tags its
 * lines with d + 1: a doc of b bytes has <= b/2 + 1 non-empty lines,
 * held at load <= 1/2 in a power of two >= 64 slots.  Returns 0, or -1
 * when the table cannot be allocated. */
int quality_scan(const uint8_t *cat, const int64_t *offsets, int64_t n_docs,
                 const uint8_t *is_letter, int64_t letter_lim,
                 const uint32_t *fold, int64_t fold_lim,
                 const uint64_t *sw_keys, const uint64_t *sw_vals,
                 uint64_t sw_mask, int64_t *out) {
    static const char lorem[] = "lorem ipsum";
    line_table lt = {NULL, 64};
    while (lt.cap < max_len(offsets, offsets + 1, n_docs) / 2 * 2 + 16)
        lt.cap <<= 1;
    scratch sc = {{0}, 0, 1};
    lt.slot = scratch_get(&sc, lt.cap, sizeof *lt.slot, 1);
    if (!sc.ok) return (int)scratch_done(&sc, -1);
    /* the ASCII byte classes, and stop_token_match's ASCII fold */
    uint8_t cls[256] = {0}, afold[256];
    int ascii_fold = fold_lim >= 0x80;
    for (int c = 0; c < 256; c++) {
        afold[c] = 0x80;
        if (c >= 0x80) continue;
        int special = is_py_space((uint32_t)c) || c == '.' || c == '!'
                      || c == '?' || c == '#' || c == '{' || c == 'l'
                      || c == 'L';
        cls[c] = (special ? 0 : QC_RUN)
                 | (c < letter_lim && is_letter[c] ? QC_LETTER : 0)
                 | ((c >= '0' && c <= '9') || c == '@' ? QC_PII : 0);
        if (ascii_fold && fold[c] >= 0x80) ascii_fold = 0;
        if (ascii_fold) afold[c] = (uint8_t)fold[c];
    }
    const uint8_t *af = ascii_fold ? afold : NULL;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t start = offsets[d], end = offsets[d + 1];
        py_strip(cat, &start, &end);
        int64_t *row = out + d * 14;
        memset(row, 0, 14 * sizeof *row);
        int64_t n_words = 0, n_chars = 0, n_ws = 0, alpha_words = 0;
        int64_t n_stop = 0, n_sent = 0, symbols = 0;
        int64_t has_lorem = 0, has_brace = 0;
        int in_word = 0, word_has_letter = 0;
        unsigned seen = 0;            /* QC_PII of the chars so far */
        int64_t tok_start = -1;       /* byte offset of current token */
        int64_t dot_run = 0;
        int64_t lorem_pos = 0;        /* chars of "lorem ipsum" matched */
        int64_t ls = -1, le = 0;      /* the line's non-space [ls, le) */
        uint32_t first_cp = 0;        /* the char at ls */
        for (int64_t i = start; i < end;) {
            int quiet = in_word && !dot_run && !lorem_pos;
            if (quiet && (cls[cat[i]] & QC_RUN)) {
                int64_t r = i;
                unsigned acc = 0;
                do acc |= cls[cat[r++]];
                while (r < end && (cls[cat[r]] & QC_RUN));
                if (ls < 0) { ls = i; first_cp = cat[i]; }
                n_chars += r - i;
                word_has_letter |= (acc & QC_LETTER) != 0;
                seen |= acc;
                le = i = r;
                continue;
            }
            int l;
            uint32_t cp = utf8_next(cat, i, end, &l);
            n_chars++;
            if (quiet && cp >= 0x80 && !qs_mb_special(cp)) {
                if (cp < (uint32_t)letter_lim && is_letter[cp])
                    word_has_letter = 1;
                if (ls < 0) { ls = i; first_cp = cp; }
                le = i += l;
                continue;
            }
            /* dot-run for the non-overlapping "..." count */
            if (cp == '.') dot_run++;
            else { symbols += dot_run / 3; dot_run = 0; }
            if (cp == '#') symbols++;
            else if (cp == 0x2026) symbols++;
            if (cp == '.' || cp == '!' || cp == '?' || cp == 0x3002
                || cp == 0xFF01 || cp == 0xFF1F) n_sent++;
            if (cp == '{') has_brace = 1;
            if (cp < 0x80) seen |= cls[cp];
            /* case-insensitive "lorem ipsum" tracker (ASCII needle) */
            if (!has_lorem) {
                uint32_t lc = (cp >= 'A' && cp <= 'Z') ? cp + 32 : cp;
                if (lc == (uint32_t)lorem[lorem_pos]) {
                    lorem_pos++;
                    if (lorem[lorem_pos] == 0) {
                        has_lorem = 1;
                        lorem_pos = 0;
                    }
                } else {
                    lorem_pos = lc == (uint32_t)lorem[0] ? 1 : 0;
                }
            }
            /* lines: commit at '\n', else track the non-space ends */
            if (cp == '\n') {
                if (ls >= 0)
                    line_commit(cat, ls, le, first_cp, &lt,
                                (uint64_t)d + 1, row);
                ls = -1;
            } else if (!is_py_space(cp)) {
                if (ls < 0) { ls = i; first_cp = cp; }
                le = i + l;
            }
            if (is_re2_space(cp)) {
                n_ws++;
                if (in_word) {
                    /* token [tok_start, i) ended */
                    if (word_has_letter) alpha_words++;
                    n_stop += stop_token_match(cat, tok_start, i, af, fold,
                                               fold_lim, sw_keys, sw_vals,
                                               sw_mask);
                    in_word = 0;
                }
            } else {
                if (!in_word) { in_word = 1; word_has_letter = 0;
                                tok_start = i; n_words++; }
                if (cp < (uint32_t)letter_lim && is_letter[cp])
                    word_has_letter = 1;
            }
            i += l;
        }
        /* flush tail state */
        symbols += dot_run / 3;
        if (in_word) {
            if (word_has_letter) alpha_words++;
            n_stop += stop_token_match(cat, tok_start, end, af, fold,
                                       fold_lim, sw_keys, sw_vals, sw_mask);
        }
        if (ls >= 0)
            line_commit(cat, ls, le, first_cp, &lt, (uint64_t)d + 1, row);
        row[0] = n_words; row[1] = n_chars; row[2] = n_ws;
        row[3] = alpha_words; row[4] = n_stop; row[5] = n_sent;
        row[6] = symbols; row[7] = has_lorem; row[8] = has_brace;
        row[13] = (seen & QC_PII) != 0;
    }
    return (int)scratch_done(&sc, 0);
}

/* Chunk-score ONE span's merged hit stream (primary a = quads/unis,
 * secondary b = octas/bis; a-before-b at equal offsets — the stable
 * concat order). Appends per-chunk rows at *nchunks_io; returns the
 * number of chunks appended, or -1, writing nothing, when they would
 * pass out_cap rows. Offsets are LOCAL to the span and already in the
 * span's byte space (CJK callers pre-scale char positions x3).
 * sc_scores: the kernel's tote row, indexed by language id (lane ids
 * are 8-bit, and hint ids are language ids), zeroed, left zeroed.
 *
 * The lane loop has no branch: an UNKNOWN (0) lane adds into
 * sc_scores[0], which is zeroed after the chunk's hits, and the seen
 * bytes mark the chunk's languages (branching on lane 0 or on the
 * score slot just written made this function ~1.6x slower on long
 * pages).  Untouched languages score 0 and every score is >= 0, so the
 * top-2 lies among the touched languages and ids 0 and 1. */
static int64_t chunk_score_merged(
        const uint64_t *av, const int64_t *ao, int64_t na,
        const uint64_t *bv, const int64_t *bo, const uint8_t *bd,
        int64_t nb_,
        int64_t span_len, int64_t chunk_size,
        const int32_t *expected_1kb, int32_t exp_script4,
        const int8_t *close_set,
        const int64_t *hints, int64_t nhints,
        int64_t *sc_scores, int64_t span_i, int64_t out_cap,
        int16_t *out_lang1, int64_t *out_cbytes, int64_t *out_s1,
        int64_t *out_rel, int64_t *out_span, int64_t *nchunks_io,
        int64_t *out_rel_delta /* nullable: rel BEFORE the expected
                                  fold (= the zeros-expected rel the
                                  ranges path scores with) */) {
    int64_t nchunks_total = *nchunks_io;
    int32_t touched[4 * 4096 + 64];   /* lanes touched per chunk */
    int64_t nh = na + nb_;
    if (nh == 0) return 0;
    uint8_t seen[256];
    memset(seen, 0, sizeof seen);
    int64_t nch = nh / chunk_size;
    if (nch < 1) nch = 1;
    if (nch > out_cap - nchunks_total) return -1;

    int64_t ai = 0, bi = 0;
    int64_t hit_idx = 0;
    int64_t prev_chunk_start = -1;   /* local byte offset */
    /* distinct-boost ring: last 4 distinct-octa langprobs, re-added to
     * every chunk's tote (AddDistinctBoost2 + ScoreBoosts, reference
     * scoreonescriptspan.cc:112-152); scoped to this span */
    uint64_t dring[4] = {0, 0, 0, 0};
    int dring_n = 0;
    for (int64_t c = 0; c < nch; c++) {
        int64_t lo = c * chunk_size;
        int64_t hi = (c == nch - 1) ? nh : lo + chunk_size;
        int64_t grams = hi - lo;
        int64_t first_off = -1;
        int64_t nt = 0;
        for (; hit_idx < hi; hit_idx++) {
            /* the merge step without a branch on which stream leads
             * (an exhausted stream reads as offset INT64_MAX; the
             * clamped index only keeps its load in bounds) */
            int64_t ka = ai < na ? ai : 0, kb = bi < nb_ ? bi : 0;
            int64_t oa = ai < na ? ao[ka] : INT64_MAX;
            int64_t ob = bi < nb_ ? bo[kb] : INT64_MAX;
            int take_a = oa <= ob;
            uint64_t v = take_a ? av[ka] : bv[kb];
            int64_t off = take_a ? oa : ob;
            int is_distinct = !take_a && bd && bd[kb];
            ai += take_a;
            bi += !take_a;
            if (first_off < 0) first_off = off;
            for (int lane = 0; lane < 4; lane++) {
                int32_t l = (int32_t)((v >> (16 * lane)) & 0xFF);
                touched[nt] = l;
                nt += !seen[l];
                seen[l] = 1;
                sc_scores[l] += (int64_t)((v >> (16 * lane + 8)) & 0xFF);
            }
            dring[dring_n & 3] = is_distinct ? v : dring[dring_n & 3];
            dring_n += is_distinct;
        }
        sc_scores[0] = 0;                /* UNKNOWN lanes suppressed */
        for (int64_t t = 0; t < nt; t++) seen[touched[t]] = 0;
        /* re-add the ring (<= 4 most recent distinct hits) */
        for (int k = 0; k < 4; k++) {
            uint64_t v = dring[k];
            if (!v) continue;
            for (int lane = 0; lane < 4; lane++) {
                int64_t l = (int64_t)((v >> (16 * lane)) & 0xFF);
                int64_t q = (int64_t)((v >> (16 * lane + 8)) & 0xFF);
                if (l == 0) continue;
                if (sc_scores[l] == 0) touched[nt++] = (int32_t)l;
                sc_scores[l] += q;
            }
        }
        /* per-chunk language priors (functions/hints.py payloads:
         * boost = lid | (w << 16) adds unconditionally; whack = -lid
         * zeroes; boosts precede whacks in the payload) */
        for (int64_t hj = 0; hj < nhints; hj++) {
            int64_t v = hints[hj];
            if (v >= 0) {
                int64_t l = v & 0xFFFF;
                if (sc_scores[l] == 0) touched[nt++] = (int32_t)l;
                sc_scores[l] += v >> 16;
            } else {
                sc_scores[-v] = 0;
            }
        }
        /* deterministic top-2 in (score desc, id asc) order, = score.py
         * _top2's scan over all languages; touched may repeat an id */
        int64_t s1 = sc_scores[0], s2 = sc_scores[1];
        int64_t t1 = 0, t2 = 1;
        if (s2 > s1) { int64_t tmp = t1; t1 = t2; t2 = tmp;
                       int64_t ts = s1; s1 = s2; s2 = ts; }
        for (int64_t t = 0; t < nt; t++) {
            int64_t l = touched[t];
            if (l == t1 || l == t2) continue;
            int64_t s = sc_scores[l];
            if (s > s1 || (s == s1 && l < t1)) {
                s2 = s1; t2 = t1; s1 = s; t1 = l;
            } else if (s > s2 || (s == s2 && l < t2)) {
                s2 = s; t2 = l;
            }
        }
        /* chunk byte extent: patch the previous chunk's end */
        int64_t c_start = first_off;
        if (c > 0) {
            out_cbytes[nchunks_total - 1] =
                c_start - prev_chunk_start > 0
                    ? c_start - prev_chunk_start : 1;
        }
        prev_chunk_start = c_start;
        /* reliability: delta part (cldutil.cc:553-571) */
        int64_t max_rel = grams < 8 ? 12 * grams : 100;
        int64_t thresh = (grams * 5) >> 3;
        if (thresh < 3) thresh = 3;
        if (thresh > 16) thresh = 16;
        int64_t delta = s1 - s2;
        int64_t rel_d;
        if (delta >= thresh) rel_d = max_rel;
        else if (delta <= 0) rel_d = 0;
        else {
            rel_d = (100 * delta) / thresh;
            if (rel_d > max_rel) rel_d = max_rel;
        }
        int8_t cs1 = close_set[t1];
        if (cs1 > 0 && cs1 == close_set[t2]) rel_d = 100;
        out_lang1[nchunks_total] = (int16_t)t1;
        out_s1[nchunks_total] = s1;
        out_rel[nchunks_total] = rel_d;   /* rel_e folded in below */
        if (out_rel_delta) out_rel_delta[nchunks_total] = rel_d;
        out_span[nchunks_total] = span_i;
        out_cbytes[nchunks_total] = -1;
        nchunks_total++;
        for (int64_t t = 0; t < nt; t++) sc_scores[touched[t]] = 0;
    }
    /* last chunk ends at span_len */
    {
        int64_t cb = span_len - prev_chunk_start;
        out_cbytes[nchunks_total - 1] = cb > 0 ? cb : 1;
    }
    /* fold in ReliabilityExpected — the reference's EXACT ramp
     * (cldutil.cc:586-605, = score.reliability_expected_exact):
     * symmetric ratio, <= 1.5 -> 100, > 4.0 -> 0, linear between,
     * int truncation. exp_script4 >= 0 selects the LScript4 slot of
     * a [num_langs][4] kAvgDeltaOctaScore-layout table; -1 means a
     * plain per-language table (CJK unigram rates). */
    for (int64_t c = nchunks_total - nch; c < nchunks_total; c++) {
        int64_t s1 = out_s1[c];
        int64_t cb = out_cbytes[c];
        int64_t actual = (s1 << 10) / cb;
        int32_t exp1kb = exp_script4 >= 0
            ? expected_1kb[out_lang1[c] * 4 + exp_script4]
            : expected_1kb[out_lang1[c]];
        int64_t rel_e = 100;
        if (exp1kb != 0) {
            if (actual == 0) rel_e = 0;
            else {
                double a = (double)actual, e = (double)exp1kb;
                double ratio = e > a ? e / a : a / e;
                if (ratio > 1.5) {
                    rel_e = ratio > 4.0 ? 0
                        : (int64_t)(100.0 * (4.0 - ratio) / (4.0 - 1.5));
                }
            }
        }
        if (rel_e < out_rel[c]) out_rel[c] = rel_e;
    }
    *nchunks_io = nchunks_total;
    return nch;
}

static int64_t merge_hits(
        const uint64_t *av, const int64_t *ao, int64_t na,
        const uint64_t *bv, const int64_t *bo, const uint8_t *bd,
        int64_t nb_, uint64_t *mv, int64_t *mo, uint8_t *md) {
    int64_t ai = 0, bi = 0, k = 0;
    while (ai < na || bi < nb_) {
        if (ai < na && (bi >= nb_ || ao[ai] <= bo[bi])) {
            mv[k] = av[ai]; mo[k] = ao[ai]; md[k] = 0; ai++;
        } else {
            mv[k] = bv[bi]; mo[k] = bo[bi];
            md[k] = bd ? bd[bi] : 0; bi++;
        }
        k++;
    }
    return k;
}

static inline int64_t lang_score(uint64_t v, int64_t lang) {
    int64_t s = 0;
    for (int lane = 0; lane < 4; lane++) {
        int64_t l = (int64_t)((v >> (16 * lane)) & 0xFF);
        if (l == lang) s += (int64_t)((v >> (16 * lane + 8)) & 0xFF);
    }
    return s;
}

/* BetterBoundary port (bit-equal to the numpy oracle
 * tests/oracles/langid.py sharpen_boundaries): per chunk k the
 * sharpened boundary HIT index mapped to its span-local byte offset.
 * lang1 points at this span's nch chunk langs. */
static void sharpen_starts(
        const uint64_t *mv, const int64_t *mo, int64_t nh,
        const int16_t *lang1, int64_t nch, int64_t chunk_size,
        const int8_t *close_set, int64_t *out_start) {
    int64_t bidx0 = 0 < nh - 1 ? 0 : nh - 1;
    out_start[0] = mo[bidx0 < 0 ? 0 : bidx0];
    int64_t prior_linear = 0;
    for (int64_t k = 1; k < nch; k++) {
        int64_t this_linear = k * chunk_size;
        int64_t bidx = this_linear < nh - 1 ? this_linear : nh - 1;
        int64_t next_linear = (k + 1 < nch) ? (k + 1) * chunk_size : nh;
        int64_t lang0 = lang1[k - 1], langk = lang1[k];
        int skip = (langk == lang0);
        if (!skip) {
            int8_t cs0 = close_set[lang0];
            if (cs0 > 0 && cs0 == close_set[langk]) skip = 1;
        }
        if (skip) {
            out_start[k] = mo[bidx];
            prior_linear = this_linear;
            continue;
        }
        int64_t linear0 = prior_linear, linear2 = next_linear;
        if (linear2 - linear0 > 8) {
            /* first strictly-better max ("<" update rule) of the
             * 8-hit sliding window (first-4 diffs) - (last-4 diffs),
             * requiring both positive and negative diffs present.
             * Windows are 8 hits over <= 2*chunk_size hits — the
             * direct O(8n) recompute is fine. */
            int64_t n = linear2 - linear0;
            int64_t best_val = INT64_MIN;
            int64_t best = -1;
            for (int64_t s = 0; s < n - 8; s++) {
                int64_t run = 0, pm_p = 0, pm_n = 0;
                for (int64_t j = 0; j < 8; j++) {
                    int64_t d = lang_score(mv[linear0 + s + j], lang0)
                              - lang_score(mv[linear0 + s + j], langk);
                    run += (j < 4) ? d : -d;
                    if (d > 0) pm_p = 1;
                    if (d < 0) pm_n = 1;
                }
                int64_t cand = (pm_p && pm_n) ? run : INT64_MIN;
                if (cand > best_val) { best_val = cand; best = s; }
            }
            if (best >= 0 && best_val > 0)
                this_linear = linear0 + best + 4;
        }
        out_start[k] = mo[this_linear < nh - 1 ? this_linear : nh - 1];
        prior_linear = this_linear;
    }
}

/* Chunk starts (span-local bytes, replaced in place) -> the index among
 * the span's letters (its non-space chars) of the last letter at or
 * before the start, read no further than the span's last byte; 0 if
 * none.  Starts mostly ascend, so one cursor walks the span. */
static void starts_to_letters(const uint8_t *sp, int64_t len,
                              int64_t *start, int64_t nch) {
    int64_t b = 0, nl = 0;   /* nl letters in sp[0, b) */
    for (int64_t k = 0; k < nch; k++) {
        int64_t t = start[k] < len - 1 ? start[k] : len - 1;
        if (t < b - 1) b = nl = 0;
        for (; b <= t; b++)
            nl += (sp[b] & 0xC0) != 0x80 && sp[b] != 0x20;
        start[k] = nl > 0 ? nl - 1 : 0;
    }
}

/* Fused scan + chunk scoring over concatenated MANY-script spans
 * (functions/langid.py Detector._fill_totes) in ONE C pass per span,
 * emitting only per-CHUNK results: per-hit arrays never exist (hits
 * are ~1 per 2 text bytes).
 *
 * Bit-equal to the numpy oracle chain tests/oracles/langid.py
 * many_hits -> score.score_chunks_multi (cross-checked in
 * tests/test_native.py):
 *  - quads before octas at equal offset (stable concat order)
 *  - nchunks = max(1, nh/chunk_size); hit i -> chunk min(i/cs, nch-1)
 *  - per-chunk lang scores = sum of decoded qprob lanes; UNKNOWN (0)
 *    lane suppressed
 *  - per-span hint payloads (functions/hints.py): boosts add their
 *    weight, whacks zero their language
 *  - deterministic top-2 (ties -> smaller lang id, = score.py _top2)
 *  - ReliabilityDelta integer math + the reference's exact
 *    ReliabilityExpected ramp in double (same expressions, same
 *    truncation as score.reliability_expected_exact)
 *
 * The ranges outputs (out_rel_delta, out_cletter) are both NULL or
 * both set.  NULL: each span's quad and octa streams are chunk-scored
 * directly.  Set: the ResultChunkVector pass (reference
 * scoreonescriptspan.cc:389-509 + SharpenBoundaries :671-774) — the
 * streams are merged once so sharpening has random access, and the
 * merged stream is chunk-scored (a-before-b at equal offsets == the
 * merged order, so the first five outputs do not change). Per chunk it
 * adds the zeros-expected reliability (out_rel_delta) and the span
 * letter of the BetterBoundary-sharpened start (out_cletter, see
 * starts_to_letters). The merge costs ~5-17% kernel time, so the plain
 * pass skips it.
 *
 * hint_csr: nb+1 offsets into hint_flat (per-span hint payloads).
 * Scratch: the hit streams.  A span of s bytes yields at most s quad
 * (or unigram) hits and, per word of >= 2 framed bytes, 4 octa hits
 * (<= 2s + 4); each walk also writes the slot after its last hit, so
 * each stream and their merge fit 3 * (s + 8) slots of the longest
 * span.  The outputs hold out_cap rows (native._chunk_bufs).
 * Returns the chunk count, -1 when the scratch cannot be allocated, or
 * -2 when the chunks would pass out_cap rows. */
int64_t quad_octa_chunk_score(
        const uint8_t *buf,
        const int64_t *starts, const int64_t *ends, int64_t nb,
        const uint64_t *qkeys, const uint64_t *qvals, uint64_t qmask,
        const uint64_t *skeys, const uint64_t *svals, uint64_t smask,
        const uint32_t *db, int64_t dnb, uint32_t dkeymask,
        const uint64_t *dpl, const uint64_t *dpo,
        const uint32_t *xb, int64_t xnb, uint32_t xkeymask,
        const uint64_t *xpl, const uint64_t *xpo,
        const uint8_t *span_latin, const uint8_t *span_script4,
        int64_t chunk_size,
        const int32_t *expected_1kb, const int8_t *close_set,
        const int64_t *hint_csr, const int64_t *hint_flat,
        int64_t out_cap,
        int16_t *out_lang1, int64_t *out_cbytes, int64_t *out_s1,
        int64_t *out_rel, int64_t *out_span,
        int64_t *out_rel_delta, int64_t *out_cletter) {
    int64_t nchunks_total = 0, cap = 3 * (max_len(starts, ends, nb) + 8);
    int64_t scores[256] = {0};
    uint64_t dbmask = (uint64_t)(dnb - 1);
    uint64_t xbmask = (uint64_t)(xnb - 1);
    int ranges = out_cletter != NULL;
    scratch sc = {{0}, 0, 1};
    uint64_t *qv = scratch_get(&sc, cap, sizeof *qv, 0);
    int64_t *qo = scratch_get(&sc, cap, sizeof *qo, 0);
    uint64_t *ov = scratch_get(&sc, cap, sizeof *ov, 0);
    int64_t *oo = scratch_get(&sc, cap, sizeof *oo, 0);
    uint8_t *od = scratch_get(&sc, cap, 1, 0);
    /* the ranges pass's merged stream */
    uint64_t *mv = ranges ? scratch_get(&sc, cap, sizeof *mv, 0) : NULL;
    int64_t *mo = ranges ? scratch_get(&sc, cap, sizeof *mo, 0) : NULL;
    uint8_t *md = ranges ? scratch_get(&sc, cap, 1, 0) : NULL;
    if (!sc.ok) return scratch_done(&sc, -1);
    for (int64_t span_i = 0; span_i < nb; span_i++) {
        int64_t len = ends[span_i] - starts[span_i];
        const uint8_t *sp = buf + starts[span_i];
        int64_t nq = 0, no = 0, nch;
        const uint64_t *dpacked = span_latin[span_i] ? dpl : dpo;
        const uint64_t *xpacked = span_latin[span_i] ? xpl : xpo;
        const int64_t *hints = hint_flat + hint_csr[span_i];
        int64_t nhints = hint_csr[span_i + 1] - hint_csr[span_i];
        scan_one_span(sp, len, qkeys, qvals, qmask,
                      skeys, svals, smask,
                      db, dbmask, dkeymask, dpacked,
                      xb, xbmask, xkeymask, xpacked,
                      qv, qo, &nq, ov, oo, od, &no);
        int64_t base = nchunks_total;
        if (ranges) {   /* score the one merged stream */
            no = merge_hits(qv, qo, nq, ov, oo, od, no, mv, mo, md);
            nq = 0;
        }
        nch = chunk_score_merged(qv, qo, nq, ranges ? mv : ov,
                                 ranges ? mo : oo, ranges ? md : od, no,
                                 len, chunk_size, expected_1kb,
                                 (int32_t)span_script4[span_i], close_set,
                                 hints, nhints, scores, span_i, out_cap,
                                 out_lang1, out_cbytes, out_s1, out_rel,
                                 out_span, &nchunks_total, out_rel_delta);
        if (nch < 0) return scratch_done(&sc, -2);
        if (ranges && nch > 0) {
            sharpen_starts(mv, mo, no, out_lang1 + base, nch, chunk_size,
                           close_set, out_cletter + base);
            starts_to_letters(sp, len, out_cletter + base, nch);
        }
    }
    return scratch_done(&sc, nchunks_total);
}

/* CJK fused scan + chunk scoring — the cjk_candidates -> uni/bi table
 * lookup -> score_chunks_multi chain (tools/hits.py cjk_candidates,
 * langid.py:_fill_totes cjk branch) in one C pass per span.
 *
 * cat: utf-8 buffer holding the CJK span texts, span i at
 * [starts[i], ends[i]); pseudo_lens: per-span "byte length" used for
 * chunk extents (sp.text_bytes — positions are char indices scaled
 * x3, per the numpy path). Unigram key = codepoint, open-address
 * table enumerated from the reference CjkUni trie; bigram = BiHashV2
 * over the raw bytes of two adjacent chars with combined length >= 6
 * (GetBiHits, reference cldutil.cc:248-310), probed into the CJK
 * delta-bi bucket table. No repeat filtering on either stream (the
 * reference walks have none); unis before bis at equal position.
 * Scratch, outputs and return codes as quad_octa_chunk_score's. */
int64_t cjk_chunk_score(
        const uint8_t *cat,
        const int64_t *starts, const int64_t *ends, int64_t nb,
        const int64_t *pseudo_lens,
        const uint64_t *ukeys, const uint64_t *uvals, uint64_t umask,
        const uint32_t *bb, int64_t bnb, uint32_t bkeymask,
        const uint64_t *bpacked,
        int64_t chunk_size,
        const int32_t *expected_1kb, const int8_t *close_set,
        const int64_t *hint_csr, const int64_t *hint_flat,
        int64_t out_cap,
        int16_t *out_lang1, int64_t *out_cbytes, int64_t *out_s1,
        int64_t *out_rel, int64_t *out_span) {
    int64_t nchunks_total = 0, cap = 3 * (max_len(starts, ends, nb) + 8);
    int64_t scores[256] = {0};
    uint32_t bbmask = (uint32_t)(bnb - 1);
    scratch sc = {{0}, 0, 1};
    uint64_t *sc_uvals = scratch_get(&sc, cap, sizeof *sc_uvals, 0);
    int64_t *sc_uoffs = scratch_get(&sc, cap, sizeof *sc_uoffs, 0);
    uint64_t *sc_bvals = scratch_get(&sc, cap, sizeof *sc_bvals, 0);
    int64_t *sc_boffs = scratch_get(&sc, cap, sizeof *sc_boffs, 0);
    if (!sc.ok) return scratch_done(&sc, -1);
    for (int64_t span_i = 0; span_i < nb; span_i++) {
        const uint8_t *sp = cat + starts[span_i];
        int64_t len = ends[span_i] - starts[span_i];

        int64_t nu = 0, nbi = 0;
        int64_t char_idx = 0;
        int64_t prev_pos = -2;     /* char pos of previous NON-SPACE cp */
        int64_t prev_byte = -1;    /* byte start of that char */
        int prev_len = 0;
        for (int64_t i = 0; i < len; char_idx++) {
            int l;
            uint32_t cp = utf8_next(sp, i, len, &l);
            int64_t byte_start = i;
            i += l;
            if (cp == 32) continue;
            /* unigram */
            uint64_t v = table_lookup(ukeys, uvals, umask, (uint64_t)cp);
            if (v) {
                sc_uvals[nu] = v;
                sc_uoffs[nu] = char_idx * 3;
                nu++;
            }
            /* bigram: adjacent chars, combined utf-8 length >= 6 */
            if (prev_pos == char_idx - 1 && prev_len + l >= 6) {
                uint32_t h = bi_hash32(sp, prev_byte,
                                       (int64_t)(prev_len + l), len);
                uint64_t bv = bucket_lookup32(bb, bbmask, bkeymask,
                                              bpacked, h);
                if (bv) {
                    sc_bvals[nbi] = bv;
                    sc_boffs[nbi] = prev_pos * 3;
                    nbi++;
                }
            }
            prev_pos = char_idx;
            prev_byte = byte_start;
            prev_len = l;
        }
        if (chunk_score_merged(sc_uvals, sc_uoffs, nu, sc_bvals, sc_boffs,
                               (const uint8_t *)0, nbi,
                               pseudo_lens[span_i], chunk_size,
                               expected_1kb, -1, close_set,
                               hint_flat + hint_csr[span_i],
                               hint_csr[span_i + 1] - hint_csr[span_i],
                               scores, span_i, out_cap,
                               out_lang1, out_cbytes, out_s1, out_rel,
                               out_span, &nchunks_total, NULL) < 0)
            return scratch_done(&sc, -2);
    }
    return scratch_done(&sc, nchunks_total);
}

/* ====================================================================
 * CLD2's document stage (compact_lang_det_impl.cc:981-1522) for a
 * batch: per document a DocTote with the 24-slot cap (tote.h:67-108),
 * RefineScoredClosePairs, RemoveUnreliableLanguages, ExtractLangEtc,
 * CalcSummaryLang and the Repeats-retry "good" test.  Integer math and
 * tie orders follow the Python chain in tests/oracles/docstage.py,
 * which the tests hold this to.
 * ================================================================ */

#define DS_SLOTS 24                 /* DocTote slots */
#define DS_MIN_RELIABLE 41          /* kMinReliableKeepPercent */
#define DS_GOOD_LANG1 70            /* kGoodLang1Percent */
#define DS_GOOD_LANG1AND2 93        /* kGoodLang1and2Percent */
#define DS_SHORT_TEXT 256           /* kShortTextThresh */
#define DS_NON_EN_BOILER 17         /* kNonEnBoilerplateMinPercent */
#define DS_NON_FIGS_BOILER 20       /* kNonFIGSBoilerplateMinPercent */
#define DS_GOOD_FIRST 26            /* kGoodFirstMinPercent */
#define DS_GOOD_FIRST_RELIABLE 51   /* kGoodFirstReliableMinPercent */
#define DS_IGNORE_MAX 20            /* kIgnoreMaxPercent */
#define DS_KEEP_MIN 2               /* kKeepMinPercent */
#define DS_SECOND_T1T2_BYTES 15     /* kGoodSecondT1T2MinBytes */
#define DS_SECOND_T3_BYTES 128      /* kGoodSecondT3MinBytes */

/* flags */
#define DS_BEST_EFFORT 1   /* no unreliable removal, no 26% floor */
#define DS_TOTE_TOP 2      /* raw tote: top language if >= 41% reliable */

/* lang_props columns (int64[num_langs, 4]) */
#define LP_CLOSE_SET 0
#define LP_CLOSEST_ALT 1
#define LP_TIER 2
#define LP_FLAGS 3         /* 1 = FIGS, 2 = EFIGS */

typedef struct {
    int64_t n;
    int64_t lang[DS_SLOTS], bytes[DS_SLOTS], score[DS_SLOTS], rel[DS_SLOTS];
} doc_tote;

/* Python's floor division (the oracle's //) */
static inline int64_t floordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    return (a % b != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
}

static inline int64_t tote_find(const doc_tote *t, int64_t lang) {
    for (int64_t i = 0; i < t->n; i++)
        if (t->lang[i] == lang) return i;
    return -1;
}

/* remove slot i, keeping insertion order */
static void tote_del(doc_tote *t, int64_t i) {
    for (int64_t j = i + 1; j < t->n; j++) {
        t->lang[j - 1] = t->lang[j];
        t->bytes[j - 1] = t->bytes[j];
        t->score[j - 1] = t->score[j];
        t->rel[j - 1] = t->rel[j];
    }
    t->n--;
}

static void tote_append(doc_tote *t, int64_t lang, int64_t nbytes,
                        int64_t score, int64_t rel_bytes) {
    int64_t i = t->n++;
    t->lang[i] = lang;
    t->bytes[i] = nbytes;
    t->score[i] = score;
    t->rel[i] = rel_bytes;
}

/* DocTote::Add: a full tote evicts its entry with the fewest bytes
 * (the earliest inserted on a tie) unless that has at least nbytes,
 * in which case the new language is dropped */
static void tote_add(doc_tote *t, int64_t lang, int64_t nbytes,
                     int64_t score, int64_t reliability) {
    int64_t i = tote_find(t, lang);
    if (i >= 0) {
        t->bytes[i] += nbytes;
        t->score[i] += score;
        t->rel[i] += reliability * nbytes;
        return;
    }
    if (t->n >= DS_SLOTS) {
        int64_t s = 0;
        for (int64_t j = 1; j < t->n; j++)
            if (t->bytes[j] < t->bytes[s]) s = j;
        if (t->bytes[s] >= nbytes) return;
        tote_del(t, s);
    }
    tote_append(t, lang, nbytes, score, reliability * nbytes);
}

/* move src's totals onto dst; new_rel_pct >= 0 resets dst's
 * reliability to that percent of its bytes */
static void tote_merge(doc_tote *t, int64_t src, int64_t dst,
                       int64_t new_rel_pct) {
    int64_t nb = 0, ns = 0, nr = 0;
    int64_t i = tote_find(t, src);
    if (i >= 0) {
        nb = t->bytes[i];
        ns = t->score[i];
        nr = t->rel[i];
        tote_del(t, i);
    }
    int64_t j = tote_find(t, dst);
    if (j >= 0) {
        t->bytes[j] += nb;
        t->score[j] += ns;
        t->rel[j] += nr;
    } else {
        tote_append(t, dst, nb, ns, nr);
        j = t->n - 1;
    }
    if (new_rel_pct >= 0) t->rel[j] = new_rel_pct * t->bytes[j];
}

static inline int64_t tote_rel_pct(const doc_tote *t, int64_t lang) {
    int64_t i = tote_find(t, lang);
    return (i >= 0 && t->bytes[i]) ? floordiv(t->rel[i], t->bytes[i]) : 0;
}

/* the tote's languages, ascending */
static int64_t tote_sorted_langs(const doc_tote *t, int64_t *out) {
    for (int64_t i = 0; i < t->n; i++) {
        int64_t v = t->lang[i], j = i;
        for (; j > 0 && out[j - 1] > v; j--) out[j] = out[j - 1];
        out[j] = v;
    }
    return t->n;
}

/* RefineScoredClosePairs (impl.cc:1152-1203): within each close set
 * the top scorer (smaller id on a tie) absorbs the other members */
static void refine_close_pairs(doc_tote *t, const int64_t *props) {
    for (int64_t i = 0; i < t->n; i++) {
        int64_t cs = props[t->lang[i] * 4 + LP_CLOSE_SET];
        if (cs == 0) continue;
        int64_t w = i, members = 0;
        for (int64_t j = 0; j < t->n; j++) {
            if (props[t->lang[j] * 4 + LP_CLOSE_SET] != cs) continue;
            members++;
            if (t->score[j] > t->score[w]
                    || (t->score[j] == t->score[w]
                        && t->lang[j] < t->lang[w]))
                w = j;
        }
        if (members < 2) continue;
        int64_t winner = t->lang[w];
        for (int64_t j = t->n - 1; j >= 0; j--)
            if (t->lang[j] != winner
                    && props[t->lang[j] * 4 + LP_CLOSE_SET] == cs)
                tote_merge(t, t->lang[j], winner, -1);
        i = -1;    /* slots moved: rescan; merged sets have one member */
    }
}

/* RemoveUnreliableLanguages (impl.cc:997-1101): a language under 41%
 * reliability merges with its closest alternative when that is in the
 * tote (into the more reliable one, the smaller id on a tie), else is
 * deleted; when both zh and zh-Hant are there, an unreliable zh-Hant
 * merges into zh and zh stays */
static void remove_unreliable(doc_tote *t, const int64_t *props,
                              int64_t zh, int64_t zht) {
    int64_t order[DS_SLOTS];
    int64_t n = tote_sorted_langs(t, order);
    for (int64_t k = 0; k < n; k++) {
        int64_t lid = order[k];
        if (tote_find(t, lid) < 0
                || tote_rel_pct(t, lid) >= DS_MIN_RELIABLE)
            continue;
        int64_t alt = props[lid * 4 + LP_CLOSEST_ALT];
        if (alt && tote_find(t, alt) >= 0) {
            int64_t rp = tote_rel_pct(t, lid), ra = tote_rel_pct(t, alt);
            int into_alt = ra > rp || (ra == rp && alt < lid);
            int64_t pct = rp > ra ? rp : ra;
            if (pct < DS_MIN_RELIABLE) pct = DS_MIN_RELIABLE;
            if (into_alt) tote_merge(t, lid, alt, pct);
            else tote_merge(t, alt, lid, pct);
        }
    }
    int both_zh = tote_find(t, zh) >= 0 && tote_find(t, zht) >= 0;
    n = tote_sorted_langs(t, order);
    for (int64_t k = 0; k < n; k++) {
        int64_t lid = order[k];
        int64_t i = tote_find(t, lid);
        if (i < 0 || tote_rel_pct(t, lid) >= DS_MIN_RELIABLE) continue;
        if (both_zh && (lid == zh || lid == zht)) {
            if (lid == zht) tote_merge(t, zht, zh, DS_MIN_RELIABLE);
            continue;
        }
        tote_del(t, i);
    }
}

static inline int in_declared(const int64_t *decl, int64_t nd,
                              int64_t lang) {
    for (int64_t k = 0; k < nd; k++)
        if (decl[k] == lang) return 1;
    return 0;
}

/* The document stage of n_docs documents.
 *
 * Tote adds come as n_streams streams back to back in the add_*
 * arrays; stream s is [stream_ends[s-1], stream_ends[s]) and lists
 * its adds in order with add_doc non-decreasing.  Document d takes
 * its adds from stream 0, then stream 1, ... (the caller's RTYPE_ONE
 * spans, MANY chunks, CJK chunks); adds of the unknown language are
 * skipped.  add_rel is a reliability percent.
 *
 * totals[d]: the document's letter bytes (ExtractLangEtc's
 * total_text_bytes and the good test's).  Declared languages of doc
 * d: decl_flat[decl_csr[d], decl_csr[d+1]).  ids: unknown, english,
 * zh, zh-Hant.  Outputs per doc: summary, lang3[3], pct3[3],
 * nscore3[3], text_bytes, reliable, good. */
int64_t doc_stage(
        int64_t n_docs, const int64_t *stream_ends, int64_t n_streams,
        const int64_t *add_doc, const int64_t *add_lang,
        const int64_t *add_bytes, const int64_t *add_score,
        const int64_t *add_rel,
        const int64_t *totals, const int64_t *decl_csr,
        const int64_t *decl_flat, int64_t flags,
        const int64_t *props, const int64_t *ids,
        int64_t *out_summary, int64_t *out_lang3, int64_t *out_pct3,
        double *out_nscore3, int64_t *out_text_bytes,
        uint8_t *out_reliable, uint8_t *out_good) {
    const int64_t unknown = ids[0], english = ids[1];
    int64_t pos[16];
    if (n_streams > 16) return -1;
    for (int64_t s = 0; s < n_streams; s++)
        pos[s] = s ? stream_ends[s - 1] : 0;
    for (int64_t d = 0; d < n_docs; d++) {
        doc_tote t;
        t.n = 0;
        for (int64_t s = 0; s < n_streams; s++) {
            int64_t p = pos[s];
            for (; p < stream_ends[s] && add_doc[p] == d; p++)
                if (add_lang[p] != unknown)
                    tote_add(&t, add_lang[p], add_bytes[p], add_score[p],
                             add_rel[p]);
            pos[s] = p;
        }
        int tote_top = (flags & DS_TOTE_TOP) != 0;
        int best_effort = (flags & DS_BEST_EFFORT) != 0;
        if (!tote_top) {
            refine_close_pairs(&t, props);
            if (!best_effort) remove_unreliable(&t, props, ids[2], ids[3]);
        }

        /* ExtractLangEtc (impl.cc:1277-1384): top 3 by bytes (smaller
         * id on a tie), cumulative-difference percents */
        int64_t top[3] = {-1, -1, -1};
        for (int64_t i = 0; i < t.n; i++) {
            for (int r = 0; r < 3; r++) {
                int64_t c = top[r];
                if (c < 0 || t.bytes[i] > t.bytes[c]
                        || (t.bytes[i] == t.bytes[c]
                            && t.lang[i] < t.lang[c])) {
                    for (int q = 2; q > r; q--) top[q] = top[q - 1];
                    top[r] = i;
                    break;
                }
            }
        }
        int64_t lang3[3], bc[3], relpct[3];
        double nscore[3];
        for (int r = 0; r < 3; r++) {
            int64_t i = top[r];
            lang3[r] = i >= 0 ? t.lang[i] : unknown;
            bc[r] = i >= 0 ? t.bytes[i] : 0;
            int64_t b = bc[r] ? bc[r] : 1;
            relpct[r] = i >= 0 ? floordiv(t.rel[i], b) : 0;
            nscore[r] = (i >= 0 && bc[r] > 0)
                ? (double)floordiv(t.score[i] * 1024, b) : 0.0;
        }
        int64_t total12 = bc[0] + bc[1], total123 = total12 + bc[2];
        int64_t total = totals[d] > total123 ? totals[d] : total123;
        int64_t div = total > 1 ? total : 1;
        int64_t p0 = floordiv(bc[0] * 100, div);
        int64_t p1 = floordiv(total12 * 100, div);
        int64_t p2 = floordiv(total123 * 100, div);
        p2 -= p1;
        p1 -= p0;
        if (p1 < p2) { p1++; p2--; }
        if (p0 < p1) { p0++; p1--; }
        int64_t pct[3] = {p0, p1, p2};
        int is_rel = lang3[0] != unknown && relpct[0] >= DS_MIN_RELIABLE;
        if (100 - (p0 + p1 + p2) > DS_IGNORE_MAX) is_rel = 0;

        int64_t summary = lang3[0];
        int reliable = is_rel;
        if (tote_top) {
            summary = (t.n && relpct[0] >= DS_MIN_RELIABLE)
                ? lang3[0] : unknown;
        } else {
            /* CalcSummaryLang (impl.cc:1414-1522) plus the declared-
             * language refinements (see tests/oracles/docstage.py) */
            const int64_t *decl = decl_flat + decl_csr[d];
            int64_t nd = decl_csr[d + 1] - decl_csr[d];
            int64_t ignore_pct = 0, ret_pct = pct[0];
            int rel2 = pct[0] >= DS_KEEP_MIN;
            int64_t first = lang3[0], second = lang3[1];
            int64_t second_bytes = floordiv(total * pct[1], 100);
            int64_t minbytes = props[second * 4 + LP_TIER] == 3
                ? DS_SECOND_T3_BYTES : DS_SECOND_T1T2_BYTES;
            int first_declared = nd > 0 && in_declared(decl, nd, first);
            int64_t ff = props[first * 4 + LP_FLAGS];
            int64_t sf = props[second * 4 + LP_FLAGS];
            if (first == english && second != english
                    && second != unknown && !first_declared
                    && pct[1] >= DS_NON_EN_BOILER
                    && second_bytes >= minbytes) {
                ignore_pct += pct[0];
                ret_pct = floordiv(pct[1] * 100, 101 - ignore_pct);
                summary = second;
                if (pct[1] < DS_KEEP_MIN) rel2 = 0;
            } else if ((ff & 1) && !(sf & 2) && second != unknown
                       && !first_declared
                       && pct[1] >= DS_NON_FIGS_BOILER
                       && second_bytes >= minbytes) {
                ignore_pct += pct[0];
                ret_pct = floordiv(pct[1] * 100, 101 - ignore_pct);
                summary = second;
                if (pct[1] < DS_KEEP_MIN) rel2 = 0;
            } else if (second == english && first != english) {
                ignore_pct += pct[1];
                ret_pct = floordiv(pct[0] * 100, 101 - ignore_pct);
            } else if ((sf & 1) && !(ff & 2)) {
                ignore_pct += pct[1];
                ret_pct = floordiv(pct[0] * 100, 101 - ignore_pct);
            }
            if (ret_pct < DS_GOOD_FIRST && !best_effort) {
                summary = unknown;
                rel2 = 0;
            }
            if (ret_pct < DS_GOOD_FIRST_RELIABLE) rel2 = 0;
            if (100 - (pct[0] + pct[1] + pct[2]) > DS_IGNORE_MAX) rel2 = 0;
            if (nd > 0 && summary != unknown
                    && !in_declared(decl, nd, summary)) {
                for (int r = 0; r < 3; r++) {
                    int64_t lid = lang3[r];
                    if (lid == unknown || !in_declared(decl, nd, lid))
                        continue;
                    int64_t th = lid == english ? DS_NON_EN_BOILER
                                                : DS_NON_FIGS_BOILER;
                    if (pct[r] >= th
                            && floordiv(total * pct[r], 100)
                               >= DS_SECOND_T1T2_BYTES) {
                        summary = lid;
                        break;
                    }
                }
            }
            reliable = is_rel && rel2;
        }
        out_summary[d] = summary;
        for (int r = 0; r < 3; r++) {
            out_lang3[d * 3 + r] = lang3[r];
            out_pct3[d * 3 + r] = pct[r];
            out_nscore3[d * 3 + r] = nscore[r];
        }
        out_text_bytes[d] = total;
        out_reliable[d] = (uint8_t)reliable;
        out_good[d] = totals[d] <= DS_SHORT_TEXT
            || (reliable && (pct[0] >= DS_GOOD_LANG1
                             || pct[0] + pct[1] >= DS_GOOD_LANG1AND2));
    }
    return n_docs;
}

/* Script-run segmentation of one document (cld2_ray/functions/spans.py
 * script_spans; called per doc by script_spans_scan_multi) in ONE C
 * pass: utf-8 decode, script LUT, pinned 1:1 lowercase,
 * 160KB letter budget, single-foreign-letter absorption, word gaps,
 * span breaks, giant-run splitting at word gaps near MAX_SCRIPT_BYTES
 * multiples, and framed " w1 w2 " utf-8 emission — bit-equal to the
 * numpy oracle tests/oracles/spans.py (cross-checked in tests).
 *
 * Pass 1 stops at the letter that crosses the budget, so with
 * text_limit >= 1 it records at most c = min(n, text_limit + 1)
 * letters (each is >= 1 byte, lowered).
 * Per letter (capacities >= c; lt_sc, lt_low and lt_len are
 * script_spans_scan_multi's per-call scratch):
 *   lt_idx  int64  — original char index per kept letter (an output)
 *   lt_sc   uint8  — RAW script per letter (absorption applied in place)
 *   lt_low  uint32 — lowered codepoint per letter
 *   lt_len  uint8  — utf8 length of the LOWERED codepoint
 * Outputs:
 *   out_buf  uint8, cap >= 3 * c + 1: a kept letter of l input bytes
 *            lowers to ll <= l + 1 bytes (ll == l when l == 1) and
 *            adds either its span's two framing spaces or one word
 *            gap, which stands for >= 1 input byte of non-letters —
 *            so <= 3 bytes per input byte and <= 3 * ll; the + 1 is a
 *            lead byte cut off at the end of the text (invalid UTF-8),
 *            which decodes as a 1-byte Latin-1 letter that lowers to 2
 *   meta     int64 x 7 per span: [script, char_off, char_end,
 *            out_start, out_bytes, lp_start, lp_end]
 *            (lp_* index into lt_idx; out_bytes == text_bytes)
 * Returns the span count. */
static int64_t script_spans_scan(const uint8_t *text, int64_t n,
                                 const uint8_t *script_lut,
                                 const uint32_t *lower_lut, int64_t lut_size,
                                 int64_t text_limit, int64_t max_span_bytes,
                                 int64_t *lt_idx, uint8_t *lt_sc,
                                 uint32_t *lt_low, uint8_t *lt_len,
                                 uint8_t *out_buf, int64_t *meta) {
    /* ---- pass 1: letters ---- */
    int64_t nl = 0;
    int64_t ci = 0;
    int64_t lb_sum = 0;
    int64_t budget_keep = -1;     /* letter count at the 160KB budget */
    for (int64_t i = 0; i < n; ci++) {
        int l;
        uint32_t cp = utf8_next(text, i, n, &l);
        i += l;
        uint8_t sc = cp < (uint32_t)lut_size ? script_lut[cp] : 0;
        if (sc == 0) continue;
        uint32_t low = cp < (uint32_t)lut_size ? lower_lut[cp] : cp;
        int ll = utf8_enc_len(low);
        lt_idx[nl] = ci;
        lt_sc[nl] = sc;
        lt_low[nl] = low;
        lt_len[nl] = (uint8_t)ll;
        nl++;
        lb_sum += ll;
        /* nothing after the letter that crosses the budget is read */
        if (lb_sum > text_limit) { budget_keep = nl - 1; break; }
    }
    if (nl == 0) return 0;
    /* numpy: keep = searchsorted(cumsum(lb), limit, 'right'), min 1 —
     * the first letter index whose cumulative length exceeds limit */
    if (budget_keep >= 0) {
        nl = budget_keep > 0 ? budget_keep : 1;
    }

    /* ---- pass 2: single-foreign-letter absorption (in place), run
     * by run as tests/oracles/spans.py _absorb_single_foreign ---- */
    {
        uint8_t cur_s = lt_sc[0];
        int64_t k = 0;
        while (k < nl) {
            int64_t a = k;
            uint8_t s = lt_sc[a];
            while (k < nl && lt_sc[k] == s) k++;
            if (a == 0 || s == cur_s) continue;   /* same-script: extend */
            if (k - a == 1) {
                int follows_nonletter = (a == nl - 1)
                    || (lt_idx[a + 1] != lt_idx[a] + 1);
                if (follows_nonletter
                    || (a + 1 < nl && lt_sc[a + 1] == cur_s)) {
                    lt_sc[a] = cur_s;     /* absorbed */
                    continue;
                }
            }
            cur_s = s;                    /* a break: a new run */
        }
    }

    /* ---- pass 3: spans ---- */
    int64_t nspans = 0;
    int64_t out_pos = 0;
    int64_t s = 0;
    while (s < nl) {
        int64_t e = s + 1;
        while (e < nl && lt_sc[e] == lt_sc[s]) e++;
        /* segment [s, e): split at ~max_span_bytes on word gaps.
         * approx[j] = cumulative (lb + gap) within the segment, where
         * gap excludes position 0 (seg_gap[0] = False) */
        int64_t total = 0;
        for (int64_t j = s; j < e; j++) {
            int gapj = (j > s) && (lt_idx[j] != lt_idx[j - 1] + 1);
            total += lt_len[j] + gapj;
        }
        int64_t n_chunks = total / max_span_bytes + 1;
        /* bounds (indices local to segment) */
        int64_t b_prev = 0;
        for (int64_t chunk = 1; chunk <= n_chunks; chunk++) {
            int64_t b1;
            if (chunk == n_chunks) {
                b1 = e - s;
            } else {
                /* target = first local idx with approx >= chunk*max;
                 * pos = last gap position <= target (local), else
                 * target */
                int64_t want = chunk * max_span_bytes;
                int64_t acc = 0;
                int64_t target = e - s;    /* if never reached */
                int64_t last_gap_le = -1;
                for (int64_t j = s; j < e; j++) {
                    int gapj = (j > s) && (lt_idx[j] != lt_idx[j - 1] + 1);
                    acc += lt_len[j] + gapj;
                    if (acc >= want) { target = j - s; break; }
                }
                /* last gap position STRICTLY before target (numpy:
                 * gap_pos[searchsorted(gap_pos, target) - 1]) */
                int64_t start_j = target - 1 < e - s - 1
                    ? target - 1 : e - s - 1;
                for (int64_t j = s + start_j; j > s; j--) {
                    if (lt_idx[j] != lt_idx[j - 1] + 1) {
                        last_gap_le = j - s;
                        break;
                    }
                }
                b1 = last_gap_le >= 0 ? last_gap_le : target;
                if (b1 <= b_prev) continue;   /* numpy: only if > last */
            }
            if (chunk == n_chunks && b1 <= b_prev) break;
            /* emit piece [s+b_prev, s+b1) */
            int64_t p0 = s + b_prev, p1 = s + b1;
            int64_t os = out_pos;
            out_buf[out_pos++] = 0x20;
            for (int64_t j = p0; j < p1; j++) {
                if (j > p0 && lt_idx[j] != lt_idx[j - 1] + 1)
                    out_buf[out_pos++] = 0x20;
                out_pos += utf8_put(out_buf + out_pos, lt_low[j]);
            }
            out_buf[out_pos++] = 0x20;
            int64_t *m = meta + nspans * 7;
            m[0] = lt_sc[s];
            m[1] = lt_idx[p0];
            m[2] = lt_idx[p1 - 1] + 1;
            m[3] = os;
            m[4] = out_pos - os;
            m[5] = p0;
            m[6] = p1;
            nspans++;
            b_prev = b1;
        }
        s = e;
    }
    return nspans;
}

/* HTML visible-text extraction (cld2_ray/functions/extract.py
 * extract_text) in ONE C pass — bit-equal to the Python oracle
 * tests/oracles/extract.py (cross-checked in tests): whitespace-run
 * compression to the run's FIRST char with cross-segment state, tag
 * skipping with the reference's comment / script / style /
 * quoted-attribute / unmatched-'<' semantics, <p|<br|<tr newline
 * substitution, and entity expansion (numeric with FixUnicodeValue via low_map, named via the
 * packed-name table with the IE6 ';' rule). Input must be valid UTF-8
 * with \r already normalized to \n (extract_scan_batch does that).
 *
 * ent table: the entity names (bytes LE, <= 8) -> codepoint, probed
 * with table_lookup; low_map: uint32[256] FixUnicodeValue low mapping.
 * out cap >= n + 8. Returns output length. */
static inline int ext_is_alnum(uint8_t c) {
    return (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z')
        || (c >= 'a' && c <= 'z');
}

static inline int64_t ext_fix_uv(int64_t uv, const uint32_t *low_map) {
    if (uv < 0) return 0xFFFD;
    if (uv < 0x100) return low_map[uv];
    if (uv < 0xD800) return uv;
    if ((uv & ~0x0FLL) == 0xFDD0 || (uv & ~0x0FLL) == 0xFDE0)
        return 0xFFFD;
    if ((uv & 0xFFFE) == 0xFFFE) return 0xFFFD;
    if (uv >= 0xE000 && uv <= 0x10FFFF) return uv;
    return 0xFFFD;
}

/* returns codepoint (or -1) and sets *consumed; b[i] == '&' */
static int64_t ext_read_entity(const uint8_t *b, int64_t n, int64_t i,
                               const uint64_t *ekeys, const uint64_t *evals,
                               uint64_t emask, const uint32_t *low_map,
                               int64_t *consumed) {
    int64_t j = i + 1;
    int64_t val;
    if (j < n && b[j] == '#') {
        int hex = (j + 1 < n && (b[j + 1] == 'x' || b[j + 1] == 'X'));
        int64_t d0 = j + 1 + (hex ? 1 : 0);
        int64_t k = d0;
        if (hex) {
            while (k < n && ((b[k] >= '0' && b[k] <= '9')
                             || (b[k] >= 'a' && b[k] <= 'f')
                             || (b[k] >= 'A' && b[k] <= 'F'))) k++;
        } else {
            while (k < n && b[k] >= '0' && b[k] <= '9') k++;
        }
        if (k == d0) { *consumed = 1; return -1; }
        /* strip leading zeros */
        int64_t s = d0;
        while (s < k - 1 && b[s] == '0') s++;
        int64_t nd = k - s;
        if (hex) {
            if (nd > 8 || (nd == 8 && b[s] >= '8')) val = 0xFFFD;
            else {
                int64_t v = 0;
                for (int64_t t = s; t < k; t++) {
                    uint8_t c = b[t];
                    int64_t d = c <= '9' ? c - '0'
                        : (c <= 'F' ? c - 'A' + 10 : c - 'a' + 10);
                    v = v * 16 + d;
                }
                val = ext_fix_uv(v, low_map);
            }
        } else {
            if (nd > 10) val = 0xFFFD;
            else {
                /* compare against 2147483647 at 10 digits */
                int over = 0;
                if (nd == 10) {
                    static const char lim[] = "2147483647";
                    for (int64_t t = 0; t < 10; t++) {
                        if (b[s + t] != (uint8_t)lim[t]) {
                            over = b[s + t] > (uint8_t)lim[t];
                            break;
                        }
                    }
                }
                if (over) val = 0xFFFD;
                else {
                    int64_t v = 0;
                    for (int64_t t = s; t < k; t++)
                        v = v * 10 + (b[t] - '0');
                    val = ext_fix_uv(v, low_map);
                }
            }
        }
        int64_t end = k;
        if (end < n && b[end] == ';') end++;
        *consumed = end - i;
        return val;
    }
    /* named entity */
    int64_t k = j;
    while (k < n && ext_is_alnum(b[k])) k++;
    if (k == j) { *consumed = 1; return -1; }
    int64_t nlen = k - j;
    if (nlen > 8) { *consumed = 1; return -1; }
    uint64_t key = 0;
    for (int64_t t = 0; t < nlen; t++)
        key |= (uint64_t)b[j + t] << (8 * t);
    int64_t v = (int64_t)table_lookup(ekeys, evals, emask, key);
    if (v == 0) { *consumed = 1; return -1; }
    int terminated = (k < n && b[k] == ';');
    if (v >= 256 && !terminated) { *consumed = 1; return -1; }
    int64_t end = k + (terminated ? 1 : 0);
    *consumed = end - i;
    return v;
}

/* ci-compare b[i..] against lowercase name; returns 1 on match */
static inline int ext_ci_match(const uint8_t *b, int64_t n, int64_t i,
                               const char *name, int len) {
    if (i + len > n) return 0;
    for (int t = 0; t < len; t++)
        if ((b[i + t] | 0x20) != (uint8_t)name[t]) return 0;
    return 1;
}

/* find "</" [\x00-\x20]* name(ci) ">" starting at or after j */
static int64_t ext_find_close(const uint8_t *b, int64_t n, int64_t j,
                              const char *name, int len) {
    for (; j + 1 < n; j++) {
        if (b[j] != '<' || b[j + 1] != '/') continue;
        int64_t k = j + 2;
        while (k < n && b[k] <= 0x20) k++;
        if (ext_ci_match(b, n, k, name, len) && k + len < n
            && b[k + len] == '>')
            return k + len + 1;
    }
    return -1;
}

static int64_t ext_scan_tag_end(const uint8_t *b, int64_t n, int64_t i) {
    if (i + 3 < n && b[i + 1] == '!' && b[i + 2] == '-' && b[i + 3] == '-') {
        for (int64_t j = i + 4; j + 2 < n; j++)
            if (b[j] == '-' && b[j + 1] == '-' && b[j + 2] == '>')
                return j + 3;
        return n;
    }
    if (ext_ci_match(b, n, i + 1, "script", 6) && i + 7 < n
        && (b[i + 7] == '>' || b[i + 7] <= 0x20)) {
        int64_t e = ext_find_close(b, n, i + 8, "script", 6);
        return e < 0 ? n : e;
    }
    if (ext_ci_match(b, n, i + 1, "style", 5) && i + 6 < n
        && (b[i + 6] == '>' || b[i + 6] <= 0x20)) {
        int64_t e = ext_find_close(b, n, i + 7, "style", 5);
        return e < 0 ? n : e;
    }
    int64_t j = i + 1;
    while (j < n) {
        uint8_t c = b[j];
        if (c == '>') return j + 1;
        if (c == '<') return i + 1;
        if (c == '"' || c == '\'') {
            int64_t q = j + 1;
            while (q < n && b[q] != c && b[q] != '\n') q++;
            if (q >= n) return n;
            if (b[q] == c) { j = q + 1; continue; }
            /* newline inside quote: only > or < end the tag */
            int64_t r = q + 1;
            while (r < n && b[r] != '>' && b[r] != '<') r++;
            if (r >= n) return n;
            if (b[r] == '>') return r + 1;
            return i + 1;
        }
        j++;
    }
    return n;
}

static inline int ext_newline_tag(const uint8_t *b, int64_t n, int64_t i) {
    if (i >= n - 3) return 0;
    uint8_t c1 = b[i + 1] | 0x20;
    if (c1 == 'p' && b[i + 2] < 0x40) return 1;
    uint8_t c2 = b[i + 2] | 0x20;
    if (c1 == 'b' && c2 == 'r' && b[i + 3] < 0x40) return 1;
    if (c1 == 't' && c2 == 'r' && b[i + 3] < 0x40) return 1;
    return 0;
}

/* src_of, when not NULL, gets the source position of each output
 * byte: src_of[k] = position in b that produced out[k] (tag
 * separators -> the '<', entity bytes -> the '&'). Forced inline so
 * the NULL call site compiles without the src_of stores. */
static inline __attribute__((always_inline)) int64_t extract_scan(
        const uint8_t *b, int64_t n, const uint64_t *ekeys,
        const uint64_t *evals, uint64_t emask, const uint32_t *low_map,
        uint8_t *out, int64_t *src_of) {
    int64_t op = 0;
    int last_ws = 0;
    int64_t pos = 0;
    while (pos < n) {
        uint8_t c = b[pos];
        if (c == '<') {
            uint8_t rep = ext_newline_tag(b, n, pos) ? 0x0A : 0x20;
            if (!last_ws) {
                if (src_of) src_of[op] = pos;
                out[op++] = rep;
                last_ws = 1;
            }
            pos = ext_scan_tag_end(b, n, pos);
        } else if (c == '>') {
            if (src_of) src_of[op] = pos;
            out[op++] = '>';   /* stray '>': last_ws untouched (quirk) */
            pos++;
        } else if (c == '&') {
            int64_t consumed;
            int64_t v = ext_read_entity(b, n, pos, ekeys, evals, emask,
                                        low_map, &consumed);
            if (v >= 0) {
                /* utf-8 emit; last_ws bypassed (reference quirk) */
                int64_t e0 = op;
                op += utf8_put(out + op, (uint32_t)v);
                if (src_of)
                    for (int64_t k = e0; k < op; k++) src_of[k] = pos;
            }
            pos += consumed;
        } else if (c == 0x20 || c == 0x0A) {
            if (!last_ws) {
                if (src_of) src_of[op] = pos;
                out[op++] = c;
                last_ws = 1;
            }
            pos++;
        } else {
            if (src_of) src_of[op] = pos;
            out[op++] = c;
            last_ws = 0;
            pos++;
        }
    }
    return op;
}

/* The length of the longest valid UTF-8 prefix of b[0, n), as Python's
 * strict decoder finds it (the start of its first error; the
 * reference's SpanInterchangeValid gate): no surrogates, no overlong
 * forms, nothing above U+10FFFF, and a sequence cut off at n ends the
 * prefix at its lead byte.  ASCII runs go 8 bytes a step. */
static int64_t utf8_valid_prefix(const uint8_t *b, int64_t n) {
    int64_t i = 0;
    while (i < n) {
        uint8_t c = b[i];
        if (c < 0x80) {
            while (i + 8 <= n && !(load_le64(b + i) & 0x8080808080808080ULL))
                i += 8;
            while (i < n && b[i] < 0x80) i++;
            continue;
        }
        int len;
        uint8_t lo = 0x80, hi = 0xBF;   /* the second byte's range */
        if (c >= 0xC2 && c <= 0xDF) {
            len = 2;
        } else if (c >= 0xE0 && c <= 0xEF) {
            len = 3;
            if (c == 0xE0) lo = 0xA0;        /* overlong */
            else if (c == 0xED) hi = 0x9F;   /* surrogates */
        } else if (c >= 0xF0 && c <= 0xF4) {
            len = 4;
            if (c == 0xF0) lo = 0x90;        /* overlong */
            else if (c == 0xF4) hi = 0x8F;   /* above U+10FFFF */
        } else {
            return i;
        }
        if (i + len > n || b[i + 1] < lo || b[i + 1] > hi) return i;
        for (int k = 2; k < len; k++)
            if ((b[i + k] & 0xC0) != 0x80) return i;
        i += len;
    }
    return n;
}

/* extract_text over a whole batch of pages in ONE call (a ctypes call
 * per page cost ~9.5 us, more than the extraction of a short page).
 * Page d is cat[offsets_in[d], offsets_in[d+1]), any bytes: the UTF-8
 * gate writes valid[d], the length of its longest valid UTF-8 prefix
 * (utf8_valid_prefix), and the page's text is extracted from that
 * prefix.  A prefix holding a '\r' is first copied to a scratch
 * buffer with \r\n -> \n and lone \r -> \n (== Python's
 * replace(b"\r\n", b"\n").replace(b"\r", b"\n")). Page d's text is
 * written to out[offsets[d]:offsets[d+1]], offsets[0] = 0: the data
 * and offsets buffers of an Arrow large_string column. No page grows
 * (every entity is at least as long as its UTF-8 encoding), so out
 * cap >= offsets_in[n_docs] - offsets_in[0] + 8.
 *
 * src_of (NULL, or cap as out) is the per-output-byte source map back
 * to the RAW page: src_of[k] = position within its page of the byte
 * that produced out[k]. On a normalized page the scanner's positions
 * go through the scratch's raw positions, so \r\n maps to its \n and
 * a lone \r to itself. Mapping a text range back to raw offsets is
 * then one array index (extract.text_to_raw, for the flagship
 * chunks column);
 * tests/oracles/extract.py's OffsetMap is its test oracle.
 * The scratch holds the longest prefix that has a '\r'.  Returns the
 * total text length, or -1 when the scratch cannot be allocated. */
int64_t extract_scan_batch(const uint8_t *cat, const int64_t *offsets_in,
                           int64_t n_docs, const uint64_t *ekeys,
                           const uint64_t *evals, uint64_t emask,
                           const uint32_t *low_map, uint8_t *out,
                           int64_t *offsets, int64_t *valid,
                           int64_t *src_of) {
    int64_t cap = 0, op = 0;   /* the longest prefix holding a \r */
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t n = valid[d] = utf8_valid_prefix(
            cat + offsets_in[d], offsets_in[d + 1] - offsets_in[d]);
        if (n > cap && memchr(cat + offsets_in[d], '\r', (size_t)n)) cap = n;
    }
    scratch sc = {{0}, 0, 1};
    uint8_t *norm = scratch_get(&sc, cap, 1, 0);
    int64_t *raw_of =
        src_of ? scratch_get(&sc, cap, sizeof *raw_of, 0) : NULL;
    if (!sc.ok) return scratch_done(&sc, -1);
    offsets[0] = 0;
    for (int64_t d = 0; d < n_docs; d++) {
        const uint8_t *b = cat + offsets_in[d];
        int64_t n = valid[d];
        int has_cr = n > 0 && memchr(b, '\r', (size_t)n);
        if (has_cr) {
            int64_t m = 0;
            for (int64_t i = 0; i < n; i++) {
                if (b[i] == '\r' && i + 1 < n && b[i + 1] == '\n')
                    continue;
                if (src_of) raw_of[m] = i;
                norm[m++] = b[i] == '\r' ? '\n' : b[i];
            }
            b = norm;
            n = m;
        }
        if (src_of) {
            int64_t k0 = op;
            op += extract_scan(b, n, ekeys, evals, emask, low_map,
                               out + op, src_of + op);
            if (has_cr)
                for (int64_t k = k0; k < op; k++)
                    src_of[k] = raw_of[src_of[k]];
        } else {
            op += extract_scan(b, n, ekeys, evals, emask, low_map,
                               out + op, NULL);
        }
        offsets[d + 1] = op;
    }
    return scratch_done(&sc, op);
}

/* ====================================================================
 * Page hints (hints.page_hints, the reference's GetLangTagsFromHtml,
 * SetCLDLangTagsHint, SetCLDEncodingHint, SetCLDTLDHint and
 * TrimCLDLangPriors, compact_lang_det_hint_code.cc:941-971,
 * 1394-1612): a page's lang= / xml:lang attributes, its first
 * Content-Language meta and its first charset, read in its valid
 * UTF-8 head of at most HS_HEAD bytes with the skipped tag contexts
 * blanked, and the TLD of its url, merged into its priors.  Every
 * pattern is matched as Python's re matches the hints.py regex it
 * stands for: ASCII case folding, bytes \s = [ \t\n\v\f\r], \b over
 * ASCII word chars, and $ also just before a final \n.
 */
#define HS_HEAD 8192     /* FLAGS_cld_max_lang_tag_scan_kb = 8 */
#define HS_PRIORS 4      /* TrimCLDLangPriors(4, ...) */
#define HS_ENCODING_WEIGHT 4
#define HS_KEY_TAG (1ULL << 56)   /* hint table key kinds */
#define HS_KEY_TLD (2ULL << 56)

static inline uint8_t hs_lower(uint8_t c) {
    return c >= 'A' && c <= 'Z' ? c | 0x20 : c;
}
static inline int hs_alpha(uint8_t c) {
    return (uint8_t)((c | 0x20) - 'a') < 26;
}
static inline int hs_word(uint8_t c) {
    return hs_alpha(c) || (c >= '0' && c <= '9') || c == '_';
}
static inline int hs_space(uint8_t c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/* b[i, i+len) equals the lowercase ASCII name, ASCII case folded */
static inline int hs_ci(const uint8_t *b, int64_t n, int64_t i,
                        const char *name, int len) {
    if (i + len > n) return 0;
    for (int t = 0; t < len; t++)
        if (hs_lower(b[i + t]) != (uint8_t)name[t]) return 0;
    return 1;
}

/* $ without MULTILINE at q: the end, or just before a final \n */
static inline int hs_at_end(const uint8_t *b, int64_t n, int64_t q) {
    return q == n || (q == n - 1 && b[q] == '\n');
}

/* The end of the _SKIP_TAG_RE match at b[i] == '<', or -1:
 * <!--.*?(?:-->|$) | <script\b.*?(?:</script\s*>|$)
 * | <(?:link|a|area|font|img)\b[^>]*(?:>|$), DOTALL.  A lazy arm ends
 * at the first q that closes it, the closing tag tried before $. */
static int64_t hs_skip_end(const uint8_t *b, int64_t n, int64_t i) {
    static const char *const names[] = {"link", "a", "area", "font",
                                        "img"};
    if (hs_ci(b, n, i + 1, "!--", 3)) {
        for (int64_t q = i + 4;; q++) {
            if (q + 3 <= n && b[q] == '-' && b[q + 1] == '-'
                && b[q + 2] == '>')
                return q + 3;
            if (hs_at_end(b, n, q)) return q;
        }
    }
    if (hs_ci(b, n, i + 1, "script", 6) && (i + 7 == n || !hs_word(b[i + 7]))) {
        for (int64_t q = i + 7;; q++) {
            if (hs_ci(b, n, q, "</script", 8)) {
                int64_t k = q + 8;
                while (k < n && hs_space(b[k])) k++;
                if (k < n && b[k] == '>') return k + 1;
            }
            if (hs_at_end(b, n, q)) return q;
        }
    }
    for (int t = 0; t < 5; t++) {
        int64_t e = i + 1 + (int64_t)strlen(names[t]);
        if (hs_ci(b, n, i + 1, names[t], (int)(e - i - 1))
            && (e == n || !hs_word(b[e]))) {
            const uint8_t *gt = memchr(b + e, '>', (size_t)(n - e));
            return gt ? gt - b + 1 : n;
        }
    }
    return -1;
}

/* _SKIP_TAG_RE.sub(b" ", b[0, n)) into out (at most n bytes); returns
 * its length */
static int64_t hs_blank_tags(const uint8_t *b, int64_t n, uint8_t *out) {
    int64_t m = 0, i = 0;
    while (i < n) {
        const uint8_t *lt = memchr(b + i, '<', (size_t)(n - i));
        int64_t j = lt ? lt - b : n;
        memcpy(out + m, b + i, (size_t)(j - i));
        m += j - i;
        if (j == n) break;
        int64_t e = hs_skip_end(b, n, j);
        if (e < 0) {
            out[m++] = '<';
            i = j + 1;
        } else {
            out[m++] = ' ';
            i = e;
        }
    }
    return m;
}

/* \s*["']?\s*([A-Za-z]{2,3}) from b[k]: the group's start (*g) and
 * length (*gl), and the end; -1 if it does not match */
static int64_t hs_tag_value(const uint8_t *b, int64_t n, int64_t k,
                            int64_t *g, int *gl) {
    while (k < n && hs_space(b[k])) k++;
    if (k < n && (b[k] == '"' || b[k] == '\'')) k++;
    while (k < n && hs_space(b[k])) k++;
    int64_t a = k;
    while (k < n && k - a < 3 && hs_alpha(b[k])) k++;
    if (k - a < 2) return -1;
    *g = a;
    *gl = (int)(k - a);
    return k;
}

/* \s*= then hs_tag_value from b[k] (a key's "= value") */
static int64_t hs_assign(const uint8_t *b, int64_t n, int64_t k,
                         int64_t *g, int *gl) {
    while (k < n && hs_space(b[k])) k++;
    if (k >= n || b[k] != '=') return -1;
    return hs_tag_value(b, n, k + 1, g, gl);
}

/* One page's priors under construction: distinct codes in insertion
 * order with their weights (MergeCLDLangPriorsMax / Boost). */
typedef struct {
    int64_t *code, *w;
    int64_t n;
} hs_priors;

static void hs_merge(hs_priors *p, int64_t code, int64_t w, int boost) {
    for (int64_t k = 0; k < p->n; k++)
        if (p->code[k] == code) {
            if (boost) p->w[k] += 2;
            else if (w > p->w[k]) p->w[k] = w;
            return;
        }
    p->code[p->n] = code;
    p->w[p->n++] = w;
}

/* Merge hint table entry e (value - 1 of a table hit) into p */
static void hs_merge_entry(hs_priors *p, uint64_t hit, const int64_t *ent_csr,
                           const int64_t *ent_code, const int64_t *ent_w,
                           int boost) {
    if (!hit) return;
    for (int64_t k = ent_csr[hit - 1]; k < ent_csr[hit]; k++)
        hs_merge(p, ent_code[k], ent_w[k], boost);
}

/* A lang tag value b[g, g+gl) (2-3 letters) -> its hint table key */
static inline uint64_t hs_tag_key(const uint8_t *b, int64_t g, int gl) {
    uint64_t key = HS_KEY_TAG;
    for (int t = 0; t < gl; t++)
        key |= (uint64_t)hs_lower(b[g + t]) << (8 * t);
    return key;
}

/* tld_of(url) as a hint table key, 0 when the url has no TLD or one
 * the table cannot hold: the host of ^[a-z]+://([^/:?#]+) (IGNORECASE
 * also lets U+0130, U+0131, U+017F and U+212A into the scheme), its
 * last dot-separated label, lowered as str.lower does (U+212A is the
 * one non-ASCII char that lowers into ASCII, to 'k'). */
static uint64_t hs_tld_key(const uint8_t *u, int64_t n) {
    int64_t i = 0;
    for (;;) {
        if (i < n && hs_alpha(u[i])) i++;
        else if (i + 1 < n && ((u[i] == 0xC4 && (u[i + 1] == 0xB0
                                                 || u[i + 1] == 0xB1))
                               || (u[i] == 0xC5 && u[i + 1] == 0xBF)))
            i += 2;
        else if (i + 2 < n && u[i] == 0xE2 && u[i + 1] == 0x84
                 && u[i + 2] == 0xAA)
            i += 3;
        else break;
    }
    if (i == 0 || i + 3 > n || u[i] != ':' || u[i + 1] != '/'
        || u[i + 2] != '/')
        return 0;
    int64_t h0 = i + 3, h1 = h0, dot = -1;
    while (h1 < n && u[h1] != '/' && u[h1] != ':' && u[h1] != '?'
           && u[h1] != '#') {
        if (u[h1] == '.') dot = h1;
        h1++;
    }
    if (dot < 0) return 0;
    uint64_t key = HS_KEY_TLD;
    int len = 0;
    for (int64_t k = dot + 1; k < h1; len++) {
        uint8_t c;
        if (u[k] < 0x80) {
            c = hs_lower(u[k++]);
        } else if (k + 2 < h1 && u[k] == 0xE2 && u[k + 1] == 0x84
                   && u[k + 2] == 0xAA) {
            c = 'k';
            k += 3;
        } else {
            return 0;   /* lowers to non-ASCII: in no table */
        }
        if (len == 7) return 0;
        key |= (uint64_t)c << (8 * len);
    }
    return len ? key : 0;
}

/* The priors of each page, as hints.page_hints(url, html[:valid])
 * gives them.  Page d's head is html[html_off[d], + min(valid[d],
 * HS_HEAD)); its url is url[url_off[d], url_off[d+1]).
 *
 * Tables (hints._scan_tables): keys/vals/mask, a table_build table of
 * HS_KEY_TAG | lowercase lang tag bytes (LANGTAG_SHORT: a lang= value
 * is 2-3 letters, which no long-table key is) and HS_KEY_TLD | TLD
 * bytes -> entry + 1; entry e holds the (ent_code, ent_w) pairs
 * [ent_csr[e], ent_csr[e+1]).  Codes are 0..n_codes-1, code_lid their
 * lang ids (0 for a code without one).  enc_names[enc_off[k],
 * enc_off[k+1]) is an ENCODING_HINTS name (lowercase), enc_code[k]
 * its code.
 *
 * Outputs: prior_lid/prior_w [n_docs * HS_PRIORS], page d's trimmed
 * priors (the HS_PRIORS largest |w|, stable, then those with a lang
 * id) at row d, zero-padded; decl_csr[n_docs + 1] / decl_flat[decl_cap]
 * the lang ids of the positive lang= and Content-Language priors, in
 * prior order; tld_lang[d] the lang id of the TLD entry's first
 * largest positive weight (0 if none).  Returns the number of declared
 * ids, -1 when the scratch cannot be allocated, -2 past decl_cap. */
int64_t page_hints_scan(
        const uint8_t *html, const int64_t *html_off, const int64_t *valid,
        int64_t n_docs, const uint8_t *url, const int64_t *url_off,
        const uint64_t *keys, const uint64_t *vals, uint64_t mask,
        const int64_t *ent_csr, const int64_t *ent_code,
        const int64_t *ent_w, const uint8_t *enc_names,
        const int64_t *enc_off, const int64_t *enc_code, int64_t n_enc,
        const int64_t *code_lid, int64_t n_codes, int64_t decl_cap,
        int64_t *prior_lid, int64_t *prior_w, int64_t *decl_csr,
        int64_t *decl_flat, int64_t *tld_lang) {
    int64_t head = 0;
    for (int64_t d = 0; d < n_docs; d++)
        if (valid[d] > head) head = valid[d];
    if (head > HS_HEAD) head = HS_HEAD;
    scratch sc = {{0}, 0, 1};
    uint8_t *s = scratch_get(&sc, head, 1, 0);
    hs_priors p = {scratch_get(&sc, n_codes, sizeof *p.code, 0),
                   scratch_get(&sc, n_codes, sizeof *p.w, 0), 0};
    if (!sc.ok) return scratch_done(&sc, -1);
    int64_t nd = 0;
    decl_csr[0] = 0;
    for (int64_t d = 0; d < n_docs; d++) {
        const uint8_t *h = html + html_off[d];
        int64_t hn = valid[d] < HS_HEAD ? valid[d] : HS_HEAD;
        int64_t g = 0;
        int gl = 0;
        p.n = 0;
        /* the prefilter: b"lang" / b"content-language" / b"charset" in
         * the lowered raw head, each word's first 4 letters compared
         * as one 32-bit word (| 0x20 lowers exactly the bytes that are
         * letters, and each of these 4 bytes is one) */
        int has_lang = 0, has_cl = 0, has_cs = 0;
        for (int64_t i = 0; i + 4 <= hn && !(has_cl && has_cs); i++) {
            uint32_t w = load_le32(h + i) | 0x20202020u;
            if (w == 0x676E616Cu) {            /* "lang" */
                has_lang = 1;
            } else if (w == 0x72616863u) {     /* "char" */
                has_cs = has_cs || hs_ci(h, hn, i, "charset", 7);
            } else if (w == 0x746E6F63u) {     /* "cont" */
                /* content-language holds lang */
                if (hs_ci(h, hn, i, "content-language", 16))
                    has_cl = has_lang = 1;
            }
        }
        if (has_lang || has_cl || has_cs) {
            int64_t m = hs_blank_tags(h, hn, s);
            if (has_lang) {
                /* _iter_lang_attrs: each 'lang' tried as xml:lang, then
                 * as lang, after a byte that is no letter and no '-',
                 * never inside the previous match */
                int64_t pos = 0, last_end = 0;
                for (;;) {
                    int64_t at = -1;
                    for (int64_t i = pos; i + 4 <= m; i++)
                        if ((s[i] | 0x20) == 'l' && hs_ci(s, m, i, "lang", 4)) {
                            at = i;
                            break;
                        }
                    if (at < 0) break;
                    int64_t cand[2];
                    int nc = 0;
                    if (at >= 4 && hs_ci(s, m, at - 4, "xml:", 4))
                        cand[nc++] = at - 4;
                    cand[nc++] = at;
                    for (int c = 0; c < nc; c++) {
                        int64_t st = cand[c];
                        if (st < last_end
                            || (st > 0 && (hs_alpha(s[st - 1])
                                           || s[st - 1] == '-')))
                            continue;
                        int64_t e = hs_assign(s, m, at + 4, &g, &gl);
                        if (e < 0) continue;
                        /* (?:[-_][A-Za-z]{2,8})? */
                        if (e < m && (s[e] == '-' || s[e] == '_')) {
                            int64_t k = e + 1;
                            while (k < m && k - e - 1 < 8 && hs_alpha(s[k]))
                                k++;
                            if (k - e - 1 >= 2) e = k;
                        }
                        hs_merge_entry(&p, table_lookup(keys, vals, mask,
                                                        hs_tag_key(s, g, gl)),
                                       ent_csr, ent_code, ent_w, 0);
                        last_end = e;
                        break;
                    }
                    pos = at + 4;
                }
            }
            if (has_cl) {
                /* content-language["']?\s+content\s*=\s*["']?\s*
                 * ([A-Za-z]{2,3}), the first match */
                for (int64_t j = 0; j + 16 <= m; j++) {
                    if (!hs_ci(s, m, j, "content-language", 16)) continue;
                    int64_t k = j + 16;
                    if (k < m && (s[k] == '"' || s[k] == '\'')) k++;
                    int64_t k0 = k;
                    while (k < m && hs_space(s[k])) k++;
                    if (k == k0 || !hs_ci(s, m, k, "content", 7)
                        || hs_assign(s, m, k + 7, &g, &gl) < 0)
                        continue;
                    hs_merge_entry(&p, table_lookup(keys, vals, mask,
                                                    hs_tag_key(s, g, gl)),
                                   ent_csr, ent_code, ent_w, 0);
                    break;
                }
            }
            for (int64_t k = 0; k < p.n; k++) {
                if (p.w[k] <= 0 || !code_lid[p.code[k]]) continue;
                if (nd == decl_cap) return scratch_done(&sc, -2);
                decl_flat[nd++] = code_lid[p.code[k]];
            }
            if (has_cs) {
                /* charset\s*=\s*["']?\s*([A-Za-z0-9_\-]+), the first
                 * match, looked up lowercased */
                for (int64_t j = 0; j + 7 <= m; j++) {
                    if (!hs_ci(s, m, j, "charset", 7)) continue;
                    int64_t k = j + 7;
                    while (k < m && hs_space(s[k])) k++;
                    if (k >= m || s[k] != '=') continue;
                    k++;
                    while (k < m && hs_space(s[k])) k++;
                    if (k < m && (s[k] == '"' || s[k] == '\'')) k++;
                    while (k < m && hs_space(s[k])) k++;
                    int64_t a = k;
                    while (k < m && (hs_word(s[k]) || s[k] == '-')) k++;
                    if (k == a) continue;
                    for (int64_t e = 0; e < n_enc; e++) {
                        int64_t el = enc_off[e + 1] - enc_off[e];
                        if (el == k - a
                            && hs_ci(s, m, a, (const char *)enc_names
                                     + enc_off[e], (int)el)) {
                            hs_merge(&p, enc_code[e], HS_ENCODING_WEIGHT, 1);
                            break;
                        }
                    }
                    break;
                }
            }
        }
        decl_csr[d + 1] = nd;
        /* the TLD: Boost-merged entries, and its strongest positive
         * language for the metadata fallback */
        uint64_t key = hs_tld_key(url + url_off[d], url_off[d + 1] - url_off[d]);
        uint64_t hit = key ? table_lookup(keys, vals, mask, key) : 0;
        hs_merge_entry(&p, hit, ent_csr, ent_code, ent_w, 1);
        tld_lang[d] = 0;
        if (hit) {
            int64_t best = 0;
            for (int64_t k = ent_csr[hit - 1]; k < ent_csr[hit]; k++)
                if (ent_w[k] > best) {
                    best = ent_w[k];
                    tld_lang[d] = code_lid[ent_code[k]];
                }
        }
        /* TrimCLDLangPriors: a stable sort by -|w|, the first
         * HS_PRIORS, those with a lang id */
        for (int64_t k = 1; k < p.n; k++) {
            int64_t c = p.code[k], w = p.w[k], j = k;
            for (; j > 0 && llabs(p.w[j - 1]) < llabs(w); j--) {
                p.code[j] = p.code[j - 1];
                p.w[j] = p.w[j - 1];
            }
            p.code[j] = c;
            p.w[j] = w;
        }
        int64_t *ol = prior_lid + d * HS_PRIORS, *ow = prior_w + d * HS_PRIORS;
        int np = 0;
        for (int64_t k = 0; k < p.n && k < HS_PRIORS; k++)
            if (code_lid[p.code[k]]) {
                ol[np] = code_lid[p.code[k]];
                ow[np++] = p.w[k];
            }
        for (; np < HS_PRIORS; np++) ol[np] = ow[np] = 0;
    }
    return scratch_done(&sc, nd);
}

/* script_spans_scan over a whole batch in ONE call (a ctypes call per
 * doc was ~15% of the fused stage). Doc d is cat[offsets[d],
 * offsets[d+1]). The outputs are packed: doc d's span texts follow doc
 * d-1's in out_buf and its letters follow in lt_idx, so the batch's
 * spans are one back-to-back buffer.  With c_d = min(len_d,
 * text_limit + 1), doc d is scanned at the packed ends, which never
 * pass the earlier docs' worst cases, so lt_idx needs sum(c_d) slots
 * and out_buf 3 * sum(c_d) + n_docs bytes (script_spans_scan); lt_sc,
 * lt_low and lt_len are per-doc temporaries of max(c_d) slots,
 * allocated per call and reused from index 0 by every doc.  meta rows
 * get their out/lp indexes rebased to the shared buffers; ns_doc[d] =
 * span count of doc d.  Returns the span count, or -1 when the
 * temporaries cannot be allocated. */
int64_t script_spans_scan_multi(
        const uint8_t *cat, const int64_t *offsets, int64_t n_docs,
        const uint8_t *script_lut, const uint32_t *lower_lut,
        int64_t lut_size, int64_t text_limit, int64_t max_span_bytes,
        int64_t *lt_idx, uint8_t *out_buf, int64_t *meta,
        int64_t *ns_doc) {
    int64_t meta_total = 0, lt_base = 0, out_base = 0;
    int64_t cap = max_len(offsets, offsets + 1, n_docs);
    if (cap > (text_limit > 1 ? text_limit : 1) + 1)
        cap = (text_limit > 1 ? text_limit : 1) + 1;
    scratch sc = {{0}, 0, 1};
    uint8_t *lt_sc = scratch_get(&sc, cap, 1, 0);
    uint32_t *lt_low = scratch_get(&sc, cap, sizeof *lt_low, 0);
    uint8_t *lt_len = scratch_get(&sc, cap, 1, 0);
    if (!sc.ok) return scratch_done(&sc, -1);
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t ns = script_spans_scan(
            cat + offsets[d], offsets[d + 1] - offsets[d], script_lut, lower_lut, lut_size,
            text_limit, max_span_bytes,
            lt_idx + lt_base, lt_sc, lt_low, lt_len, out_buf + out_base,
            meta + meta_total * 7);
        for (int64_t r = 0; r < ns; r++) {
            int64_t *m = meta + (meta_total + r) * 7;
            m[3] += out_base;
            m[5] += lt_base;
            m[6] += lt_base;
        }
        if (ns > 0) {
            const int64_t *last = meta + (meta_total + ns - 1) * 7;
            out_base = last[3] + last[4];
            lt_base = last[6];
        }
        meta_total += ns;
        ns_doc[d] = ns;
    }
    return scratch_done(&sc, meta_total);
}

/* ====================================================================
 * Batched cryptographic hash kernels for the dedup/sampling pipelines
 * (pipelines/dedup.py, pipelines/queries.py). Python's hashlib costs
 * ~1us of call/object overhead per digest, which dominates when the
 * inputs are millions of short tokens/segments per batch; these
 * kernels hash a whole concatenated batch in one GIL-released call.
 * MD5 implemented from RFC 1321, BLAKE2b from RFC 7693 (both public
 * specifications); outputs are cross-checked bit-equal to hashlib in
 * tests/test_native.py.
 * ================================================================ */

static const uint32_t MD5_S[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

/* RFC 1321 section 3.4: K[i] = floor(2^32 * |sin(i + 1)|) */
static const uint32_t MD5_K[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

static inline uint32_t rotl32(uint32_t x, uint32_t c) {
    return (x << c) | (x >> (32 - c));
}

static void md5_block(uint32_t st[4], const uint8_t *p) {
    uint32_t m[16];
    for (int j = 0; j < 16; j++)
        m[j] = (uint32_t)p[4 * j] | ((uint32_t)p[4 * j + 1] << 8)
             | ((uint32_t)p[4 * j + 2] << 16)
             | ((uint32_t)p[4 * j + 3] << 24);
    uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    for (int i = 0; i < 64; i++) {
        uint32_t f, g;
        if (i < 16)      { f = (b & c) | (~b & d);  g = i; }
        else if (i < 32) { f = (d & b) | (~d & c);  g = (5 * i + 1) & 15; }
        else if (i < 48) { f = b ^ c ^ d;           g = (3 * i + 5) & 15; }
        else             { f = c ^ (b | ~d);        g = (7 * i) & 15; }
        uint32_t tmp = d;
        d = c;
        c = b;
        b = b + rotl32(a + f + MD5_K[i] + m[g], MD5_S[i]);
        a = tmp;
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
}

static void md5_one(const uint8_t *msg, int64_t len, uint8_t out[16]) {
    uint32_t st[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                      0x10325476u};
    int64_t i = 0;
    for (; i + 64 <= len; i += 64) md5_block(st, msg + i);
    uint8_t tail[128];
    int64_t r = len - i;
    for (int64_t j = 0; j < r; j++) tail[j] = msg[i + j];
    tail[r] = 0x80;
    int64_t pad_end = (r < 56) ? 56 : 120;
    for (int64_t j = r + 1; j < pad_end; j++) tail[j] = 0;
    uint64_t bits = (uint64_t)len << 3;
    for (int j = 0; j < 8; j++)
        tail[pad_end + j] = (uint8_t)(bits >> (8 * j));
    md5_block(st, tail);
    if (pad_end == 120) md5_block(st, tail + 64);
    for (int j = 0; j < 4; j++)
        for (int k = 0; k < 4; k++)
            out[4 * j + k] = (uint8_t)(st[j] >> (8 * k));
}

/* digests of data[offsets[i]:offsets[i+1]] -> out + 16*i */
int md5_batch(const uint8_t *data, const int64_t *offsets, int64_t n,
              uint8_t *out) {
    for (int64_t i = 0; i < n; i++)
        md5_one(data + offsets[i], offsets[i + 1] - offsets[i],
                out + 16 * i);
    return 0;
}

/* Stride-1 rolling token windows, md5 of each window's
 * space-joined text (pipelines/dedup.substring_dedup's md5 variant):
 * word_data/word_offsets hold each doc's tokens back to back
 * (doc d's tokens are word index doc_offsets[d]..doc_offsets[d+1]);
 * every doc with >= `window` tokens emits (n_tokens - window + 1)
 * digests at out (16 B each, doc-major, window-ascending). Returns
 * the digest count, or -1 if the window buffer cannot be allocated.
 * The window text is rebuilt in a local buffer by memcpy — the Python
 * equivalent (" ".join + hashlib) spends most of its time
 * constructing the window strings. */
int64_t md5_windows(const uint8_t *word_data, const int64_t *word_offsets,
                    const int64_t *doc_offsets, int64_t n_docs,
                    int64_t window, uint8_t *out) {
    int64_t n_out = 0;
    int64_t buf_cap = 4096;
    uint8_t *buf = (uint8_t *)malloc(buf_cap);
    if (!buf) return -1;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t w0 = doc_offsets[d];
        int64_t nw = doc_offsets[d + 1] - w0;
        for (int64_t s = 0; s + window <= nw; s++) {
            int64_t a = word_offsets[w0 + s];
            int64_t need = word_offsets[w0 + s + window] - a
                           + window;   /* + separators, 1 spare */
            if (need > buf_cap) {
                while (buf_cap < need) buf_cap *= 2;
                uint8_t *nb = (uint8_t *)realloc(buf, buf_cap);
                if (!nb) { free(buf); return -1; }
                buf = nb;
            }
            int64_t len = 0;
            for (int64_t k = 0; k < window; k++) {
                int64_t b0 = word_offsets[w0 + s + k];
                int64_t b1 = word_offsets[w0 + s + k + 1];
                if (k) buf[len++] = ' ';
                for (int64_t j = b0; j < b1; j++)
                    buf[len++] = word_data[j];
            }
            md5_one(buf, len, out + 16 * n_out);
            n_out++;
        }
    }
    free(buf);
    return n_out;
}

/* ---- BLAKE2b (RFC 7693), keyless, nn-byte digests --------------- */

static const uint64_t B2B_IV[8] = {
    0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL,
    0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL,
    0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
    0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL};

static const uint8_t B2B_SIGMA[12][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
    {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
    {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
    {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
    {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
    {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
    {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
    {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3}};

static inline uint64_t rotr64(uint64_t x, uint64_t c) {
    return (x >> c) | (x << (64 - c));
}

#define B2B_G(v, a, b, c, d, x, y)                      \
    do {                                                \
        v[a] += v[b] + (x); v[d] = rotr64(v[d] ^ v[a], 32); \
        v[c] += v[d];       v[b] = rotr64(v[b] ^ v[c], 24); \
        v[a] += v[b] + (y); v[d] = rotr64(v[d] ^ v[a], 16); \
        v[c] += v[d];       v[b] = rotr64(v[b] ^ v[c], 63); \
    } while (0)

static void b2b_compress(uint64_t h[8], const uint8_t *p, uint64_t t,
                         int last) {
    uint64_t v[16], m[16];
    for (int i = 0; i < 8; i++) { v[i] = h[i]; v[i + 8] = B2B_IV[i]; }
    v[12] ^= t;                     /* t0 (inputs < 2^64 bytes) */
    if (last) v[14] = ~v[14];
    for (int i = 0; i < 16; i++) {
        m[i] = 0;
        for (int j = 7; j >= 0; j--)
            m[i] = (m[i] << 8) | p[8 * i + j];
    }
    for (int r = 0; r < 12; r++) {
        const uint8_t *s = B2B_SIGMA[r];
        B2B_G(v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
        B2B_G(v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
        B2B_G(v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
        B2B_G(v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
        B2B_G(v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
        B2B_G(v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
        B2B_G(v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
        B2B_G(v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
    }
    for (int i = 0; i < 8; i++) h[i] ^= v[i] ^ v[i + 8];
}

static void b2b_one(const uint8_t *msg, int64_t len, int64_t nn,
                    uint8_t *out) {
    uint64_t h[8];
    for (int i = 0; i < 8; i++) h[i] = B2B_IV[i];
    h[0] ^= 0x01010000ULL ^ (uint64_t)nn;   /* kk=0, fanout=depth=1 */
    int64_t i = 0;
    /* all full blocks except the last one (last block is special
     * even when full; empty input still compresses one zero block) */
    while (len - i > 128) {
        b2b_compress(h, msg + i, (uint64_t)(i + 128), 0);
        i += 128;
    }
    uint8_t tail[128];
    int64_t r = len - i;
    for (int64_t j = 0; j < r; j++) tail[j] = msg[i + j];
    for (int64_t j = r; j < 128; j++) tail[j] = 0;
    b2b_compress(h, tail, (uint64_t)len, 1);
    for (int64_t j = 0; j < nn; j++)
        out[j] = (uint8_t)(h[j >> 3] >> (8 * (j & 7)));
}

/* nn-byte digests of data[offsets[i]:offsets[i+1]] -> out + nn*i;
 * returns 0, or -2 for a digest size outside 1..64 */
int blake2b_batch(const uint8_t *data, const int64_t *offsets,
                  int64_t n, int64_t nn, uint8_t *out) {
    if (nn < 1 || nn > 64) return -2;
    for (int64_t i = 0; i < n; i++)
        b2b_one(data + offsets[i], offsets[i + 1] - offsets[i], nn,
                out + nn * i);
    return 0;
}
