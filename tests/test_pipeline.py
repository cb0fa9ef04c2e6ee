"""End-to-end pipeline tests: the flagship pipeline (flagship.build_fused
-> stages/core.fused_batch) vs the single-process per-document oracle on
every computed output column, metrics, checkpoint resume and the opt-in
chunks column."""

import os

import numpy as np
import pandas as pd
import pytest

from cld2_ray.functions import langs
from cld2_ray.functions.extract import extract_text, valid_utf8_prefix
from cld2_ray.functions.hints import page_hints
from cld2_ray.sources.pages import make_page, pages_dataset

N_PAGES = 120


def oracle_rows(pages):
    """Single-process oracle over the page dicts ``pages`` (no Ray)."""
    from cld2_ray.functions import fastlangid, perplexity
    from cld2_ray.functions.langid import Detector
    from cld2_ray.functions.quality import apply_rules
    from cld2_ray.functions.scrub import scrub_series

    det = Detector()
    rows = []
    for p in pages:
        h = p["html"] or b""
        vp = valid_utf8_prefix(h)
        ok = vp == len(h)
        text = extract_text(h[:vp]) if vp else ""
        priors, declared, tld = page_hints(p["url"], h[:vp])
        row = {"url": p["url"], "extracted_text": text, "utf8_valid": ok,
               "lang_summary": "un", "lang1": "un", "lang2": "un",
               "lang3": "un", "pct1": 0, "pct2": 0, "pct3": 0,
               "nscore1": 0.0, "lang_reliable": False, "text_bytes": 0}
        if text:
            r = det.detect(text,
                           hint_langs=[lid for lid, w in priors if w > 0],
                           declared=frozenset(declared) or None)
            for k in range(3):
                row[f"lang{k + 1}"] = langs.lang_code(r.language3[k])
                row[f"pct{k + 1}"] = min(max(r.percent3[k], 0), 100)
            row.update(lang_summary=r.summary_code,
                       nscore1=r.normalized_score3[0],
                       lang_reliable=r.is_reliable,
                       text_bytes=min(r.text_bytes, 2**31 - 1))
        if row["lang_summary"] == "un" and not row["lang_reliable"]:
            fb = declared[0] if declared else tld
            row["lang_summary"] = langs.lang_code(fb) if fb else "en"
        aux_lang, (row["aux_conf"],) = fastlangid.classify_batch([text])
        row["aux_lang"] = aux_lang[0].as_py()
        (row["ppl"],), (row["gibberish"],) = \
            perplexity.score_batch([text], [row["lang_summary"]])
        rows.append(row)
    df = pd.DataFrame(rows)
    for col in ("nscore1", "aux_conf", "ppl"):
        df[col] = df[col].astype(np.float32)
    q = apply_rules(df.extracted_text, df.lang_summary)
    s = scrub_series(df.extracted_text)
    reason = q.drop_reason.mask(~df.utf8_valid, "utf8_invalid")
    lang_bad = (df.lang_summary == "un") | ~df.lang_reliable | (df.pct1 < 50)
    reason = reason.mask((reason == "") & lang_bad, "lang_filter")
    reason = reason.mask((reason == "") & df.pop("gibberish"), "perplexity")
    reason = reason.mask((reason == "") & s.has_toxicity, "toxicity")
    df["n_words"] = q.n_words
    df["n_chars"] = q.n_chars
    df["scrubbed_text"] = s.scrubbed_text
    df["n_pii"] = s.n_pii
    df["has_toxicity"] = s.has_toxicity
    df["drop_reason"] = reason
    df["keep"] = reason == ""
    return df


@pytest.fixture(scope="module")
def pipeline_df(ray_session):
    from cld2_ray.pipelines import flagship
    ds = pages_dataset(N_PAGES, seed=42)
    return flagship.build_fused(ds).to_pandas().sort_values("url") \
        .reset_index(drop=True)


@pytest.fixture(scope="module")
def oracle_df():
    return oracle_rows([make_page(i) for i in range(N_PAGES)]) \
        .sort_values("url").reset_index(drop=True)


class TestOracleEquality:
    def test_extracted_text_byte_identical(self, pipeline_df, oracle_df):
        assert list(pipeline_df.extracted_text) == list(oracle_df.extracted_text)

    def test_keep_drop_identical(self, pipeline_df, oracle_df):
        assert list(pipeline_df.keep) == list(oracle_df.keep)
        assert list(pipeline_df.drop_reason) == list(oracle_df.drop_reason)

    def test_scrubbed_text_identical(self, pipeline_df, oracle_df):
        assert list(pipeline_df.scrubbed_text) == list(oracle_df.scrubbed_text)

    def test_langs_identical(self, pipeline_df, oracle_df):
        assert list(pipeline_df.lang_summary) == list(oracle_df.lang_summary)

    def test_oracle_covers_every_column(self, oracle_df):
        from cld2_ray.pipelines.flagship import OUT_COLUMNS
        passthrough = {"url", "warc_ts", "lang"}
        assert set(oracle_df.columns) == set(OUT_COLUMNS) - passthrough \
            | {"url"}

    @pytest.mark.parametrize("col", [
        "utf8_valid", "lang1", "lang2", "lang3", "pct1", "pct2", "pct3",
        "nscore1", "lang_reliable", "text_bytes", "n_words", "n_chars",
        "aux_lang", "aux_conf", "ppl", "n_pii", "has_toxicity"])
    def test_column_identical(self, pipeline_df, oracle_df, col):
        got, want = pipeline_df[col].to_numpy(), oracle_df[col].to_numpy()
        if want.dtype.kind == "f":
            assert got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True)
        else:
            assert list(got) == list(want)


class TestPagesWithoutLetters:
    """langid scores every page; a page without letters (null html,
    an invalid first byte, empty, whitespace, punctuation or markup
    only) gets the UNKNOWN row, then the metadata fallback, exactly as
    the per-page oracle, which skips detection on an empty text."""

    HTMLS = [None, b"", b"\xff", b"<p>   </p>", b"<p>!!! 12, 34 ...</p>",
             b"<script>var a = 1;</script><!-- note --><br><hr>",
             b'<html lang="de"><body> ?! </body></html>',
             b'<meta http-equiv="content-language" content="fr"> 42']

    def test_fused_batch_equals_oracle(self):
        import pyarrow as pa
        from cld2_ray.sources.pages import SCHEMA
        from cld2_ray.stages.core import fused_batch
        pages = [{"url": f"https://nl.example.{tld}/{k}", "warc_ts": k,
                  "html": h, "text": "", "lang": "xx"}
                 for k, h in enumerate(self.HTMLS)
                 for tld in ("com", "cz")]
        table = pa.Table.from_pylist(pages, schema=SCHEMA)
        got = fused_batch(table)
        both = fused_batch(table, with_chunks=True)
        assert both.drop_columns(["chunks"]).equals(got)
        assert both["chunks"].to_pylist() == [[]] * len(pages)
        want = oracle_rows(pages)
        assert (got["text_bytes"].to_numpy() == 0).all()
        for col in want.columns:
            g, w = got[col].to_numpy(zero_copy_only=False), \
                want[col].to_numpy()
            if w.dtype.kind == "f":
                assert g.dtype == w.dtype, col
                assert np.array_equal(g, w, equal_nan=True), col
            else:
                assert list(g) == list(w), col


class TestPipelineShape:
    def test_schema_columns(self, pipeline_df):
        from cld2_ray.pipelines.flagship import OUT_COLUMNS
        assert list(pipeline_df.columns) == OUT_COLUMNS

    def test_language_accuracy_on_clean_pages(self, pipeline_df):
        import numpy as np
        from cld2_ray.sources.pages import _CODES, _WEIGHTS
        clean = []
        for i in range(N_PAGES):
            rng = np.random.default_rng((42 << 32) ^ i)
            rng.choice(len(_CODES), p=_WEIGHTS)
            kind = rng.random()
            if 0.05 <= kind <= 0.9:  # exclude junk/empty/giant/mixed-risk
                clean.append(i)
        df = pipeline_df.set_index(
            pipeline_df.url.str.extract(r"/page/(\d+)$")[0].astype(int))
        hits = 0
        for i in clean:
            row = df.loc[i]
            truth = make_page(i)["lang"]
            got = {row.lang_summary, row.lang1, row.lang2, row.lang3}
            hits += truth in got
        assert hits / len(clean) >= 0.95

    def test_metrics_sum_to_total(self, ray_session):
        from cld2_ray.pipelines import flagship
        ds = pages_dataset(60, seed=7)
        m = flagship.metrics(flagship.build_fused(ds))
        assert int(m.n_docs.sum()) == 60

    def test_fused_batch_schema(self):
        """Output column names and Arrow types, with and without chunks,
        also for a batch where no page yields text."""
        import pyarrow as pa
        from cld2_ray.sources.pages import SCHEMA, page_batch
        from cld2_ray.stages.core import CHUNKS_TYPE, fused_batch
        s, i8, b = pa.string(), pa.int8(), pa.bool_()
        want = [("url", s), ("warc_ts", pa.timestamp("us")), ("lang", s),
                ("extracted_text", pa.large_string()), ("utf8_valid", b),
                ("lang_summary", s), ("lang1", s), ("lang2", s),
                ("lang3", s), ("pct1", i8), ("pct2", i8), ("pct3", i8),
                ("nscore1", pa.float32()), ("lang_reliable", b),
                ("text_bytes", pa.int32()), ("n_words", pa.int64()),
                ("n_chars", pa.int64()), ("aux_lang", s),
                ("aux_conf", pa.float32()), ("ppl", pa.float32()),
                ("scrubbed_text", pa.large_string()),
                ("n_pii", pa.int64()), ("has_toxicity", b), ("keep", b),
                ("drop_reason", s)]
        no_text = pa.Table.from_pylist(
            [{"url": f"https://x.example/{i}", "warc_ts": 0, "html": h,
              "text": "", "lang": "en"}
             for i, h in enumerate([None, b"", b"\xff", b"<p></p>"])],
            schema=SCHEMA)
        for t in (page_batch(0, 40), no_text):
            assert [(f.name, f.type) for f in fused_batch(t).schema] == want
            chunked = fused_batch(t, with_chunks=True).schema
            assert [(f.name, f.type) for f in chunked] == \
                want + [("chunks", CHUNKS_TYPE)]


class TestMetrics:
    """flagship.metrics (pyarrow partial group_by + one fold) equals
    a pandas groupby of the whole annotated table."""

    KEYS = ["lang_summary", "keep", "drop_reason"]

    def test_equals_pandas_groupby(self, ray_session):
        from cld2_ray.pipelines import flagship
        ann = flagship.build_fused(pages_dataset(600, seed=11)) \
            .repartition(4).materialize()
        assert ann.num_blocks() == 4
        want = ann.to_pandas().groupby(self.KEYS, as_index=False).agg(
            n_docs=("url", "size"), bytes=("text_bytes", "sum"),
            n_pii=("n_pii", "sum"))
        # pandas keeps an int32 sum as int32 until it overflows; the
        # Arrow fold always sums into int64
        want["bytes"] = want["bytes"].astype(np.int64)
        pd.testing.assert_frame_equal(flagship.metrics(ann), want)

    def test_partial_counts_pages_without_url(self):
        import pyarrow as pa
        import pyarrow.compute as pc

        from cld2_ray.sources.pages import page_batch
        from cld2_ray.stages.core import fused_batch, partial_metrics
        out = fused_batch(page_batch(0, 4))
        out = out.set_column(out.schema.get_field_index("url"), "url",
                             pa.array([None, "a", None, "b"], pa.string()))
        assert pc.sum(partial_metrics(out)["n_docs"]).as_py() == 4

    def test_empty_dataset(self, ray_session):
        from cld2_ray.pipelines import flagship
        m = flagship.metrics(
            flagship.build_fused(pages_dataset(8, seed=1)).limit(0))
        assert len(m) == 0
        assert m.dtypes.to_dict() == {
            "lang_summary": object, "keep": bool, "drop_reason": object,
            "n_docs": np.int64, "bytes": np.int64, "n_pii": np.int64}


def _write_pages(path, start, count, seed):
    """Synthetic pages [start, start + count) as one parquet file."""
    import pyarrow.parquet as pq

    from cld2_ray.sources.pages import page_batch
    pq.write_table(page_batch(start, count, seed), str(path))
    return str(path)


def _partition_table(out, pid):
    """A partition's data files read in name order -> (names, table or
    None when there are none)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cld2_ray.state import checkpoint as cp
    data = os.path.join(cp.partition_dir(out, pid), "data")
    names = sorted(os.listdir(data))
    tables = [pq.read_table(os.path.join(data, n)) for n in names]
    return names, pa.concat_tables(tables) if tables else None


def _assert_manifests_match_data(out, n_parts):
    """Every MANIFEST equals a re-read of its partition's parquet."""
    import json
    from collections import Counter

    from cld2_ray.state import checkpoint as cp
    for pid in range(n_parts):
        with open(os.path.join(cp.partition_dir(out, pid),
                               "MANIFEST.json")) as f:
            m = json.load(f)
        _, t = _partition_table(out, pid)
        keep = [] if t is None else t["keep"].to_pylist()
        reasons = [] if t is None else t["drop_reason"].to_pylist()
        dropped = Counter(r for r, k in zip(reasons, keep) if not k)
        assert m == {"part_id": pid, "rows": len(keep), "kept": sum(keep),
                     "drop_reasons": dict(dropped)}


class TestResume:
    def test_checkpoint_resume(self, ray_session, tmp_path, monkeypatch):
        import ray.data as rd

        from cld2_ray.state import checkpoint as cp

        out = str(tmp_path / "out")
        shards = [[_write_pages(tmp_path / f"in{pid}.parquet", 0, 30,
                                seed=100 + pid)] for pid in range(2)]
        # one Dataset execution per call: no Ray read operator, one
        # read+score+write task per input file
        runs = []
        iter_batches = rd.Dataset.iter_batches

        def recording_iter_batches(ds, *a, **kw):
            runs.append(ds)
            return iter_batches(ds, *a, **kw)

        monkeypatch.setattr(rd.Dataset, "iter_batches",
                            recording_iter_batches)
        r1 = cp.run_resumable(shards, out)
        assert r1 == {"done": 2, "skipped": 0, "new_rows": 60}
        assert len(runs) == 1
        stats = runs[0].stats()
        assert "ReadParquet" not in stats
        assert "MapBatches(_score_files): 2 tasks executed" in stats
        _assert_manifests_match_data(out, 2)
        # second run skips everything, without an execution
        r2 = cp.run_resumable(shards, out)
        assert r2 == {"done": 0, "skipped": 2, "new_rows": 0}
        assert len(runs) == 1
        # removing one manifest redoes exactly that partition
        os.remove(os.path.join(cp.partition_dir(out, 1), "MANIFEST.json"))
        r3 = cp.run_resumable(shards, out)
        assert r3 == {"done": 1, "skipped": 1, "new_rows": 30}

    def test_crash_window_redone(self, ray_session, tmp_path):
        """A partition with data but no MANIFEST, a torn data file and a
        stray partial file is redone to exactly a clean run's files."""
        import pyarrow.parquet as pq

        from cld2_ray.state import checkpoint as cp

        out = str(tmp_path / "out")
        shards = [[_write_pages(tmp_path / f"in{pid}.parquet", 0, 20,
                                seed=200 + pid)] for pid in range(2)]
        cp.run_resumable(shards, out)
        clean = _partition_table(out, 1)
        data = os.path.join(cp.partition_dir(out, 1), "data")
        os.remove(os.path.join(cp.partition_dir(out, 1), "MANIFEST.json"))
        torn = os.path.join(data, clean[0][0])
        pq.write_table(pq.read_table(torn).slice(0, 5), torn)
        pq.write_table(clean[1].slice(0, 3),
                       os.path.join(data, "stray.parquet"))
        r = cp.run_resumable(shards, out)
        assert r == {"done": 1, "skipped": 1, "new_rows": 20}
        names, table = _partition_table(out, 1)
        assert names == clean[0]
        assert table.equals(clean[1])
        _assert_manifests_match_data(out, 2)

    def test_partition_rows_in_input_order(self, ray_session, tmp_path,
                                           monkeypatch):
        """A partition of two files, each of several row groups and
        scored in several slices, reads back in name order as its input
        in order, each row equal to fused_batch's."""
        from collections import Counter

        import pyarrow as pa
        import pyarrow.parquet as pq

        from cld2_ray.pipelines.flagship import OUT_COLUMNS
        from cld2_ray.sources.pages import page_batch
        from cld2_ray.stages.core import fused_batch
        from cld2_ray.state import checkpoint as cp

        out = str(tmp_path / "out")
        # a page without a url still counts in its MANIFEST
        a = page_batch(0, 10, seed=7)
        urls = a["url"].to_pylist()
        urls[3] = None
        a = a.set_column(a.schema.get_field_index("url"), "url",
                         pa.array(urls, pa.string()))
        b = page_batch(10, 30, seed=7)
        files = [str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")]
        pq.write_table(a, files[0], row_group_size=4)
        pq.write_table(b, files[1], row_group_size=7)
        cp.run_resumable([files], out)
        names, table = _partition_table(out, 0)
        assert names == ["00000.parquet", "00001.parquet"]
        assert table.equals(fused_batch(pa.concat_tables([a, b]))
                            .select(OUT_COLUMNS))
        _assert_manifests_match_data(out, 1)
        # the task itself, in this process (Ray workers import the module
        # afresh, so the patch does not reach them): one row group per
        # slice of BATCH_SIZE rows, the rows as one fused_batch call's
        monkeypatch.setattr(cp, "BATCH_SIZE", 6)
        dst = str(tmp_path / "a_out.parquet")
        counters = cp._score_file(files[0], dst)
        want = fused_batch(a).select(OUT_COLUMNS)
        assert pq.ParquetFile(dst).num_row_groups == 2
        assert pq.read_table(dst).equals(want)
        keep = want["keep"].to_pylist()
        assert counters == {"rows": 10, "kept": sum(keep),
                            "drop_reasons": dict(Counter(
                                r for r, k in zip(
                                    want["drop_reason"].to_pylist(), keep)
                                if not k))}

    def test_empty_input_file(self, ray_session, tmp_path):
        """A 0-row input file writes no data file and counts 0 rows; the
        partition's other file is written as usual."""
        import pyarrow.parquet as pq

        from cld2_ray.sources.pages import page_batch
        from cld2_ray.state import checkpoint as cp

        out = str(tmp_path / "out")
        empty = str(tmp_path / "empty.parquet")
        pq.write_table(page_batch(0, 1).slice(0, 0), empty)
        files = [empty, _write_pages(tmp_path / "b.parquet", 0, 12, seed=3)]
        r = cp.run_resumable([files, [empty]], out)
        assert r == {"done": 2, "skipped": 0, "new_rows": 12}
        assert _partition_table(out, 0)[0] == ["00001.parquet"]
        assert _partition_table(out, 1)[0] == []
        _assert_manifests_match_data(out, 2)

    @pytest.mark.skipif(not os.environ.get("RUN_SLOW"),
                        reason="multi-minute kill-and-resume identity "
                        "run; set RUN_SLOW=1 (scripts/resume_scale.py "
                        "runs the full 1.28M-page version — see "
                        "BASELINE.md for the recorded result)")
    def test_kill_resume_byte_identical(self, ray_session, tmp_path):
        """Crash-window resume (data written, manifest missing) must
        reproduce the uninterrupted run byte-for-byte."""
        import subprocess
        import sys as _sys
        env = dict(os.environ, GRAFT_RESUME_PAGES="64000",
                   RAY_GRAFT_CPUS="4")
        out = subprocess.run(
            [_sys.executable, os.path.join(
                os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__))),
                "scripts", "resume_scale.py")],
            env=env, capture_output=True, text=True, timeout=1200)
        assert out.returncode == 0, out.stdout + out.stderr


class TestChunksColumn:
    """Opt-in ResultChunkVector output (public/compact_lang_det.h:146-153):
    chunks = list<struct{offset,bytes,lang}> in RAW page byte offsets."""

    HTML = ("<html><body><p>" + "The quick brown fox jumps over the lazy "
            "dog and the weather today is sunny with a chance of rain. " * 4
            + "</p><p>" + "Le renard brun rapide saute par-dessus le chien "
            "paresseux et le temps est ensoleillé avec de la pluie. " * 4
            + "</p></body></html>").encode("utf-8")

    def test_schema_and_spans(self, ray_session):
        import ray.data as rd
        from cld2_ray.pipelines import flagship
        ds = rd.from_items([{"url": "http://x.example/en-fr",
                             "warc_ts": 0, "lang": "en",
                             "html": self.HTML}])
        out = flagship.build_fused(ds, with_chunks=True)
        assert "chunks" in out.schema().names
        row = out.take_all()[0]
        chunks = row["chunks"]
        assert len(chunks) >= 2
        for c in chunks:
            assert set(c) == {"offset", "bytes", "lang"}
            assert 0 <= c["offset"] < len(self.HTML)
            assert c["offset"] + c["bytes"] <= len(self.HTML)
        # the known spans: English first, French second, offsets point
        # into the raw page at the right paragraph
        langs_seen = [c["lang"] for c in chunks]
        assert langs_seen[0] == "en" and "fr" in langs_seen
        fr = chunks[langs_seen.index("fr")]
        frag = self.HTML[fr["offset"]:fr["offset"] + fr["bytes"]]
        assert b"renard" in frag and b"quick brown" not in frag

    def test_opt_out_schema_unchanged(self, ray_session):
        from cld2_ray.pipelines import flagship
        from cld2_ray.pipelines.flagship import OUT_COLUMNS
        ds = pages_dataset(8, seed=42)
        assert flagship.build_fused(ds).schema().names == OUT_COLUMNS
        assert flagship.build_fused(
            ds, with_chunks=True).schema().names == OUT_COLUMNS + ["chunks"]

    def test_chunks_only_add_a_column(self):
        """with_chunks is a per-call flag of the one kernel: it adds the
        chunks column and changes nothing else, and a later plain call
        in the same process has no chunks column."""
        from cld2_ray.sources.pages import page_batch
        from cld2_ray.stages.core import fused_batch
        t = page_batch(0, N_PAGES)
        plain = fused_batch(t)
        chunked = fused_batch(t, with_chunks=True)
        assert sum(len(c) > 0 for c in chunked["chunks"].to_pylist()) > 100
        assert chunked.drop_columns(["chunks"]).equals(plain)
        assert "chunks" not in fused_batch(t).column_names


class TestBatchSplitInvariance:
    """Every output row depends only on its own page: fused_batch over a
    batch equals the concatenation of fused_batch over any split of it,
    in every value and Arrow type — also when the kernel cuts a batch
    past its html byte cap itself."""

    @staticmethod
    def _pages():
        import pyarrow as pa
        from cld2_ray.sources.pages import edge_pages, page_batch
        # seed-42 rows 0..47 hold an empty page (1), a giant (13) and an
        # invalid-UTF-8 suffix (37); edge_pages adds null html, CRLF and
        # a page past the langid letter budget
        return pa.concat_tables([page_batch(0, 48), edge_pages()])

    @staticmethod
    def _check(got, want):
        assert got.schema == want.schema
        assert got.equals(want)

    @pytest.mark.parametrize("wc", [False, True])
    def test_random_splits(self, wc):
        import pyarrow as pa
        from cld2_ray.stages.core import fused_batch
        pages = self._pages()
        n = pages.num_rows
        whole = fused_batch(pages, with_chunks=wc)
        rng = np.random.default_rng(3)
        splits = [list(range(n + 1))]
        for _ in range(3):
            inner = sorted(rng.choice(np.arange(1, n), size=5,
                                      replace=False).tolist())
            splits.append([0, *inner, n])
        for cuts in splits:
            self._check(pa.concat_tables(
                [fused_batch(pages.slice(a, b - a), with_chunks=wc)
                 for a, b in zip(cuts, cuts[1:])]), whole)

    @pytest.mark.parametrize("wc", [False, True])
    def test_byte_cap_splits(self, wc, monkeypatch):
        from cld2_ray.stages import core
        pages = self._pages()
        whole = core.fused_batch(pages, with_chunks=wc)
        sizes = np.array([len(h or b"") for h in pages["html"].to_pylist()])
        # a cap below the largest page (that page runs alone), one
        # between the smallest and the typical page, and one that cuts
        # the batch in two
        for cap in (int(sizes.max()) - 1, 2000, int(sizes.sum()) // 2):
            cuts = core._byte_cuts(sizes, cap)
            assert len(cuts) > 2
            for a, b in zip(cuts, cuts[1:]):
                assert b - a == 1 or sizes[a:b].sum() <= cap
            monkeypatch.setattr(core, "MAX_CALL_HTML_BYTES", cap)
            self._check(core.fused_batch(pages, with_chunks=wc), whole)


class TestReentrant:
    """fused_batch on different batches from several threads at once
    (every C call releases the GIL) gives each batch its sequential
    result: no kernel shares buffers or state between calls."""

    def test_threads_match_sequential(self):
        from concurrent.futures import ThreadPoolExecutor
        from perfbench.workloads import make_table
        from cld2_ray.stages.core import fused_batch
        lf = make_table("longform_job", 3, 48)
        sn = make_table("snippets", 3, 512)
        jobs = [(lf.slice(0, 24), True), (lf.slice(24, 24), False),
                (sn.slice(0, 256), False), (sn.slice(256, 256), False)]
        # the sequential pass also loads the models once
        want = [fused_batch(t, with_chunks=wc) for t, wc in jobs]
        with ThreadPoolExecutor(4) as ex:
            for _ in range(6):
                got = list(ex.map(
                    lambda j: fused_batch(j[0], with_chunks=j[1]), jobs))
                for g, w in zip(got, want):
                    assert g.equals(w)
