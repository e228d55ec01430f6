import hashlib
import json
import multiprocessing
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import warplab.cache
from warplab.cache import HEADER, OrbitCache, model_key


def _lines(cache):
    with open(cache.path) as fh:
        return fh.read().splitlines()


def test_append_only_round_trip(cache_dir):
    cache = OrbitCache.for_model({"family": "rt"}, cache_dir)
    recs = [(3, 1.25), (1, 0.1 + 0.2), (3, 1.5)]
    for rec in recs:
        cache.append(*rec)
    # one header plus one `l d_l` line per append; a repeated index's last
    # record wins
    assert _lines(cache)[1:] == ["3 1.25", "1 0.30000000000000004", "3 1.5"]
    again = OrbitCache.for_model({"family": "rt"}, cache_dir)
    assert again.load().distances == {3: 1.5, 1: 0.1 + 0.2}
    again.append(8, 4.0)
    assert cache.load() == ({3: 1.5, 1: 0.1 + 0.2, 8: 4.0}, {})


_FLOATS = st.one_of(st.sampled_from([5e-324, 2.2250738585072014e-308, 1e300, 0.1, 0.1 + 0.2]),
                    st.floats(allow_nan=False))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(records=st.lists(st.tuples(st.one_of(st.integers(0, 6), st.integers(0, 10**15)),
                                  _FLOATS), min_size=1, max_size=12))
def test_append_load_round_trip_keeps_every_bit(records):
    # the last record per index comes back with every float bit for bit,
    # also after a torn last line
    def bits(table):
        return {l: d.hex() for l, d in table.items()}

    want = bits(dict(records))
    with tempfile.TemporaryDirectory() as d:
        cache = OrbitCache.for_model({"family": "prop"}, d)
        for rec in records:
            cache.append(*rec)
        assert bits(cache.load().distances) == want
        with open(cache.path, "a") as fh:
            fh.write("7 1.")
        assert bits(OrbitCache(cache.path, cache.model_key).load().distances) == want


def test_torn_last_line_is_skipped_and_cut_before_appending(cache_dir):
    cache = OrbitCache.for_model({"family": "torn"}, cache_dir)
    cache.append(3, 1.0)
    with open(cache.path, "a") as fh:
        fh.write("12 3.5")  # "12 3.5625\n" cut short by a crash
    fresh = OrbitCache(cache.path, cache.model_key)
    assert fresh.load().distances == {3: 1.0}
    # the fragment is cut, so the next record starts on a line of its own
    fresh.append(13, 4.5)
    assert fresh.load().distances == {3: 1.0, 13: 4.5}
    assert _lines(fresh)[1:] == ["3 1.0", "13 4.5"]


def test_directory_is_made_by_the_first_append(cache_dir):
    cache = OrbitCache.for_model({"family": "lazy"}, cache_dir)
    assert cache.load() == ({}, {}) and not os.path.exists(cache_dir)
    cache.append(1, 2.0)
    assert cache.load().distances == {1: 2.0}


def test_mismatched_file_is_overwritten_on_first_append(cache_dir):
    alien = OrbitCache.for_model({"family": "other"}, cache_dir)
    alien.append(5, 9.0)
    mine = OrbitCache(alien.path, model_key({"family": "mine"}))
    assert mine.load() == ({}, {})
    mine.append(2, 1.0)
    assert _lines(mine) == [HEADER + mine.model_key, "2 1.0"]
    assert mine.load().distances == {2: 1.0}
    assert alien.load() == ({}, {})


def test_file_under_the_former_hash_name_is_never_opened(cache_dir, monkeypatch):
    # files were named by the first 16 hex digits of the sha256 of the
    # payload's JSON; the key text names them now, so such a file is left as
    # it is, and the run starts a file of its own beside it
    payload = {"alpha": 0.5, "quad_rel_tol": 1e-9}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
    os.makedirs(cache_dir)
    old = os.path.join(cache_dir, f"orbit_{digest}.tsv")
    body = f"# warplab-orbit-cache v6 model={digest}\n3 1.0\n".encode()
    with open(old, "wb") as fh:
        fh.write(body)
    opened = []

    def spy_open(path, *args, **kwargs):
        opened.append(os.path.abspath(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(warplab.cache, "open", spy_open, raising=False)
    cache = OrbitCache.for_model(payload, cache_dir)
    assert cache.path != old and cache.load() == ({}, {})
    cache.append(4, 2.0)
    assert cache.load().distances == {4: 2.0}
    assert opened and os.path.abspath(old) not in opened
    with open(old, "rb") as fh:
        assert fh.read() == body
    assert sorted(os.listdir(cache_dir)) == sorted(
        [os.path.basename(old), os.path.basename(cache.path)])


def _older_file_is_ignored_then_rewritten(cache_dir, version, record):
    assert HEADER == "# warplab-orbit-cache v7 model="
    cache = OrbitCache.for_model({"family": "old"}, cache_dir)
    os.makedirs(cache_dir)  # the first append makes it; the old file comes first
    with open(cache.path, "w") as fh:
        fh.write(f"# warplab-orbit-cache {version} model={cache.model_key}\n{record}\n")
    assert cache.load() == ({}, {})
    cache.append(4, 2.0)
    assert _lines(cache) == [HEADER + cache.model_key, "4 2.0"]
    assert OrbitCache(cache.path, cache.model_key).load().distances == {4: 2.0}


def test_v1_file_of_the_same_model_is_ignored_then_rewritten(cache_dir):
    # v1 records come from the former inversion, whose distances differ in
    # the last bits: reusing them would break the byte-identical warm run
    _older_file_is_ignored_then_rewritten(cache_dir, "v1", "3 1.0 0.5 2.0")


def test_v2_file_of_the_same_model_is_ignored_then_rewritten(cache_dir):
    # v2 records come from turning panels integrated in t = sqrt(r_max - r)
    # at every decay exponent; the graded map moves their last bits
    _older_file_is_ignored_then_rewritten(cache_dir, "v2", "3 1.0 0.5 2.0")


def test_v3_file_of_the_same_model_is_ignored_then_rewritten(cache_dir):
    # v3 records come from inversions that searched the Clairaut constant
    # and solved each turning radius; searching the turning radius moves
    # their last bits
    _older_file_is_ignored_then_rewritten(cache_dir, "v3", "3 1.0 0.5 2.0")


def test_v4_file_of_the_same_model_is_ignored_then_rewritten(cache_dir):
    # v4 records carry c, and their distances come from searches on delta_v
    # = (2/c) I; searches on log delta_v move their last bits
    _older_file_is_ignored_then_rewritten(cache_dir, "v4", "3 1.0 0.5 2.0")


def test_v5_file_of_the_same_model_is_ignored_then_rewritten(cache_dir):
    # v5 records carry log c and r_max beside d_l; the header, not the
    # column count, turns away a v5 file, also one with two-column records
    _older_file_is_ignored_then_rewritten(cache_dir, "v5", "3 1.0 0.5 2.0")
    # a record of the v6 shape under a v5 header is not read either
    _older_file_is_ignored_then_rewritten(os.path.join(cache_dir, "again"), "v5", "3 1.0")


def test_v6_file_of_the_same_model_is_ignored_then_rewritten(cache_dir):
    # v6 files hold distances only; a v7 reader takes its counts from the
    # file, so a v6 file of the same model is not read, also where its records
    # have the v7 distance shape
    _older_file_is_ignored_then_rewritten(cache_dir, "v6", "3 1.0")


def test_count_records_round_trip_bit_for_bit(cache_dir):
    # `n R N` lines beside `l d_l` lines: each radius comes back with every
    # bit of its repr, each count as the int written, and the two memos stay
    # apart where a radius equals an index (5.0 and 5 are one dict key)
    cache = OrbitCache.for_model({"family": "counts"}, cache_dir)
    radii = [5.0, 0.1 + 0.2, 6000.000000000001, 1.7976931348623157e308, 5e-324]
    for i, R in enumerate(radii):
        cache.append(R, 10**i + 7, count=True)
    cache.append(5, 2.5)
    cache.append(np.float64(6000.000000000001), 99, count=True)  # the last record wins
    assert _lines(cache)[1:] == [
        "n 5.0 8", "n 0.30000000000000004 17", "n 6000.000000000001 107",
        "n 1.7976931348623157e+308 1007", "n 5e-324 10007", "5 2.5",
        "n 6000.000000000001 99"]
    distances, counts = OrbitCache(cache.path, cache.model_key).load()
    assert distances == {5: 2.5}
    assert [(R.hex(), counts[R]) for R in radii] == [
        (R.hex(), n) for R, n in zip(radii, (8, 17, 99, 1007, 10007))]
    assert all(type(R) is float and type(n) is int for R, n in counts.items())


def test_torn_count_line_is_skipped_and_cut_before_appending(cache_dir):
    cache = OrbitCache.for_model({"family": "torn-count"}, cache_dir)
    cache.append(7.5, 3, count=True)
    with open(cache.path, "a") as fh:
        fh.write("n 12.25 4")  # "n 12.25 41\n" cut short by a crash
    fresh = OrbitCache(cache.path, cache.model_key)
    assert fresh.load() == ({}, {7.5: 3})
    fresh.append(13.0, 5, count=True)
    assert fresh.load() == ({}, {7.5: 3, 13.0: 5})
    assert _lines(fresh)[1:] == ["n 7.5 3", "n 13.0 5"]


def _append_fifty_per_trial(paths, key, first, barrier):
    for path in paths:
        cache = OrbitCache(path, key)
        barrier.wait(timeout=10)
        for l in range(first, first + 50):
            cache.append(l, l + 0.5)


def test_two_processes_first_appends_to_one_fresh_file(tmp_path):
    # per trial, both processes prepare the same missing file at once: neither
    # may fail, and neither may clobber the other's records
    ctx = multiprocessing.get_context("spawn")
    key = model_key({"family": "race"})
    paths = [os.path.join(tmp_path, f"orbit_{trial}.tsv") for trial in range(24)]
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_append_fifty_per_trial, args=(paths, key, first, barrier))
             for first in (0, 50)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(60)
    assert [p.exitcode for p in procs] == [0, 0]
    want = {l: l + 0.5 for l in range(100)}
    for path in paths:
        assert OrbitCache(path, key).load().distances == want, path
    assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in paths)


def test_two_processes_first_appends_to_one_alien_file(tmp_path):
    # per trial, both processes find a file keyed to another model and rewrite
    # its header at once: the rewrite is locked, so neither drops the other's rows
    ctx = multiprocessing.get_context("spawn")
    key = model_key({"family": "race"})
    paths = [os.path.join(tmp_path, f"orbit_{trial}.tsv") for trial in range(24)]
    for path in paths:
        OrbitCache(path, model_key({"family": "alien"})).append(7, 1.0)
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_append_fifty_per_trial, args=(paths, key, first, barrier))
             for first in (0, 50)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(60)
    assert [p.exitcode for p in procs] == [0, 0]
    want = {l: l + 0.5 for l in range(100)}
    for path in paths:
        assert OrbitCache(path, key).load().distances == want, path
