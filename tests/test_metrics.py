import gc
import io
import json
import os
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from cavsim.errors import ContractViolation, NotFoundError
from cavsim.metrics import (WRITE_CHUNK, MetricsWriter, avg_bandwidth, cpr,
                            read_index, record_json, seek_tick,
                            ttv_distribution)
from cavsim.sandbox import SandboxContext
from cavsim.trace import VehicleState
from conftest import read_run
from oracles import MetricsRecord, finish_record, ttv_distribution_total


def rec(tick, vid, bytes_sent=0, local=0, received=0, total=0, ttv=None,
        pos=(0.0, 0.0)):
    """A vehicle's context as its tick leaves it, holding these values:
    what record_json encodes and finish_record reads."""
    ctx = SandboxContext(tick, vid, None, VehicleState(vid, *pos, 0.0))
    ctx.bytes_sent = bytes_sent
    ctx.set_object_counts(local, received, total)
    ctx.ttv_events = ttv or {}
    return ctx


def write_run(tmp_path, ticks):
    out = str(tmp_path / "run")
    with MetricsWriter(out) as w:
        for tick, records in ticks:
            w.record_tick(tick, map(record_json, records))
    return out


def read_files(run_dir):
    with open(os.path.join(run_dir, "metrics.jsonl"), "rb") as f:
        data = f.read()
    with open(os.path.join(run_dir, "metrics.idx"), "r") as f:
        idx = f.read()
    return data, idx


def test_zero_vehicle_tick_line(tmp_path):
    out = write_run(tmp_path, [(4, [])])
    data, idx = read_files(out)
    assert data == b'{"tick":4,"vehicles":[]}\n'
    assert idx == "4 0 25\n"


def test_record_key_order_and_values(tmp_path):
    out = write_run(tmp_path, [
        (0, [rec(0, "a", 10, 1, 2, 3, {3: 1, 1: 2}, (1.5, -2.0))])])
    data, _ = read_files(out)
    line = json.loads(data)
    assert list(line["vehicles"][0]) == ["id", "bytes_sent", "local_objects",
                                         "received_objects", "all_objects",
                                         "ttv", "errors", "x", "y"]
    assert line["vehicles"][0]["ttv"] == {"1": 2, "3": 1}
    assert line["vehicles"][0]["x"] == 1.5


def test_offsets_strictly_increasing(tmp_path):
    out = write_run(tmp_path, [(t, [rec(t, "a")]) for t in range(10)])
    with open(os.path.join(out, "metrics.idx")) as f:
        entries = read_index(f)
    offsets = [e[1] for e in entries]
    assert offsets == sorted(offsets)
    assert len(set(offsets)) == len(offsets)


def test_non_increasing_tick_rejected(tmp_path):
    with MetricsWriter(str(tmp_path / "run")) as w:
        w.record_tick(3, [])
        with pytest.raises(ContractViolation):
            w.record_tick(3, [])
        with pytest.raises(ContractViolation):
            w.record_tick(1, [])


def test_index_points_at_correct_lines(tmp_path):
    out = write_run(tmp_path, [(t, [rec(t, f"v{t}")]) for t in range(100)])
    with open(os.path.join(out, "metrics.idx")) as f:
        entries = read_index(f)
    assert len(entries) == 100
    with open(os.path.join(out, "metrics.jsonl"), "rb") as data:
        for t, offset, length in entries:
            data.seek(offset)
            line = json.loads(data.read(length))
            assert line["tick"] == t


def test_read_index_skips_blank_lines():
    text = "0 0 10\n\n  \n1 10 12\n\n"
    assert read_index(io.StringIO(text)) == [(0, 0, 10), (1, 10, 12)]


def test_seek_equals_linear_scan(tmp_path):
    ticks = [(t * 2, [rec(t * 2, "a", bytes_sent=t)]) for t in range(50)]
    out = write_run(tmp_path, ticks)
    with open(os.path.join(out, "metrics.idx")) as f:
        index = read_index(f)
    by_scan = {line["tick"]: line for line in read_run(out)}
    with open(os.path.join(out, "metrics.jsonl"), "rb") as data:
        assert seek_tick(index, data, 0) == by_scan[0]
        for t in (2, 34, 98):
            assert seek_tick(index, data, t) == by_scan[t]
        with pytest.raises(NotFoundError):
            seek_tick(index, data, 99)
        with pytest.raises(NotFoundError):
            seek_tick(index, data, 200)


def test_roundtrip_record(tmp_path):
    r = rec(5, "a", 10, 1, 2, 3, {4: 2}, (0.5, 1.5))
    out = write_run(tmp_path, [(5, [r])])
    line = read_run(out)[0]
    back = MetricsRecord.from_json_obj(line["tick"], line["vehicles"][0])
    assert back == finish_record(r)


def test_identical_runs_identical_bytes(tmp_path):
    ticks = [(t, [rec(t, "a", t), rec(t, "b", 2 * t)]) for t in range(20)]
    a = write_run(tmp_path / "a", ticks)
    b = write_run(tmp_path / "b", ticks)
    assert read_files(a) == read_files(b)


def test_fast_emitter_matches_json_dumps():
    import random
    from cavsim.metrics import record_json

    rng = random.Random(5)
    records = [
        rec(0, 'we"ird\\id\n', 1, 2, 3, 4, {10: 2, 3: 1}, (0.1, -7.25)),
        rec(0, "plain", pos=(10, 10)),  # integer positions stay integers
        rec(0, "ümlaut", 7, ttv={0: 1}),
    ]
    for _ in range(200):
        records.append(rec(
            0, f"v{rng.randrange(1000)}", rng.randrange(10**6),
            rng.randrange(100), rng.randrange(100), rng.randrange(200),
            {rng.randrange(50): rng.randrange(9) + 1 for _ in range(rng.randrange(4))},
            (rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5))))
    for r in records:
        assert record_json(r) == json.dumps(finish_record(r).to_json_obj(),
                                            separators=(",", ":"))


ODD_IDS = ['q"uote', "back\\slash", "tab\tnew\nline", "nul\x00bell\x07",
           "\x1f\x7f", "ümlaut", "日本", "emoji \U0001f697", "surrogate \ud800",
           "", "/slash", "\u2028sep"]


@pytest.mark.parametrize("vid", ODD_IDS)
def test_record_id_encoded_as_json_dumps(vid):
    line = record_json(rec(0, vid))
    assert line.startswith('{"id":' + json.dumps(vid) + ',"bytes_sent":')
    assert line.isascii()


@given(st.text())
def test_record_id_encoded_as_json_dumps_any_text(vid):
    r = rec(0, vid, 3, ttv={2: 1})
    assert record_json(r) == json.dumps(finish_record(r).to_json_obj(),
                                        separators=(",", ":"))


# --- chunked tick lines ------------------------------------------------------

def many_records(tick, n):
    return [rec(tick, f"v{i:05d}", 66 + i, 2, 5, 6, {2: 1, i % 7: 4},
                (101.5 + i, -40.25 * i)) for i in range(n)]


def reference_line(tick, records):
    """The tick line written in one piece."""
    body = ",".join(record_json(r) for r in records)
    return f'{{"tick":{tick},"vehicles":[{body}]}}\n'.encode("ascii")


def test_chunked_line_index_matches_bytes(tmp_path):
    counts = (0, 1, WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1,
              2 * WRITE_CHUNK + 3)
    ticks = [(t, many_records(t, n)) for t, n in enumerate(counts)]
    data, idx = read_files(write_run(tmp_path, ticks))
    assert data == b"".join(reference_line(t, r) for t, r in ticks)
    offset = 0
    for (t, records), (it, ioff, ilen) in zip(ticks, read_index(idx.splitlines())):
        line = reference_line(t, records)
        assert (it, ioff, ilen) == (t, offset, len(line))
        assert data[ioff:ioff + ilen] == line
        offset += len(line)
    assert offset == len(data)


def test_record_tick_peak_is_a_fraction_of_the_line(tmp_path):
    records = many_records(1, 5000)
    with MetricsWriter(str(tmp_path / "run")) as w:
        w.record_tick(0, map(record_json, records[:10]))  # open the buffers
        gc.collect()
        tracemalloc.start()
        try:
            w.record_tick(1, map(record_json, records))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    length = len(reference_line(1, records))
    assert peak < 0.5 * length, (peak, length)


def test_writer_closes_its_data_file_when_the_index_cannot_open(tmp_path):
    # a directory in the index's place: the data file, opened first, is
    # closed before the error goes on, so no ResourceWarning follows
    (tmp_path / "run" / "metrics.idx").mkdir(parents=True)
    with pytest.raises(OSError):
        MetricsWriter(str(tmp_path / "run"))
    gc.collect()


def test_writer_times_its_own_work_not_the_records(tmp_path):
    def slow(n):
        for k in range(n):
            time.sleep(0.002)
            yield record_json(rec(0, f"v{k}"))

    with MetricsWriter(str(tmp_path / "run")) as w:
        start = time.perf_counter()
        w.record_tick(0, slow(20))
        whole = time.perf_counter() - start
    assert 0.0 <= w.write_s < whole - 0.035, (w.write_s, whole)


# --- aggregations ----------------------------------------------------------

def run_data(ticks):
    return [{"tick": t,
             "vehicles": [finish_record(r).to_json_obj() for r in records]}
            for t, records in ticks]


def test_avg_bandwidth_all_silent():
    data = run_data([(t, [rec(t, "a"), rec(t, "b")]) for t in range(5)])
    assert avg_bandwidth(data) == [(t, 0.0) for t in range(5)]


def test_avg_bandwidth_constant_sender():
    data = run_data([(t, [rec(t, "a", 100)]) for t in range(3)])
    assert avg_bandwidth(data) == [(0, 100.0), (1, 100.0), (2, 100.0)]


def test_avg_bandwidth_mixed_and_empty():
    data = run_data([(0, [rec(0, "a", 70), rec(0, "b", 30)]), (1, [])])
    assert avg_bandwidth(data) == [(0, 50.0), (1, 0.0)]


def test_ttv_distribution():
    data = run_data([
        (0, [rec(0, "a")]),
        (1, [rec(1, "a", ttv={1: 2}), rec(1, "b", ttv={1: 1, 4: 1})]),
    ])
    assert ttv_distribution(data[0]) == {}
    assert ttv_distribution(data[1]) == {1: 3, 4: 1}
    assert ttv_distribution_total(data) == {1: 3, 4: 1}


def test_cpr_all_unconnected_is_zero():
    data = run_data([(0, [rec(0, "a", local=3, total=3, pos=(10, 10)),
                          rec(0, "b", local=2, total=2, pos=(500, 10))])])
    heat = cpr(data[0], 100.0)
    assert heat == {(0, 0): 0.0, (5, 0): 0.0}


def test_cpr_ratio_one():
    data = run_data([(0, [rec(0, "a", local=3, received=3, total=6,
                              pos=(50, 50))])])
    assert cpr(data[0], 100.0) == {(0, 0): 1.0}


def test_cpr_two_cells_hand_computed():
    # cell (0,0): two vehicles, remote = (5-2) + (4-1) = 6, local = 3 -> 2.0
    # cell (3,0): one vehicle, remote = 2, local = 4 -> 0.5
    # cell (9,9): local = 0 -> excluded
    data = run_data([(7, [
        rec(7, "a", local=2, total=5, pos=(10.0, 20.0)),
        rec(7, "b", local=1, total=4, pos=(90.0, 5.0)),
        rec(7, "c", local=4, total=6, pos=(310.0, 0.0)),
        rec(7, "d", local=0, total=3, pos=(950.0, 950.0)),
    ])])
    assert cpr(data[0], 100.0) == {(0, 0): 2.0, (3, 0): 0.5}


def test_encoded_records_give_the_json_dumps_line_and_index(tmp_path):
    # record_tick takes records encoded by record_json; the file and the
    # index are those of dumping every tick's records as one JSON object
    ticks = [(0, []), (3, many_records(3, 2)),
             (4, many_records(4, WRITE_CHUNK + 5)),
             (9, [rec(9, 'we"ird\n', 7, 1, 2, 3, {5: 1}, (-0.5, 1e-9))])]
    out = str(tmp_path / "run")
    with MetricsWriter(out) as w:
        for tick, records in ticks:
            w.record_tick(tick, [record_json(r) for r in records])
    data, idx = read_files(out)
    lines = [(json.dumps({"tick": t, "vehicles": [
        finish_record(r).to_json_obj() for r in rs]},
        separators=(",", ":")) + "\n").encode("ascii") for t, rs in ticks]
    assert data == b"".join(lines)
    offsets = [sum(map(len, lines[:i])) for i in range(len(lines))]
    assert idx == "".join(f"{t} {o} {len(line)}\n" for (t, _), o, line
                          in zip(ticks, offsets, lines))
