import csv
import gc
import io
import math
import random
import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from cavsim.errors import (ConfigError, SchemaError, SimError,
                           TraceParseError, ValidationError)
from cavsim.trace import (CSV_COLUMNS, TAU, TraceTick, VehicleState,
                          iter_trace, normalize_angle, synth_traffic,
                          write_csv)
from conftest import read_trace

FCD_EMPTY = "<fcd-export></fcd-export>"

FCD_ONE = """<fcd-export>
  <timestep time="0.00">
    <vehicle id="a" x="10" y="20" angle="90"/>
  </timestep>
</fcd-export>"""

FCD_NON_MONOTONIC = """<fcd-export>
  <timestep time="3"><vehicle id="a" x="0" y="0" angle="0"/></timestep>
  <timestep time="1"><vehicle id="a" x="0" y="0" angle="0"/></timestep>
</fcd-export>"""


def test_fcd_empty_document():
    assert read_trace(FCD_EMPTY, "fcd") == []


def test_fcd_angle_conversion_east():
    ticks = read_trace(FCD_ONE, "fcd")
    assert len(ticks) == 1
    (state,) = ticks[0].states
    assert ticks[0].tick == 0
    assert state.id == "a"
    assert state.x == 10.0 and state.y == 20.0
    assert state.heading == 0.0  # 90 deg clockwise from north == east == +x
    assert state.length == 5.0 and state.width == 1.8


def test_fcd_angle_convention_more_points():
    # north (0 deg) -> +y -> pi/2; south (180) -> -pi/2; west (270) -> pi
    doc = """<fcd-export><timestep time="0">
      <vehicle id="n" x="0" y="0" angle="0"/>
      <vehicle id="s" x="1" y="0" angle="180"/>
      <vehicle id="w" x="2" y="0" angle="270"/>
    </timestep></fcd-export>"""
    (tick,) = read_trace(doc, "fcd")
    by_id = {s.id: s for s in tick.states}
    assert by_id["n"].heading == pytest.approx(math.pi / 2)
    assert by_id["s"].heading == pytest.approx(-math.pi / 2)
    assert by_id["w"].heading == pytest.approx(math.pi)


def test_fcd_non_monotonic_rejected():
    with pytest.raises(ValidationError):
        read_trace(FCD_NON_MONOTONIC, "fcd")


def test_fcd_malformed_reports_line():
    bad = "<fcd-export>\n<timestep time='0'>\n</fcd-export>"
    with pytest.raises(TraceParseError) as exc:
        read_trace(bad, "fcd")
    assert exc.value.line is not None
    assert "line" in str(exc.value)


def test_fcd_fractional_buckets_keep_first():
    doc = """<fcd-export>
      <timestep time="0.0"><vehicle id="a" x="1" y="0" angle="90"/></timestep>
      <timestep time="0.5"><vehicle id="a" x="2" y="0" angle="90"/></timestep>
      <timestep time="1.5"><vehicle id="a" x="3" y="0" angle="90"/></timestep>
    </fcd-export>"""
    ticks = read_trace(doc, "fcd")
    assert [t.tick for t in ticks] == [0, 1]
    assert ticks[0].states[0].x == 1.0
    assert ticks[1].states[0].x == 3.0


def test_fcd_explicit_dimensions_and_duplicate_id():
    doc = """<fcd-export><timestep time="0">
      <vehicle id="a" x="0" y="0" angle="0" length="7.5" width="2.5"/>
    </timestep></fcd-export>"""
    (tick,) = read_trace(doc, "fcd")
    assert tick.states[0].length == 7.5
    assert tick.states[0].width == 2.5
    dup = """<fcd-export><timestep time="0">
      <vehicle id="a" x="0" y="0" angle="0"/>
      <vehicle id="a" x="1" y="0" angle="0"/>
    </timestep></fcd-export>"""
    with pytest.raises(ValidationError):
        read_trace(dup, "fcd")


def test_fcd_missing_attribute():
    doc = """<fcd-export><timestep time="0">
      <vehicle id="a" x="0" y="0"/>
    </timestep></fcd-export>"""
    with pytest.raises(SchemaError) as exc:
        read_trace(doc, "fcd")
    assert "angle" in str(exc.value)


def test_csv_header_only():
    assert read_trace("tick,id,x,y,heading,length,width\n", "csv") == []


def test_csv_single_row():
    ticks = read_trace(
        "tick,id,x,y,heading,length,width\n0,a,0,0,0,5,1.8\n", "csv")
    assert ticks == [TraceTick(0, (VehicleState("a", 0.0, 0.0, 0.0, 5.0, 1.8),))]


def test_csv_heading_normalized():
    ticks = read_trace(
        "tick,id,x,y,heading,length,width\n0,a,0,0,7.0,5,1.8\n", "csv")
    assert ticks[0].states[0].heading == 7.0 - TAU


def test_csv_missing_column_named():
    with pytest.raises(SchemaError) as exc:
        read_trace("tick,id,x,y,heading,length\n", "csv")
    assert "width" in str(exc.value)


def test_csv_non_monotonic():
    body = "tick,id,x,y,heading,length,width\n2,a,0,0,0,5,2\n1,a,0,0,0,5,2\n"
    with pytest.raises(ValidationError):
        read_trace(body, "csv")


def test_csv_blank_dimensions_defaulted():
    ticks = read_trace(
        "tick,id,x,y,heading,length,width\n0,a,1,2,0,,\n", "csv")
    s = ticks[0].states[0]
    assert s.length == 5.0 and s.width == 1.8


def test_csv_roundtrip_of_parsed_fcd():
    ticks = read_trace(FCD_ONE, "fcd")
    buf = io.StringIO()
    write_csv(ticks, buf)
    assert read_trace(buf.getvalue(), "csv") == ticks


@given(st.integers(0, 2 ** 32), st.integers(0, 30), st.integers(0, 5))
def test_synth_roundtrip_and_headings(seed, n, ticks):
    trace = synth_traffic(seed, n, ticks, 500.0)
    assert len(trace) == ticks
    for tt in trace:
        for s in tt.states:
            assert -math.pi < s.heading <= math.pi
    buf = io.StringIO()
    write_csv(trace, buf)
    # vehicle-less ticks are not expressible in the row-based CSV schema
    assert read_trace(buf.getvalue(), "csv") == [tt for tt in trace
                                                 if tt.states]


def test_synth_zero_vehicles():
    trace = synth_traffic(1, 0, 4, 100.0)
    assert [t.tick for t in trace] == [0, 1, 2, 3]
    assert all(t.states == () for t in trace)


def test_synth_deterministic():
    a = synth_traffic(1, 25, 6, 300.0)
    b = synth_traffic(1, 25, 6, 300.0)
    assert a == b
    assert synth_traffic(2, 25, 6, 300.0) != a


def test_synth_unique_ids_every_tick():
    trace = synth_traffic(1, 100, 10, 1000.0)
    for tt in trace:
        ids = [s.id for s in tt.states]
        assert len(ids) == 100
        assert len(set(ids)) == 100


def test_synth_negative_vehicles_rejected():
    with pytest.raises(ConfigError):
        synth_traffic(0, -1, 1, 10.0)


@given(st.floats(-100.0, 100.0))
def test_normalize_angle_range(a):
    out = normalize_angle(a)
    assert -math.pi < out <= math.pi
    # same direction modulo full turns
    assert math.isclose(math.cos(out), math.cos(a), abs_tol=1e-9)
    assert math.isclose(math.sin(out), math.sin(a), abs_tol=1e-9)


CSV_ROW = {"tick": "0", "id": "a", "x": "1.5", "y": "-2.0", "heading": "0.5",
           "length": "4.0", "width": "1.8"}
FCD_VEHICLE = {"x": "1.5", "y": "-2.0", "angle": "90", "length": "4.0",
               "width": "1.8"}


def csv_doc(**override):
    row = dict(CSV_ROW, **override)
    return (",".join(CSV_COLUMNS) + "\n"
            + ",".join(row[c] for c in CSV_COLUMNS) + "\n")


def fcd_doc(time="0", **override):
    attrs = " ".join(f'{k}="{v}"'
                     for k, v in dict(FCD_VEHICLE, **override).items())
    return (f'<fcd-export><timestep time="{time}">'
            f'<vehicle id="a" {attrs}/></timestep></fcd-export>')


def test_valid_rows_parse():
    (tick,) = read_trace(csv_doc(), "csv")
    assert tick.states[0] == VehicleState("a", 1.5, -2.0, 0.5, 4.0, 1.8)
    (tick,) = read_trace(fcd_doc(), "fcd")
    assert (tick.states[0].x, tick.states[0].length) == (1.5, 4.0)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["x", "y", "heading", "length", "width"])
def test_csv_non_finite_rejected(column, value):
    with pytest.raises(ValidationError) as exc:
        read_trace(csv_doc(**{column: value}), "csv")
    assert "row 2" in str(exc.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("attr", ["x", "y", "angle", "length", "width"])
def test_fcd_non_finite_rejected(attr, value):
    with pytest.raises(ValidationError):
        read_trace(fcd_doc(**{attr: value}), "fcd")


@pytest.mark.parametrize("attr", ["x", "y", "angle", "length", "width"])
def test_fcd_non_numeric_rejected(attr):
    with pytest.raises(ValidationError) as exc:
        read_trace(fcd_doc(**{attr: "abc"}), "fcd")
    assert "'a'" in str(exc.value)


@pytest.mark.parametrize("time", ["abc", "", "nan", "inf"])
def test_fcd_bad_time_rejected(time):
    with pytest.raises(ValidationError) as exc:
        read_trace(fcd_doc(time=time), "fcd")
    assert "time" in str(exc.value)


def test_empty_id_rejected_in_both_formats():
    with pytest.raises(ValidationError, match="^row 2: empty vehicle id$"):
        read_trace(csv_doc(id=""), "csv")
    with pytest.raises(ValidationError,
                       match="^vehicle '': empty vehicle id$"):
        read_trace(fcd_doc().replace('id="a"', 'id=""'), "fcd")
    # an entity the parser cannot expand leaves the id empty
    with pytest.raises(ValidationError,
                       match="^vehicle '': empty vehicle id$"):
        read_trace(ODD_FCD["external-dtd-entity-attr"], "fcd")


@pytest.mark.parametrize("name, doc", [
    ("t.csv", csv_doc(x="nan")),
    ("t.csv", csv_doc(width="inf")),
    ("t.xml", fcd_doc(y="nan")),
    ("t.xml", fcd_doc(time="soon")),
    ("t.csv", csv_doc() + "0,a,9,0,0,5,2\n1,a,0,0,0,5,2\n"),
    ("t.csv", csv_doc() + "1,a,0,0,0,5,2\n1,a,9,0,0,5,2\n"),
    ("t.csv", ",".join(CSV_COLUMNS) + ",speed\n0,a,0,0,0,5,2,3\n"),
], ids=["csv-x-nan", "csv-width-inf", "fcd-y-nan", "fcd-time-text",
        "csv-duplicate-id-next-tick", "csv-duplicate-id-last-tick",
        "csv-extra-column"])
def test_cli_malformed_trace_value(tmp_path, capsys, name, doc):
    from cavsim.cli import main

    trace_path = tmp_path / name
    trace_path.write_text(doc)
    config_path = tmp_path / "c.ini"
    config_path.write_text("[scenario]\nseed = 1\n")
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(config_path), "--trace",
               str(trace_path), "--out", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


# --- streaming CSV ingest ---------------------------------------------------

def reference_parse_csv(stream, default_length=5.0, default_width=1.8):
    """The DictReader parser that preceded the positional one, kept as the
    oracle: the positional parser must give equal ticks, float for float."""
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        return []
    ticks, cur_tick, cur_states = [], None, []

    def flush():
        if cur_tick is not None:
            ids = [s.id for s in cur_states]
            if len(set(ids)) != len(ids):
                raise ValidationError(f"tick {cur_tick}: duplicate vehicle id")
            ticks.append(TraceTick(cur_tick, tuple(cur_states)))

    for lineno, row in enumerate(reader, start=2):
        try:
            tick = int(row["tick"])
            x = float(row["x"])
            y = float(row["y"])
            heading = float(row["heading"])
            length = (float(row["length"]) if (row["length"] or "").strip()
                      else default_length)
            width = (float(row["width"]) if (row["width"] or "").strip()
                     else default_width)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"row {lineno}: {exc}") from exc
        if not 0.0 * x * y * heading == 0.0 < length < math.inf > width > 0.0:
            raise ValidationError(f"row {lineno}: non-finite value")
        vid = row["id"]
        if vid is None or vid == "":
            raise ValidationError(f"row {lineno}: empty vehicle id")
        if cur_tick is None or tick != cur_tick:
            if cur_tick is not None and tick < cur_tick:
                raise ValidationError(f"row {lineno}: non-monotonic tick")
            flush()
            cur_tick = tick
            cur_states = []
        cur_states.append(VehicleState(vid, x, y, normalize_angle(heading),
                                       length, width))
    flush()
    return ticks


def random_csv(rng):
    """A valid CSV trace with permuted columns, blank dimension cells,
    headings outside (-pi, pi], exactly +-pi and -0.0, padded and
    zero-prefixed ticks, and blank lines."""
    columns = list(CSV_COLUMNS)
    rng.shuffle(columns)
    lines = [",".join(columns)]
    tick = rng.randrange(3)
    for _ in range(rng.randrange(1, 6)):
        for n in rng.sample(range(40), rng.randrange(1, 7)):
            heading = rng.choice([
                repr(rng.uniform(-math.pi, math.pi)),
                repr(rng.uniform(-20.0, 20.0)), repr(math.pi),
                repr(-math.pi), "-0.0", "0", repr(3 * math.pi),
                repr(-TAU), f"{rng.uniform(-4.0, 4.0):.3f}"])
            row = {
                "tick": rng.choice([str(tick), f" {tick}", f"0{tick}",
                                    f"{tick} "]),
                "id": f"v{n}",
                "x": rng.choice([repr(rng.uniform(-1e4, 1e4)), "-0.0",
                                 f"{rng.uniform(-50.0, 50.0):.2f}"]),
                "y": repr(rng.uniform(-1e4, 1e4)),
                "heading": heading,
                "length": rng.choice(["", "  ", repr(rng.uniform(1.0, 9.0)),
                                      "4.5"]),
                "width": rng.choice(["", repr(rng.uniform(0.5, 3.0))]),
            }
            lines.append(",".join(row[c] for c in columns))
            if rng.random() < 0.15:
                lines.append("")
        tick += rng.randrange(1, 4)
    return "\n".join(lines) + "\n"


def float_reprs(ticks):
    return [(tt.tick, [(s.id, repr(s.x), repr(s.y), repr(s.heading),
                        repr(s.length), repr(s.width)) for s in tt.states])
            for tt in ticks]


def test_csv_matches_dictreader_oracle(tmp_path):
    for seed in range(300):
        doc = random_csv(random.Random(seed))
        want = reference_parse_csv(io.StringIO(doc))
        got = read_trace(doc, "csv")
        assert float_reprs(got) == float_reprs(want), (seed, doc)
        if seed % 20 == 0:
            path = tmp_path / f"t{seed}.csv"
            path.write_text(doc)
            streamed = iter_trace(str(path))
            assert float_reprs(streamed) == float_reprs(want)


def test_csv_padded_header_names():
    padded = "tick, id, x, y, heading, length, width\n0,a,1,2,0.5,4,1.8\n"
    plain = "tick,id,x,y,heading,length,width\n0,a,1,2,0.5,4,1.8\n"
    assert read_trace(padded, "csv") == read_trace(plain, "csv")
    assert read_trace(padded, "csv")[0].states[0].x == 1.0


@pytest.mark.parametrize("row, count", [("0,b,1,2,0,4,1.8,EXTRA", 8),
                                        ("0,b,1,2,0,4", 6)],
                         ids=["extra", "short"])
def test_csv_field_count_must_match_header(row, count):
    doc = f"{','.join(CSV_COLUMNS)}\n0,a,1,2,0,4,1.8\n\n{row}\n"
    with pytest.raises(ValidationError) as exc:
        read_trace(doc, "csv")
    assert str(exc.value).startswith(f"row 4: {count} fields")


def test_csv_unexpected_column_named():
    with pytest.raises(SchemaError) as exc:
        read_trace(",".join(CSV_COLUMNS) + ",speed\n0,a,0,0,0,5,2,3\n", "csv")
    assert str(exc.value) == "unexpected column 'speed'"


@pytest.mark.parametrize("rows, tick", [
    ("0,a,0,0,0,5,2\n0,a,9,0,0,5,2\n1,a,0,0,0,5,2\n", 0),
    ("0,b,0,0,0,5,2\n1,a,0,0,0,5,2\n1,a,9,0,0,5,2\n", 1),
], ids=["next-tick", "last-tick"])
def test_csv_duplicate_id_names_its_tick(rows, tick):
    # found when the next tick starts, and when the file ends
    with pytest.raises(ValidationError) as exc:
        read_trace(",".join(CSV_COLUMNS) + "\n" + rows, "csv")
    assert str(exc.value) == f"tick {tick}: duplicate vehicle id 'a'"


def test_csv_duplicate_column_rejected():
    with pytest.raises(SchemaError) as exc:
        read_trace(",".join(CSV_COLUMNS) + ",x\n", "csv")
    assert "'x'" in str(exc.value)


@pytest.mark.parametrize("name, doc", [
    ("t.csv", csv_doc().encode() + b"1,a,1,\xff,0,4,1.8\n"),
    ("t.xml", fcd_doc().replace("</fcd-export>", "").encode()
     + b'<timestep time="1"><vehicle id="\xff" x="0" y="0" angle="0"/>'
       b'</timestep></fcd-export>'),
], ids=["csv", "fcd"])
def test_non_utf8_trace_is_parse_error(tmp_path, name, doc):
    path = tmp_path / name
    path.write_bytes(doc)
    with pytest.raises(TraceParseError) as exc:
        list(iter_trace(str(path)))
    assert "UTF-8" in str(exc.value) and "0xff" in str(exc.value)


def cli_run(tmp_path, capsys, trace_name, data,
            config=b"[scenario]\nseed = 1\n", *extra):
    """Run `cavsim run` on the given trace and config bytes; return
    (exit code, stderr, out directory)."""
    from cavsim.cli import main

    trace_path = tmp_path / trace_name
    trace_path.write_bytes(data)
    config_path = tmp_path / "c.ini"
    config_path.write_bytes(config)
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(config_path), "--trace",
               str(trace_path), "--out", str(out_dir), *extra])
    return rc, capsys.readouterr().err, out_dir


def assert_failed_cleanly(tmp_path, rc, err, out_dir):
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out_dir.exists()
    # nothing left next to out: no staging directory
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "t.csv"]


def multi_tick_csv(n_ticks, last_row):
    buf = io.StringIO()
    write_csv(synth_traffic(2, 5, n_ticks, 200.0), buf)
    return buf.getvalue().encode() + last_row


@pytest.mark.parametrize("row", [b"5,zz,1,2,0,4,1.8,EXTRA\n",
                                 b"5,zz,1,2,0,4\n"], ids=["extra", "short"])
def test_cli_field_count_mismatch(tmp_path, capsys, row):
    rc, err, out_dir = cli_run(tmp_path, capsys, "t.csv",
                               multi_tick_csv(6, row))
    assert_failed_cleanly(tmp_path, rc, err, out_dir)
    assert "fields" in err


def test_cli_zero_byte_csv_is_an_empty_run(tmp_path, capsys):
    # no header is no tick, as a header alone is
    rc, err, out_dir = cli_run(tmp_path, capsys, "t.csv", b"")
    assert (rc, err) == (0, "")
    assert (out_dir / "metrics.jsonl").read_bytes() == b""
    assert (out_dir / "metrics.idx").read_bytes() == b""


def test_cli_non_utf8_byte_in_last_tick(tmp_path, capsys):
    rc, err, out_dir = cli_run(tmp_path, capsys, "t.csv",
                               multi_tick_csv(6, b"5,\xff,1,2,0,4,1.8\n"))
    assert_failed_cleanly(tmp_path, rc, err, out_dir)
    assert "UTF-8" in err


def test_cli_non_utf8_config(tmp_path, capsys):
    rc, err, out_dir = cli_run(tmp_path, capsys, "t.csv",
                               multi_tick_csv(2, b""),
                               b"[scenario]\nseed = 1 ; \xff\n")
    assert_failed_cleanly(tmp_path, rc, err, out_dir)
    assert "c.ini" in err and "UTF-8" in err


def test_cli_tick_range_stops_reading_early(tmp_path, capsys):
    rc, err, out_dir = cli_run(tmp_path, capsys, "t.csv",
                               multi_tick_csv(5, b"5,zz,1,nan,0,4,1.8\n"),
                               b"[scenario]\nseed = 1\n", "--ticks", "0:2")
    assert rc == 0, err
    assert (out_dir / "metrics.idx").read_text().count("\n") == 2


def test_cli_byte_order_mark_is_not_read(tmp_path, capsys):
    # a UTF-8 byte order mark before a CSV trace's header or a config's
    # first section header reads as if it were absent
    bom = b"\xef\xbb\xbf"
    trace, config = multi_tick_csv(3, b""), b"[scenario]\nseed = 1\n"
    runs = {}
    for case, files in (("plain", (trace, config)),
                        ("trace", (bom + trace, config)),
                        ("config", (trace, bom + config))):
        (tmp_path / case).mkdir()
        rc, err, out_dir = cli_run(tmp_path / case, capsys, "t.csv", *files)
        assert rc == 0, err
        runs[case] = (out_dir / "metrics.jsonl").read_bytes()
    assert runs["plain"]
    assert runs["trace"] == runs["plain"] == runs["config"]


@pytest.mark.parametrize("which", ["trace", "config"])
def test_cli_not_utf8_after_byte_order_mark(tmp_path, capsys, which):
    # skipping the mark still leaves the rest checked as UTF-8 text
    bom = b"\xef\xbb\xbf"
    trace, config = multi_tick_csv(3, b""), b"[scenario]\nseed = 1\n"
    if which == "trace":
        trace = bom + trace + b"5,caf\xe9,1,2,0,4,1.8\n"
    else:
        config = bom + config + b"; caf\xe9\n"
    files = (trace, config)
    rc, err, out_dir = cli_run(tmp_path, capsys, "t.csv", *files)
    assert_failed_cleanly(tmp_path, rc, err, out_dir)
    assert "is not UTF-8 text" in err and "(byte 0xe9)" in err


FCD_TWO = """<fcd-export>
  <timestep time="0"><vehicle id="a" x="0" y="0" angle="90"/>
    <vehicle id="b" x="-10" y="0" angle="90"/></timestep>
  <timestep time="1"><vehicle id="a" x="5" y="0" angle="90"/>
    <vehicle id="b" x="-5" y="0" angle="90"/></timestep>
</fcd-export>
"""


def run_config(tmp_path, capsys, config, *extra):
    """`cavsim run` of the config text written to c.ini; (exit code,
    stderr)."""
    from cavsim.cli import main

    (tmp_path / "c.ini").write_text(config)
    rc = main(["run", "--config", str(tmp_path / "c.ini"), *extra])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("fmt,name,ext,data", [
    ("csv", "t.txt", "csv", multi_tick_csv(3, b"")),
    ("fcd", "t.dat", "xml", FCD_TWO.encode()),
])
def test_trace_format_key_reads_any_file_name(tmp_path, capsys, fmt, name,
                                              ext, data):
    # the key names the format where the extension does not; the run is
    # that of the same bytes under the extension of their format
    (tmp_path / name).write_bytes(data)
    (tmp_path / f"t.{ext}").write_bytes(data)
    rc, err = run_config(tmp_path, capsys,
                         f"[scenario]\ntrace = {tmp_path / name}\n"
                         f"trace_format = {fmt}\nout = {tmp_path / 'key'}\n")
    assert rc == 0, err
    rc, err = run_config(tmp_path, capsys,
                         f"[scenario]\nout = {tmp_path / 'ext'}\n",
                         "--trace", str(tmp_path / f"t.{ext}"))
    assert rc == 0, err
    key = (tmp_path / "key" / "metrics.jsonl").read_bytes()
    assert key and key == (tmp_path / "ext" / "metrics.jsonl").read_bytes()


def test_trace_flag_drops_the_config_trace_format(tmp_path, capsys):
    # the config's format was its own trace's: --trace guesses the format
    # of the file it names from that file's extension
    (tmp_path / "t.dat").write_text(FCD_TWO)
    (tmp_path / "t.csv").write_bytes(multi_tick_csv(3, b""))
    rc, err = run_config(tmp_path, capsys,
                         f"[scenario]\ntrace = {tmp_path / 't.dat'}\n"
                         f"trace_format = fcd\nout = {tmp_path / 'out'}\n",
                         "--trace", str(tmp_path / "t.csv"))
    assert rc == 0, err
    assert (tmp_path / "out" / "metrics.idx").read_text().count("\n") == 3


def test_unknown_trace_format_is_one_error_line(tmp_path, capsys):
    (tmp_path / "t.csv").write_bytes(multi_tick_csv(3, b""))
    rc, err = run_config(tmp_path, capsys,
                         f"[scenario]\ntrace = {tmp_path / 't.csv'}\n"
                         f"trace_format = parquet\n"
                         f"out = {tmp_path / 'out'}\n")
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "'parquet'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "t.csv"]


def test_trace_extension_without_a_format_is_one_error_line(tmp_path,
                                                           capsys):
    (tmp_path / "t.xyz").write_bytes(multi_tick_csv(3, b""))
    rc, err = run_config(tmp_path, capsys,
                         f"[scenario]\ntrace = {tmp_path / 't.xyz'}\n"
                         f"out = {tmp_path / 'out'}\n")
    assert rc == 1
    assert err == f"error: cannot guess trace format of " \
                  f"{str(tmp_path / 't.xyz')!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "t.xyz"]


# --- values shared across ticks, FCD without an element tree ---------------

def reference_parse_fcd(stream, default_length=5.0, default_width=1.8):
    """The ElementTree.iterparse reader that preceded the tree-less one,
    kept as the oracle: the reader must give equal ticks, float for float,
    and the same ticks before the same error."""
    return list(reference_fcd_ticks(stream, default_length, default_width))


def reference_fcd_ticks(stream, default_length=5.0, default_width=1.8):
    last_time = None
    last_bucket = None
    try:
        for _event, elem in ET.iterparse(stream, events=("end",)):
            if elem.tag != "timestep":
                continue
            raw = elem.get("time")
            if raw is None:
                raise SchemaError("timestep element without time attribute")
            try:
                t = float(raw)
                bucket = int(math.floor(t))
            except (ValueError, OverflowError):
                raise ValidationError(
                    f"timestep time {raw!r} is not a finite number") from None
            if last_time is not None and t <= last_time:
                raise ValidationError(
                    f"non-monotonic timestamps: {t} after {last_time}")
            last_time = t
            if last_bucket is not None and bucket == last_bucket:
                elem.clear()
                continue
            last_bucket = bucket
            states = []
            for veh in elem:
                if veh.tag != "vehicle":
                    continue
                attrs = veh.attrib
                for required in ("id", "x", "y", "angle"):
                    if required not in attrs:
                        raise SchemaError(f"vehicle element missing "
                                          f"attribute {required!r}")
                try:
                    x = float(attrs["x"])
                    y = float(attrs["y"])
                    angle = float(attrs["angle"])
                    length = (float(attrs["length"]) if "length" in attrs
                              else default_length)
                    width = (float(attrs["width"]) if "width" in attrs
                             else default_width)
                except ValueError as exc:
                    raise ValidationError(
                        f"vehicle {attrs['id']!r}: {exc}") from None
                if not (0.0 * x * y * angle == 0.0 < length < math.inf
                        > width > 0.0):
                    raise ValidationError(
                        f"vehicle {attrs['id']!r}: non-finite value "
                        f"or non-positive dimensions")
                if not attrs["id"]:
                    raise ValidationError(
                        f"vehicle {attrs['id']!r}: empty vehicle id")
                states.append(VehicleState(
                    attrs["id"], x, y,
                    normalize_angle(math.radians(90.0 - angle)),
                    length, width))
            seen = set()
            for s in states:
                if s.id in seen:
                    raise ValidationError(
                        f"tick {bucket}: duplicate vehicle id {s.id!r}")
                seen.add(s.id)
            elem.clear()
            yield TraceTick(bucket, tuple(states))
    except ET.ParseError as exc:
        raise TraceParseError(str(exc), line=exc.position[0]) from exc


def outcome(ticks):
    """(float reprs of the ticks read before any error, error class and
    message or None)."""
    got = []
    try:
        for tt in ticks:
            got.append(tt)
    except SimError as exc:
        return float_reprs(got), (type(exc).__name__, str(exc))
    return float_reprs(got), None


# Each vehicle draws its next heading, length and width text from these:
# the same value written differently, 0.0 against -0.0, blank cells.
SPELLINGS = {
    "heading": ["1.5", "1.50", "15e-1", "0.0", "-0.0", "0", "-3.0",
                "7.25", "3.141592653589793"],
    "angle": ["90", "90.0", "9e1", "0.0", "-0.0", "1.5", "1.50", "15e-1",
              "-270", "450.5"],
    "dim": ["", "1.5", "1.50", "15e-1", "5.0", "5", "4.75"],
}


def vehicle_text(rng, last, keys):
    """Repeat last tick's text (most of the time), change some of its
    values, or draw all of them anew."""
    if last is None or rng.random() < 0.2:
        return tuple(rng.choice(SPELLINGS[k]) for k in keys)
    if rng.random() < 0.5:
        return last
    return tuple(v if rng.random() < 0.5 else rng.choice(SPELLINGS[k])
                 for v, k in zip(last, keys))


def random_rows(rng, keys):
    """[(tick, [(id, x, y, text)...])...]: vehicles that keep, change and
    respell their text, and that skip a tick now and then."""
    ticks = []
    last: dict[str, tuple] = {}
    tick = rng.randrange(3)
    for _ in range(rng.randrange(2, 9)):
        rows = []
        for n in range(rng.randrange(1, 8)):
            vid = f"v{n}"
            if rng.random() < 0.15:  # absent this tick
                last.pop(vid, None)
                continue
            last[vid] = vehicle_text(rng, last.get(vid), keys)
            rows.append((vid, repr(rng.uniform(-1e3, 1e3)),
                         rng.choice(["0.0", "-0.0", "12.5"]), last[vid]))
        rng.shuffle(rows)
        ticks.append((tick, rows))
        tick += rng.randrange(1, 3)
    return ticks


def random_shared_csv(rng):
    lines = [",".join(CSV_COLUMNS)]
    for tick, rows in random_rows(rng, ("heading", "dim", "dim")):
        for vid, x, y, (heading, length, width) in rows:
            lines.append(",".join([str(tick), vid, x, y, heading, length,
                                   width]))
    return "\n".join(lines) + "\n"


def random_shared_fcd(rng):
    parts = ["<fcd-export>"]
    for tick, rows in random_rows(rng, ("angle", "dim", "dim")):
        for time in [str(tick), f"{tick}.5"][:rng.randrange(1, 3)]:
            parts.append(f'  <timestep time="{time}">')
            for vid, x, y, (angle, length, width) in rows:
                dims = "".join(f' {k}="{v}"'
                               for k, v in (("length", length),
                                            ("width", width)) if v)
                parts.append(f'    <vehicle id="{vid}" x="{x}" y="{y}" '
                             f'angle="{angle}"{dims}/>')
            parts.append("  </timestep>")
    parts.append("</fcd-export>")
    return "\n".join(parts) + "\n"


# odd seeds use defaults that SPELLINGS also writes out, so a missing or
# blank dimension and an explicit one can read as the same value or not
DEFAULTS = ({"default_length": 5.0, "default_width": 1.8},
            {"default_length": 4.75, "default_width": 1.5})


def test_shared_csv_matches_oracle():
    for seed in range(300):
        doc = random_shared_csv(random.Random(seed))
        defaults = DEFAULTS[seed % 2]
        want = reference_parse_csv(io.StringIO(doc), **defaults)
        got = read_trace(doc, "csv", **defaults)
        assert float_reprs(got) == float_reprs(want), (seed, doc)


def test_shared_fcd_matches_oracle():
    for seed in range(300):
        doc = random_shared_fcd(random.Random(seed))
        defaults = DEFAULTS[seed % 2]
        want = reference_parse_fcd(io.StringIO(doc), **defaults)
        got = read_trace(doc, "fcd", **defaults)
        assert float_reprs(got) == float_reprs(want), (seed, doc)


def assert_unchanged_values_shared(ticks, texts):
    """A vehicle's id is the same object as one tick earlier, and so is each
    of its heading, length and width whose text is unchanged; a changed
    heading is a new float.  Returns how many values were shared."""
    shared = 0
    for before, after in zip(ticks, ticks[1:]):
        old = {s.id: s for s in before.states}
        for s in after.states:
            o = old.get(s.id)
            if o is None:
                continue
            assert s.id is o.id
            for field, was, now in zip(("heading", "length", "width"),
                                       texts[before.tick][s.id],
                                       texts[after.tick][s.id]):
                if was == now:
                    shared += 1
                    assert getattr(s, field) is getattr(o, field), field
                elif field == "heading":
                    assert s.heading is not o.heading
    return shared


def test_unchanged_vehicle_values_are_the_same_objects():
    shared = 0
    for seed in range(50):
        rng = random.Random(seed)
        doc = random_shared_csv(rng)
        ticks = read_trace(doc, "csv")
        texts = {}
        for row in csv.DictReader(io.StringIO(doc)):
            texts.setdefault(int(row["tick"]), {})[row["id"]] = (
                row["heading"], row["length"], row["width"])
        shared += assert_unchanged_values_shared(ticks, texts)
    assert shared > 100


def test_unchanged_fcd_vehicle_values_are_the_same_objects():
    shared = 0
    for seed in range(50):
        doc = random_shared_fcd(random.Random(seed))
        ticks = read_trace(doc, "fcd")
        texts = {}
        last = None
        for elem in ET.fromstring(doc):
            bucket = math.floor(float(elem.get("time")))
            if bucket == last:
                continue
            last = bucket
            texts[bucket] = {v.get("id"): (v.get("angle"), v.get("length"),
                                           v.get("width")) for v in elem}
        shared += assert_unchanged_values_shared(ticks, texts)
    assert shared > 100


def test_zero_and_negative_zero_are_not_shared():
    doc = (",".join(CSV_COLUMNS) + "\n0,a,0,0,0.0,,\n1,a,0,0,-0.0,,\n"
           "2,a,0,0,-0.0,,\n3,a,0,0,0.0,,\n")
    headings = [repr(tt.states[0].heading) for tt in read_trace(doc, "csv")]
    assert headings == ["0.0", "-0.0", "-0.0", "0.0"]


def streamed(tmp_path, doc, name="t.xml"):
    """iter_trace over doc written to a file: the ticks come one by one,
    so the ones read before an error can be compared."""
    path = tmp_path / name
    path.write_text(doc)
    return iter_trace(str(path))


@pytest.mark.parametrize("value", ["nan", "abc"])
def test_shared_row_still_checks_position(tmp_path, value):
    doc = (f"{','.join(CSV_COLUMNS)}\n0,a,1,2,0.5,4,1.8\n"
           f"1,a,{value},2,0.5,4,1.8\n")
    with pytest.raises(ValidationError) as exc:
        read_trace(doc, "csv")
    assert str(exc.value).startswith("row 3: ")
    fcd = fcd_doc().replace("</fcd-export>", "") + (
        f'<timestep time="1"><vehicle id="a" x="{value}" y="-2.0" '
        f'angle="90" length="4.0" width="1.8"/></timestep></fcd-export>')
    got = outcome(streamed(tmp_path, fcd))
    assert got == outcome(reference_fcd_ticks(io.StringIO(fcd)))
    assert len(got[0]) == 1 and got[1][0] == "ValidationError"


V = '<vehicle id="a" x="1" y="2" angle="3"/>'
ODD_FCD = {
    "empty": "",
    "blank": "   ",
    "default-namespace": f'<f xmlns="u"><timestep time="0">{V}</timestep></f>',
    "prefixed": f'<f xmlns:p="u"><p:timestep time="0">{V}</p:timestep>'
                f'<timestep time="1"><p:vehicle id="b" x="1" y="1" '
                f'angle="0"/>{V}</timestep></f>',
    "unbound-prefix": f'<f><p:timestep time="0">{V}</p:timestep></f>',
    "prefixed-time": f'<f xmlns:p="u"><timestep p:time="0">{V}</timestep></f>',
    "prefixed-id": f'<f xmlns:p="u"><timestep time="0"><vehicle p:id="a" '
                   f'id="b" x="1" y="2" angle="3"/></timestep></f>',
    "attlist-default": f'<!DOCTYPE f [<!ATTLIST vehicle length CDATA "9">]>'
                       f'<f><timestep time="0">{V}</timestep></f>',
    "internal-entity": '<!DOCTYPE f [<!ENTITY e "7">]><f><timestep time="0">'
                       '<vehicle id="a&e;" x="&e;" y="2" angle="3"/>'
                       '</timestep></f>',
    "undefined-entity": f'<f><timestep time="0">&foo;{V}</timestep></f>',
    "undefined-entity-attr": '<f><timestep time="0"><vehicle id="&foo;" '
                             'x="1" y="2" angle="3"/></timestep></f>',
    "external-dtd-entity": f'<!DOCTYPE f SYSTEM "x.dtd"><f>'
                           f'<timestep time="0">&foo;{V}</timestep></f>',
    "external-dtd-entity-attr": '<!DOCTYPE f SYSTEM "x.dtd"><f><timestep '
                                'time="0"><vehicle id="&foo;" x="1" y="2" '
                                'angle="3"/></timestep></f>',
    "external-entity": f'<!DOCTYPE f [<!ENTITY e SYSTEM "e.xml">]><f>'
                       f'<timestep time="0">&e;{V}</timestep></f>',
    "parameter-entity": f'<!DOCTYPE f [<!ENTITY % p "x"> %p;]><f>'
                        f'<timestep time="0">&foo;{V}</timestep></f>',
    "predefined-entities": f'<!DOCTYPE f><f><timestep time="0">&amp;&#65;'
                           f'{V}<vehicle id="&lt;b" x="1" y="2" angle="3"/>'
                           f'</timestep></f>',
    "nested-timesteps": f'<f><timestep time="0"><timestep time="1">{V}'
                        f'</timestep>{V}</timestep><timestep time="2"><x>{V}'
                        f'</x></timestep></f>',
    "nested-later": f'<f><timestep time="5"><timestep time="1">{V}'
                    f'</timestep></timestep></f>',
    "vehicle-in-vehicle": '<f><timestep time="0"><vehicle id="a" x="1" y="2" '
                          f'angle="3">{V}</vehicle></timestep></f>',
    "timestep-root": f'<timestep time="0">{V}</timestep>',
    "junk-after-root": f'<f><timestep time="0">{V}</timestep></f><x/>',
    "truncated-in-timestep": f'<f><timestep time="0">{V}</timestep>'
                             f'<timestep time="1">{V}',
    "truncated-root": f'<f><timestep time="0">{V}</timestep>',
    "bad-time-then-syntax": f'<f><timestep>{V}</timestep><<</f>',
    "bad-vehicle-then-syntax": '<f><timestep time="0"><vehicle id="a" x="q" '
                               'y="2" angle="3"/></timestep><<</f>',
    "syntax-inside-bad-timestep": f'<f><timestep>{V}<<</timestep></f>',
    "bad-vehicle-dropped": f'<f><timestep time="0">{V}</timestep><timestep '
                           f'time="0.5"><vehicle id="a"/></timestep></f>',
    "latin-1-declaration": f'<?xml version="1.0" encoding="latin-1"?><f>'
                           f'<timestep time="0">{V}</timestep></f>',
    "comments-pi-cdata": f'<!-- c --><?pi x?><f><!--c--><timestep time="0">'
                         f'<?p?>{V}<![CDATA[x]]></timestep></f>',
    "duplicate-attribute": f'<f><timestep time="0" time="1">{V}</timestep></f>',
    "mismatched-tag": "<f>\n<timestep time='0'>\n</f>",
}


@pytest.mark.parametrize("name", sorted(ODD_FCD))
def test_fcd_odd_documents_match_oracle(tmp_path, name):
    doc = ODD_FCD[name]
    assert (outcome(streamed(tmp_path, doc))
            == outcome(reference_fcd_ticks(io.StringIO(doc))))


def long_fcd(n_steps, n_vehicles=20, seed=0):
    rng = random.Random(seed)
    parts = ["<fcd-export>"]
    for t in range(n_steps):
        parts.append(f'<timestep time="{t}.00">')
        for n in range(n_vehicles):
            parts.append(f'<vehicle id="veh{n}" x="{rng.uniform(0, 1e3):.2f}" '
                         f'y="{rng.uniform(0, 1e3):.2f}" angle="{n % 7 * 45}" '
                         f'length="4.5" width="1.8"/>')
        parts.append("</timestep>")
    parts.append("</fcd-export>")
    return "\n".join(parts) + "\n"


def test_fcd_broken_across_chunks_matches_oracle(tmp_path):
    # documents of several 16 KiB chunks, cut or corrupted at random
    # points: the same ticks come before the same error
    rng = random.Random(4)
    doc = long_fcd(60)
    assert len(doc) > 4 * 16 * 1024
    for case in range(40):
        at = rng.randrange(len(doc))
        broken = (doc[:at] if case % 2 else
                  doc[:at] + rng.choice(["<<", "</x>", "&bad;", '"']) + doc[at:])
        assert (outcome(streamed(tmp_path, broken))
                == outcome(reference_fcd_ticks(io.StringIO(broken)))), at


def fcd_streaming_peak(path):
    gc.collect()
    tracemalloc.start()
    try:
        for _tt in iter_trace(str(path)):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fcd_streaming_memory_is_flat(tmp_path):
    # Six vehicles a timestep keeps the test short.  Not 20: CPython 3.11
    # keeps up to 2,000 freed 20-item tuples on a free list it never takes
    # from, which tracemalloc shows as up to 400 KB of growth no parser holds.
    n = 400
    paths = {}
    for steps in (n, 4 * n):
        paths[steps] = tmp_path / f"t{steps}.xml"
        paths[steps].write_text(long_fcd(steps, 6))
    fcd_streaming_peak(paths[n])  # warm up lazy imports and caches
    short, long = fcd_streaming_peak(paths[n]), fcd_streaming_peak(paths[4 * n])
    assert long <= 1.25 * short, (short, long)


# --- tick range ------------------------------------------------------------

@pytest.mark.parametrize("tick", [-1, 2 ** 32])
def test_cli_tick_outside_wire_range(tmp_path, capsys, tick):
    # the wire's gen_tick is a u32; such a tick used to reach the encoder
    rows = f"{tick},a,1,2,0,4,1.8\n{tick},b,5,2,0,4,1.8\n"
    rc, err, out_dir = cli_run(tmp_path, capsys, "t.csv",
                               ",".join(CSV_COLUMNS).encode() + b"\n"
                               + rows.encode())
    assert_failed_cleanly(tmp_path, rc, err, out_dir)
    assert f"row 2: tick {tick} is outside 0..{2 ** 32 - 1}" in err


def test_csv_tick_range_bounds():
    head = ",".join(CSV_COLUMNS) + "\n"
    top = 2 ** 32 - 1
    ticks = read_trace(f"{head}0,a,1,2,0,4,1.8\n"
                       f"{top},a,1,2,0,4,1.8\n", "csv")
    assert [tt.tick for tt in ticks] == [0, top]
    with pytest.raises(ValidationError, match=r"row 3: tick 4294967296 "):
        read_trace(f"{head}0,a,1,2,0,4,1.8\n"
                   f"{top + 1},a,1,2,0,4,1.8\n", "csv")


@pytest.mark.parametrize("time, tick", [("-0.5", -1), ("4294967296.0", 2 ** 32)])
def test_fcd_tick_outside_wire_range(time, tick):
    doc = (f'<fcd-export><timestep time="{time}">'
           f'<vehicle id="a" x="0" y="0" angle="0"/></timestep></fcd-export>')
    with pytest.raises(ValidationError,
                       match=f"timestep time '{time}': tick {tick} is outside"):
        read_trace(doc, "fcd")
    top = '<fcd-export><timestep time="4294967295.9"/></fcd-export>'
    assert [tt.tick for tt in read_trace(top, "fcd")] == [2 ** 32 - 1]
