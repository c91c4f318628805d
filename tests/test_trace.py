import csv
import io
import math
import random

import pytest
from hypothesis import given, strategies as st

from cavsim.errors import (ConfigError, SchemaError, TraceParseError,
                           ValidationError)
from cavsim.trace import (CSV_COLUMNS, TAU, TraceTick, VehicleState,
                          iter_trace, normalize_angle, parse_csv, parse_fcd,
                          synth_traffic, write_csv)

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
    assert parse_fcd(io.StringIO(FCD_EMPTY)) == []


def test_fcd_angle_conversion_east():
    ticks = parse_fcd(io.StringIO(FCD_ONE))
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
    (tick,) = parse_fcd(io.StringIO(doc))
    by_id = {s.id: s for s in tick.states}
    assert by_id["n"].heading == pytest.approx(math.pi / 2)
    assert by_id["s"].heading == pytest.approx(-math.pi / 2)
    assert by_id["w"].heading == pytest.approx(math.pi)


def test_fcd_non_monotonic_rejected():
    with pytest.raises(ValidationError):
        parse_fcd(io.StringIO(FCD_NON_MONOTONIC))


def test_fcd_malformed_reports_line():
    bad = "<fcd-export>\n<timestep time='0'>\n</fcd-export>"
    with pytest.raises(TraceParseError) as exc:
        parse_fcd(io.StringIO(bad))
    assert exc.value.line is not None
    assert "line" in str(exc.value)


def test_fcd_fractional_buckets_keep_first():
    doc = """<fcd-export>
      <timestep time="0.0"><vehicle id="a" x="1" y="0" angle="90"/></timestep>
      <timestep time="0.5"><vehicle id="a" x="2" y="0" angle="90"/></timestep>
      <timestep time="1.5"><vehicle id="a" x="3" y="0" angle="90"/></timestep>
    </fcd-export>"""
    ticks = parse_fcd(io.StringIO(doc))
    assert [t.tick for t in ticks] == [0, 1]
    assert ticks[0].states[0].x == 1.0
    assert ticks[1].states[0].x == 3.0


def test_fcd_explicit_dimensions_and_duplicate_id():
    doc = """<fcd-export><timestep time="0">
      <vehicle id="a" x="0" y="0" angle="0" length="7.5" width="2.5"/>
    </timestep></fcd-export>"""
    (tick,) = parse_fcd(io.StringIO(doc))
    assert tick.states[0].length == 7.5
    assert tick.states[0].width == 2.5
    dup = """<fcd-export><timestep time="0">
      <vehicle id="a" x="0" y="0" angle="0"/>
      <vehicle id="a" x="1" y="0" angle="0"/>
    </timestep></fcd-export>"""
    with pytest.raises(ValidationError):
        parse_fcd(io.StringIO(dup))


def test_fcd_missing_attribute():
    doc = """<fcd-export><timestep time="0">
      <vehicle id="a" x="0" y="0"/>
    </timestep></fcd-export>"""
    with pytest.raises(SchemaError) as exc:
        parse_fcd(io.StringIO(doc))
    assert "angle" in str(exc.value)


def test_csv_header_only():
    assert parse_csv(io.StringIO("tick,id,x,y,heading,length,width\n")) == []


def test_csv_single_row():
    ticks = parse_csv(io.StringIO(
        "tick,id,x,y,heading,length,width\n0,a,0,0,0,5,1.8\n"))
    assert ticks == [TraceTick(0, (VehicleState("a", 0.0, 0.0, 0.0, 5.0, 1.8),))]


def test_csv_heading_normalized():
    ticks = parse_csv(io.StringIO(
        "tick,id,x,y,heading,length,width\n0,a,0,0,7.0,5,1.8\n"))
    assert ticks[0].states[0].heading == 7.0 - TAU


def test_csv_missing_column_named():
    with pytest.raises(SchemaError) as exc:
        parse_csv(io.StringIO("tick,id,x,y,heading,length\n"))
    assert "width" in str(exc.value)


def test_csv_non_monotonic():
    body = "tick,id,x,y,heading,length,width\n2,a,0,0,0,5,2\n1,a,0,0,0,5,2\n"
    with pytest.raises(ValidationError):
        parse_csv(io.StringIO(body))


def test_csv_blank_dimensions_defaulted():
    ticks = parse_csv(io.StringIO(
        "tick,id,x,y,heading,length,width\n0,a,1,2,0,,\n"))
    s = ticks[0].states[0]
    assert s.length == 5.0 and s.width == 1.8


def test_csv_roundtrip_of_parsed_fcd():
    ticks = parse_fcd(io.StringIO(FCD_ONE))
    buf = io.StringIO()
    write_csv(ticks, buf)
    buf.seek(0)
    assert parse_csv(buf) == ticks


@given(st.integers(0, 2 ** 32), st.integers(0, 30), st.integers(0, 5))
def test_synth_roundtrip_and_headings(seed, n, ticks):
    trace = synth_traffic(seed, n, ticks, 500.0)
    assert len(trace) == ticks
    for tt in trace:
        for s in tt.states:
            assert -math.pi < s.heading <= math.pi
    buf = io.StringIO()
    write_csv(trace, buf)
    buf.seek(0)
    # vehicle-less ticks are not expressible in the row-based CSV schema
    assert parse_csv(buf) == [tt for tt in trace if tt.states]


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
    (tick,) = parse_csv(io.StringIO(csv_doc()))
    assert tick.states[0] == VehicleState("a", 1.5, -2.0, 0.5, 4.0, 1.8)
    (tick,) = parse_fcd(io.StringIO(fcd_doc()))
    assert (tick.states[0].x, tick.states[0].length) == (1.5, 4.0)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["x", "y", "heading", "length", "width"])
def test_csv_non_finite_rejected(column, value):
    with pytest.raises(ValidationError) as exc:
        parse_csv(io.StringIO(csv_doc(**{column: value})))
    assert "row 2" in str(exc.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("attr", ["x", "y", "angle", "length", "width"])
def test_fcd_non_finite_rejected(attr, value):
    with pytest.raises(ValidationError):
        parse_fcd(io.StringIO(fcd_doc(**{attr: value})))


@pytest.mark.parametrize("attr", ["x", "y", "angle", "length", "width"])
def test_fcd_non_numeric_rejected(attr):
    with pytest.raises(ValidationError) as exc:
        parse_fcd(io.StringIO(fcd_doc(**{attr: "abc"})))
    assert "'a'" in str(exc.value)


@pytest.mark.parametrize("time", ["abc", "", "nan", "inf"])
def test_fcd_bad_time_rejected(time):
    with pytest.raises(ValidationError) as exc:
        parse_fcd(io.StringIO(fcd_doc(time=time)))
    assert "time" in str(exc.value)


@pytest.mark.parametrize("name, doc", [
    ("t.csv", csv_doc(x="nan")),
    ("t.csv", csv_doc(width="inf")),
    ("t.xml", fcd_doc(y="nan")),
    ("t.xml", fcd_doc(time="soon")),
], ids=["csv-x-nan", "csv-width-inf", "fcd-y-nan", "fcd-time-text"])
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
        got = parse_csv(io.StringIO(doc))
        assert float_reprs(got) == float_reprs(want), (seed, doc)
        if seed % 20 == 0:
            path = tmp_path / f"t{seed}.csv"
            path.write_text(doc)
            streamed = iter_trace(str(path))
            assert float_reprs(streamed) == float_reprs(want)


def test_csv_padded_header_names():
    padded = "tick, id, x, y, heading, length, width\n0,a,1,2,0.5,4,1.8\n"
    plain = "tick,id,x,y,heading,length,width\n0,a,1,2,0.5,4,1.8\n"
    assert parse_csv(io.StringIO(padded)) == parse_csv(io.StringIO(plain))
    assert parse_csv(io.StringIO(padded))[0].states[0].x == 1.0


@pytest.mark.parametrize("row, count", [("0,b,1,2,0,4,1.8,EXTRA", 8),
                                        ("0,b,1,2,0,4", 6)],
                         ids=["extra", "short"])
def test_csv_field_count_must_match_header(row, count):
    doc = f"{','.join(CSV_COLUMNS)}\n0,a,1,2,0,4,1.8\n\n{row}\n"
    with pytest.raises(ValidationError) as exc:
        parse_csv(io.StringIO(doc))
    assert str(exc.value).startswith(f"row 4: {count} fields")


def test_csv_duplicate_column_rejected():
    with pytest.raises(SchemaError) as exc:
        parse_csv(io.StringIO(",".join(CSV_COLUMNS) + ",x\n"))
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
