import io
import math

import pytest
from hypothesis import given, strategies as st

from cavsim.errors import (ConfigError, SchemaError, TraceParseError,
                           ValidationError)
from cavsim.trace import (CSV_COLUMNS, TAU, TraceTick, VehicleState,
                          normalize_angle, parse_csv, parse_fcd, synth_traffic,
                          write_csv)

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
