import csv
import io
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evfusion.errors import ContractError, NumericError, ParseError, ValidationError
from evfusion.events import (DIRECTIONS, SHAPES, EventStream, MotionClass,
                             SynthSpec, VideoClip, event_counts,
                             parse_events_csv, parse_events_binary,
                             render_motion_clip, simulate_dvs, stack_events,
                             synth_dataset, write_events_binary,
                             write_events_csv)


def make_stream(rows, resolution=(8, 8)):
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    return EventStream(resolution, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def random_stream(rng, n, resolution=(16, 12), t_max=100_000):
    w, h = resolution
    s = EventStream(resolution,
                    rng.integers(0, w, n), rng.integers(0, h, n),
                    rng.integers(0, t_max, n), rng.integers(0, 2, n))
    return s.sorted_by_time()


# -- parsing ----------------------------------------------------------------

def test_parse_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y,t,p\n")
    stream = parse_events_csv(path, (8, 8))
    assert len(stream) == 0


def test_parse_csv_sorts_by_timestamp(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("x,y,t,p\n3,4,100,1\n3,4,50,0\n")
    stream = parse_events_csv(path, (8, 8))
    assert stream.t.tolist() == [50, 100]
    assert stream.p.tolist() == [0, 1]


def test_parse_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,t,p\n1,2,3,1\nnope,2,3,1\n")
    with pytest.raises(ParseError, match=":3"):
        parse_events_csv(path, (8, 8))


def test_parse_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n")
    with pytest.raises(ParseError, match="header"):
        parse_events_csv(path, (8, 8))


def test_parse_csv_out_of_range_coordinate(tmp_path):
    path = tmp_path / "oob.csv"
    path.write_text("x,y,t,p\n9,0,1,1\n")
    with pytest.raises(ValidationError):
        parse_events_csv(path, (8, 8))


def test_csv_roundtrip_10k_events(tmp_path):
    rng = np.random.default_rng(42)
    stream = random_stream(rng, 10_000)
    path = tmp_path / "events.csv"
    write_events_csv(stream, path)
    back = parse_events_csv(path, stream.resolution)
    for field in ("x", "y", "t", "p"):
        assert np.array_equal(getattr(stream, field), getattr(back, field))


def test_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    stream = random_stream(rng, 5_000)
    path = tmp_path / "events.bin"
    write_events_binary(stream, path)
    back = parse_events_binary(path)
    assert back.resolution == stream.resolution
    for field in ("x", "y", "t", "p"):
        assert np.array_equal(getattr(stream, field), getattr(back, field))


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ParseError, match="magic"):
        parse_events_binary(path)


def test_binary_truncated(tmp_path):
    rng = np.random.default_rng(1)
    stream = random_stream(rng, 10)
    path = tmp_path / "trunc.bin"
    write_events_binary(stream, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ParseError):
        parse_events_binary(path)


def test_parse_csv_malformed_row_after_blank_line_reports_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,t,p\n1,2,3,1\n\n\n2,2,4,0\n1,x,5,1\n")
    with pytest.raises(ParseError, match=r"bad\.csv:6: malformed row"):
        parse_events_csv(path, (8, 8))


@pytest.mark.parametrize("row", ["1,2,3", "1,2,3,1,5"])
@pytest.mark.parametrize("first", [True, False])
def test_parse_csv_wrong_field_count(tmp_path, row, first):
    path = tmp_path / "bad.csv"
    body = [row, "1,2,3,1"] if first else ["1,2,3,1", row]
    path.write_text("x,y,t,p\n" + "\n".join(body) + "\n")
    with pytest.raises(ParseError, match=f":{2 if first else 3}: malformed"):
        parse_events_csv(path, (8, 8))


def test_parse_csv_all_rows_three_fields(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,t,p\n1,2,3\n1,2,4\n")
    with pytest.raises(ParseError, match=":2: malformed"):
        parse_events_csv(path, (8, 8))


def test_parse_csv_polarity_two_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,t,p\n1,2,3,1\n\n1,2,4,2\n")
    with pytest.raises(ParseError, match=":4: polarity"):
        parse_events_csv(path, (8, 8))


def test_parse_csv_no_trailing_newline_and_crlf(tmp_path):
    path = tmp_path / "e.csv"
    path.write_bytes(b"x,y,t,p\r\n1,2,30,1\r\n\r\n3,4,10,0")
    stream = parse_events_csv(path, (8, 8))
    assert stream.t.tolist() == [10, 30]
    assert stream.x.dtype == np.int64


def test_parse_csv_header_only_is_empty_without_warning(tmp_path):
    for body in ("x,y,t,p\n", "x,y,t,p", "x,y,t,p\n\n\n"):
        path = tmp_path / "e.csv"
        path.write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream = parse_events_csv(path, (8, 8))
        assert len(stream) == 0
        assert all(getattr(stream, f).dtype == np.int64 for f in "xytp")


def test_parse_csv_quoted_fields_rejected(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text('x,y,t,p\n"1",2,3,1\n')
    with pytest.raises(ParseError, match=":2: malformed"):
        parse_events_csv(path, (8, 8))


@pytest.mark.parametrize("row", [b"\xff\xfe,1,1,1", "1\U000596bc,2,3,1".encode(),
                                 "\U000596bc,2,3,1".encode(), "１,2,3,1".encode()])
def test_parse_csv_non_ascii_rejected(tmp_path, row):
    # not UTF-8, or UTF-8 characters that numpy's integer parser misreads
    path = tmp_path / "bin.csv"
    path.write_bytes(b"x,y,t,p\n" + row + b"\n")
    with pytest.raises(ParseError, match="not ASCII"):
        parse_events_csv(path, (8, 8))


_CSV_ISH = st.text(alphabet="0123456789,-+ .x\"#\t\r\n\x00", max_size=120)


@settings(max_examples=300, deadline=None)
@given(body=st.one_of(st.binary(max_size=120), _CSV_ISH.map(str.encode),
                     st.text(max_size=60).map(str.encode)))
def test_parse_csv_fuzz_only_typed_errors(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("fuzz") / "e.csv"
    path.write_bytes(b"x,y,t,p\n" + body)
    try:
        stream = parse_events_csv(path, (8, 8))
    except (ParseError, ValidationError):
        return
    assert all(getattr(stream, f).dtype == np.int64 for f in "xytp")


_RECORD = st.one_of(  # one packed (x, y, t, p) record
    st.binary(min_size=13, max_size=13),
    st.builds(lambda x, y, t, p: struct.pack("<HHqB", x, y, t, p),
              st.integers(0, 9), st.integers(0, 9),
              st.integers(-2**63, 2**63 - 1), st.sampled_from([0, 1, 1, 2])))


@st.composite
def _binary_events_ish(draw):
    """A header that mostly parses, a record count that mostly matches, and
    records with in- and out-of-range pixels, polarities and timestamps."""
    records = draw(st.lists(_RECORD, max_size=6))
    count = draw(st.one_of(st.just(len(records)), st.integers(0, 2**32 - 1)))
    header = struct.pack("<4sHHHI2x", draw(st.sampled_from([b"EVST", b"EVST", b"EVSU"])),
                         draw(st.sampled_from([1, 1, 1, 0, 2])),
                         draw(st.one_of(st.integers(0, 10), st.integers(0, 2**16 - 1))),
                         draw(st.one_of(st.integers(0, 10), st.integers(0, 2**16 - 1))),
                         count)
    tail = draw(st.one_of(st.just(b""), st.binary(max_size=3)))
    return header + b"".join(records) + tail


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=80), _binary_events_ish()))
def test_parse_binary_fuzz_only_typed_errors(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "e.bin"
    path.write_bytes(raw)
    try:
        stream = parse_events_binary(path)
    except (ParseError, ValidationError):
        return
    assert all(getattr(stream, f).dtype == np.int64 for f in "xytp")
    assert np.all(np.diff(stream.t) >= 0)


def reference_csv_bytes(stream):
    """What csv.writer wrote before write_events_csv formatted rows itself."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["x", "y", "t", "p"])
    for x, y, t, p in zip(stream.x, stream.y, stream.t, stream.p):
        writer.writerow([int(x), int(y), int(t), int(p)])
    return buf.getvalue().encode()


def test_write_csv_matches_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(3)
    big = EventStream((16, 12), rng.integers(0, 16, 500), rng.integers(0, 12, 500),
                      rng.integers(-10**15, 10**15, 500), rng.integers(0, 2, 500))
    for stream in (random_stream(rng, 2_000), big, EventStream((4, 4))):
        path = tmp_path / "e.csv"
        write_events_csv(stream, path)
        assert path.read_bytes() == reference_csv_bytes(stream)


# -- stacking ---------------------------------------------------------------

def test_stack_empty_stream_all_zero():
    stream = EventStream((4, 4))
    seq = stack_events(stream, [0, 100, 200], (4, 4))
    assert len(seq.frames) == 3
    for f in seq.frames:
        assert np.array_equal(f, np.zeros((2, 4, 4)))


def test_stack_single_on_event_normalizes_to_one():
    stream = make_stream([[2, 3, 150, 1]], (4, 4))
    seq = stack_events(stream, [0, 100, 200], (4, 4))
    on, off = seq.frames[1]
    assert on[3, 2] == 1.0
    assert on.sum() == 1.0 and off.sum() == 0.0
    assert seq.frames[0].sum() == 0.0 and seq.frames[2].sum() == 0.0


def test_stack_boundary_assignment():
    # before first -> frame 0; exactly at a timestamp -> that frame;
    # after last -> last frame
    stream = make_stream([[0, 0, -5, 1], [1, 0, 100, 1], [2, 0, 999, 0]], (4, 4))
    counts = event_counts(stream, [0, 100, 200], (4, 4))
    assert counts[0, 0, 0, 0] == 1
    assert counts[1, 0, 0, 1] == 1
    assert counts[2, 1, 0, 2] == 1


def test_stack_counts_match_brute_force():
    rng = np.random.default_rng(99)
    stream = random_stream(rng, 1000, resolution=(10, 9))
    ts = np.array([10_000, 40_000, 70_000])
    counts = event_counts(stream, ts, (10, 9))
    expected = np.zeros_like(counts)
    for x, y, t, p in zip(stream.x, stream.y, stream.t, stream.p):
        j = 0
        for jj in range(len(ts)):
            if ts[jj] <= t:
                j = jj
        expected[j, 0 if p == 1 else 1, y, x] += 1
    assert np.array_equal(counts, expected)


def test_stack_count_conservation():
    rng = np.random.default_rng(5)
    stream = random_stream(rng, 4321)
    counts = event_counts(stream, [0, 30_000, 60_000], stream.resolution)
    assert counts.sum() == len(stream)


def test_stack_order_invariance_for_equal_timestamps():
    a = make_stream([[0, 0, 50, 1], [3, 3, 50, 0]], (4, 4))
    b = make_stream([[3, 3, 50, 0], [0, 0, 50, 1]], (4, 4))
    ca = event_counts(a, [0, 100], (4, 4))
    cb = event_counts(b, [0, 100], (4, 4))
    assert np.array_equal(ca, cb)


def test_stack_normalized_values_in_unit_interval_with_max_one():
    rng = np.random.default_rng(8)
    stream = random_stream(rng, 500, resolution=(6, 6))
    seq = stack_events(stream, [0, 50_000], (6, 6))
    for f in seq.frames:
        assert np.all(f >= 0.0) and np.all(f <= 1.0)
        if f.sum() > 0:
            assert f.max() == 1.0


def test_stack_empty_timestamps_rejected():
    with pytest.raises(ContractError):
        stack_events(EventStream((4, 4)), [], (4, 4))


def reference_event_counts(stream, clip_timestamps, resolution):
    """The np.add.at scatter event_counts replaced, kept as its reference."""
    ts = np.asarray(clip_timestamps, dtype=np.int64)
    w, h = resolution
    counts = np.zeros((ts.size, 2, h, w), dtype=np.int64)
    if len(stream):
        j = np.clip(np.searchsorted(ts, stream.t, side="right") - 1, 0, ts.size - 1)
        np.add.at(counts, (j, np.where(stream.p == 1, 0, 1), stream.y, stream.x), 1)
    return counts


@pytest.mark.parametrize("resolution,n", [((4, 4), 0), ((7, 3), 1), ((7, 3), 900),
                                          ((3, 11), 2000), ((1, 1), 50)])
def test_event_counts_match_add_at_reference(resolution, n):
    rng = np.random.default_rng(n)
    # timestamps reach before the first and past the last clip timestamp
    stream = random_stream(rng, n, resolution=resolution, t_max=120_000)
    ts = [10_000, 40_000, 70_000, 100_000]
    got = event_counts(stream, ts, resolution)
    want = reference_event_counts(stream, ts, resolution)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == (4, 2, resolution[1], resolution[0])
    assert np.array_equal(got, want)
    if n >= 900:
        assert stream.t.min() < ts[0] and stream.t.max() > ts[-1]
        assert got[:, 0].sum() > 0 and got[:, 1].sum() > 0  # both polarities


# -- DVS simulation ---------------------------------------------------------

def constant_clip(value, n_frames=4, size=4):
    frames = [np.full((size, size, 3), value) for _ in range(n_frames)]
    return VideoClip(frames, np.arange(n_frames) * 1000)


def test_simulate_dvs_constant_clip_no_events():
    assert len(simulate_dvs(constant_clip(0.5), 0.1)) == 0


def test_simulate_dvs_needs_two_frames():
    with pytest.raises(ContractError):
        simulate_dvs(constant_clip(0.5, n_frames=1), 0.1)


def test_simulate_dvs_threshold_positive():
    with pytest.raises(ContractError):
        simulate_dvs(constant_clip(0.5), 0.0)


def test_simulate_dvs_step_closed_form():
    lo, hi = 0.1, 0.9
    delta = math.log(hi + 1e-3) - math.log(lo + 1e-3)
    f0 = np.full((2, 2, 3), lo)
    f1 = f0.copy()
    f1[1, 1] = hi
    clip = VideoClip([f0, f1], [0, 1000])
    # threshold above the change: nothing
    assert len(simulate_dvs(clip, delta * 1.01)) == 0
    # threshold at a third of the change: exactly 3 ON events at that pixel
    stream = simulate_dvs(clip, delta / 3)
    assert len(stream) == 3
    assert np.all(stream.p == 1)
    assert np.all(stream.x == 1) and np.all(stream.y == 1)
    assert np.all((stream.t > 0) & (stream.t <= 1000))


def test_simulate_dvs_event_count_matches_floor_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        lo = rng.uniform(0.05, 0.5)
        hi = rng.uniform(0.5, 1.0)
        threshold = rng.uniform(0.05, 0.4)
        delta = abs(math.log(hi + 1e-3) - math.log(lo + 1e-3))
        f0 = np.full((1, 1, 3), lo)
        f1 = np.full((1, 1, 3), hi)
        stream = simulate_dvs(VideoClip([f0, f1], [0, 100]), threshold)
        assert len(stream) == math.floor(delta / threshold)


def test_simulate_dvs_polarity_antisymmetry():
    rng = np.random.default_rng(23)
    frames = [rng.uniform(0.1, 1.0, size=(4, 4, 3)) for _ in range(5)]
    ts = np.arange(5) * 1000
    fwd = simulate_dvs(VideoClip(frames, ts), 0.1)
    rev = simulate_dvs(VideoClip(frames[::-1], ts), 0.1)
    assert len(fwd) == len(rev)
    assert (fwd.p == 1).sum() == (rev.p == 0).sum()
    assert (fwd.p == 0).sum() == (rev.p == 1).sum()


def test_simulate_dvs_timestamps_sorted():
    rng = np.random.default_rng(31)
    frames = [rng.uniform(0.1, 1.0, size=(6, 6, 3)) for _ in range(4)]
    stream = simulate_dvs(VideoClip(frames, np.arange(4) * 500), 0.15)
    assert np.all(np.diff(stream.t) >= 0)


def reference_simulate_dvs(clip, threshold):
    """The per-pixel loop simulate_dvs replaced, kept as its reference."""
    h, w = clip.frames[0].shape[:2]
    xs, ys, ts, ps = [], [], [], []
    prev_log = np.log(clip.frames[0].mean(axis=2) + 1e-3)
    for i in range(1, len(clip)):
        cur_log = np.log(clip.frames[i].mean(axis=2) + 1e-3)
        delta = cur_log - prev_log
        ratio = np.abs(delta) / threshold
        near = np.ceil(ratio) - ratio < 1e-9
        n = np.where(near, np.ceil(ratio), np.floor(ratio)).astype(np.int64)
        t0, t1 = clip.timestamps[i - 1], clip.timestamps[i]
        for y, x in zip(*np.nonzero(n)):
            cnt, d = n[y, x], delta[y, x]
            frac = np.arange(1, cnt + 1) * threshold / abs(d)
            xs.append(np.full(cnt, x, np.int64))
            ys.append(np.full(cnt, y, np.int64))
            ts.append((t0 + frac * (t1 - t0)).astype(np.int64))
            ps.append(np.full(cnt, 1 if d > 0 else 0, np.int64))
        prev_log = cur_log
    if not xs:
        return EventStream((w, h))
    return EventStream((w, h), np.concatenate(xs), np.concatenate(ys),
                       np.concatenate(ts), np.concatenate(ps)).sorted_by_time()


def assert_streams_identical(a, b):
    assert a.resolution == b.resolution
    for f in "xytp":
        got, want = getattr(a, f), getattr(b, f)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()


def test_simulate_dvs_matches_per_pixel_reference():
    rng = np.random.default_rng(41)
    polarities = set()
    for trial in range(12):
        n_frames = int(rng.integers(4, 7))
        h, w = rng.integers(1, 12, size=2)
        frames = [rng.uniform(0.0, 1.0, size=(h, w, 3)) for _ in range(n_frames)]
        ts = np.cumsum(rng.integers(1, 50_000, n_frames))
        threshold = float(rng.uniform(0.05, 0.3))
        clip = VideoClip(frames, ts)
        got = simulate_dvs(clip, threshold)
        assert_streams_identical(got, reference_simulate_dvs(clip, threshold))
        per_pixel = np.bincount(got.y * w + got.x, minlength=h * w)
        assert per_pixel.max() > 1  # several events at some pixel
        polarities |= set(got.p.tolist())
    assert polarities == {0, 1}


def test_simulate_dvs_matches_reference_on_a_rendered_clip():
    spec = desk_spec(n_frames=3, oversample=4)
    rng = np.random.default_rng(5)
    for cls in spec.classes:
        clip = render_motion_clip(cls, spec, rng)
        assert len(clip) == 12
        got = simulate_dvs(clip, spec.dvs_threshold)
        assert len(got) > 0
        assert_streams_identical(got, reference_simulate_dvs(clip, spec.dvs_threshold))


@pytest.mark.parametrize("threshold", [1e-300, 1e-320])
def test_simulate_dvs_count_past_int64_is_a_numeric_error(threshold):
    clip = VideoClip([np.full((2, 2, 3), v) for v in (0.1, 0.9)], [0, 1000])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="past the int64 range"):
            simulate_dvs(clip, threshold)


def test_simulate_dvs_of_a_nan_frame_is_a_numeric_error():
    f1 = np.full((2, 2, 3), 0.5)
    f1[0, 1, 2] = np.nan
    with pytest.raises(NumericError):
        simulate_dvs(VideoClip([np.full((2, 2, 3), 0.5), f1], [0, 1000]), 0.1)


def test_simulate_dvs_matches_reference_on_1x1_and_constant_clips():
    one = VideoClip([np.full((1, 1, 3), v) for v in (0.1, 0.9, 0.2, 0.2)],
                    [0, 10, 25, 40])
    for clip in (one, constant_clip(0.5)):
        assert_streams_identical(simulate_dvs(clip, 0.1),
                                 reference_simulate_dvs(clip, 0.1))
    assert len(simulate_dvs(one, 0.1)) > 2


# -- synthetic dataset ------------------------------------------------------

def desk_spec(**kw):
    classes = [
        MotionClass("square moving right", "square", "right"),
        MotionClass("square moving left", "square", "left"),
        MotionClass("disc moving up", "disc", "up"),
        MotionClass("disc moving down", "disc", "down"),
    ]
    defaults = dict(classes=classes, samples_per_class=2, resolution=(24, 24),
                    n_frames=3)
    defaults.update(kw)
    return SynthSpec(**defaults)


def test_synth_deterministic_in_seed():
    a = synth_dataset(desk_spec(), seed=11)
    b = synth_dataset(desk_spec(), seed=11)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.label == sb.label
        assert np.array_equal(sa.events.t, sb.events.t)
        assert np.array_equal(sa.events.x, sb.events.x)
        for fa, fb in zip(sa.clip.frames, sb.clip.frames):
            assert np.array_equal(fa, fb)


def test_synth_per_class_counts():
    samples = synth_dataset(desk_spec(samples_per_class=3), seed=0)
    labels = [s.label for s in samples]
    assert all(labels.count(c) == 3 for c in range(4))


def test_synth_rightward_motion_statistic():
    samples = synth_dataset(desk_spec(), seed=3)
    rightward = [s for s in samples if s.label == 0]
    for s in rightward:
        on = s.events.p == 1
        t_mid = (s.events.t.min() + s.events.t.max()) / 2
        early = s.events.x[on & (s.events.t < t_mid)]
        late = s.events.x[on & (s.events.t >= t_mid)]
        assert late.mean() > early.mean()


def test_synth_requires_two_classes():
    with pytest.raises(ContractError):
        SynthSpec(classes=[MotionClass("x", "square", "left")],
                  samples_per_class=1, resolution=(8, 8), n_frames=2)


def test_synth_static_rgb_frames_identical_across_classes():
    spec = desk_spec(static_rgb=True)
    samples = synth_dataset(spec, seed=2)
    ref = samples[0].clip.frames[0]
    for s in samples:
        for f in s.clip.frames:
            assert np.array_equal(f, ref)
        assert len(s.events) > 0  # events keep the motion signal


def reference_render_motion_clip(cls, spec, rng):
    """The per-frame _draw_shape loop render_motion_clip replaced, kept as
    its reference."""
    w, h = spec.resolution
    k = max(2, spec.n_frames * spec.oversample)
    dt = spec.frame_interval_us // spec.oversample
    size = min(w, h) / 6.0 + rng.uniform(-0.5, 0.5)
    dx, dy = {"left": (-1.0, 0.0), "right": (1.0, 0.0),
              "up": (0.0, -1.0), "down": (0.0, 1.0)}[cls.direction]
    travel = min(w, h) * 0.5
    cx0 = w / 2.0 - dx * travel / 2.0 + rng.uniform(-2.0, 2.0)
    cy0 = h / 2.0 - dy * travel / 2.0 + rng.uniform(-2.0, 2.0)
    base = {"square": (0.95, 0.35, 0.25), "disc": (0.30, 0.90, 0.35),
            "bar": (0.30, 0.40, 0.95)}[cls.shape]
    tint = rng.uniform(-0.04, 0.04)
    color = tuple(float(np.clip(c + tint, 0.0, 1.0)) for c in base)

    def draw_shape(canvas, cx, cy):
        yy, xx = np.mgrid[0:h, 0:w]
        if cls.shape == "square":
            mask = (np.abs(xx - cx) <= size) & (np.abs(yy - cy) <= size)
        elif cls.shape == "disc":
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= size**2
        else:
            mask = (np.abs(xx - cx) <= size / 2) & (np.abs(yy - cy) <= 2 * size)
        canvas[mask] = color

    frames = []
    for i in range(k):
        frac = i / (k - 1)
        canvas = np.full((h, w, 3), 0.12)
        draw_shape(canvas, cx0 + dx * travel * frac, cy0 + dy * travel * frac)
        frames.append(canvas)
    return VideoClip(frames, np.arange(k, dtype=np.int64) * dt)


@pytest.mark.parametrize("resolution", [(32, 32), (20, 14), (1, 1)])
@pytest.mark.parametrize("oversample", [1, 4])
def test_render_motion_clip_matches_per_frame_reference(resolution, oversample):
    for seed, (shape, direction) in enumerate(
            (s, d) for s in SHAPES for d in DIRECTIONS):
        cls = MotionClass(f"{shape} {direction}", shape, direction)
        spec = desk_spec(resolution=resolution, oversample=oversample)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = render_motion_clip(cls, spec, got_rng)
        want = reference_render_motion_clip(cls, spec, want_rng)
        assert got.timestamps.tobytes() == want.timestamps.tobytes()
        assert len(got.frames) == len(want.frames) == 3 * oversample
        for g, r in zip(got.frames, want.frames):
            assert g.dtype == r.dtype == np.float64 and g.shape == r.shape
            assert g.tobytes() == r.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        if min(resolution) > 1:
            assert any(np.any(f != 0.12) for f in got.frames)  # a shape was drawn
