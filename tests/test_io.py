import numpy as np

from wavenav.io import (CSV_HEADER, REPORT_HEADER, format_trajectory,
                        format_wave_log, pgm_bytes, report_row)
from wavenav.manifold import build_manifold
from wavenav.planner import PlanResult, StepRecord
from wavenav.runner import ScenarioOutputs


def small_result(m):
    records = [
        StepRecord(t=0, bump_center=m.index(5, 5), delta=(0.0, 0.0),
                   overlap_size=0, excitatory_spike_count=1,
                   wavefront_hit=False),
        StepRecord(t=1, bump_center=m.index(6, 5), delta=(1 / 41, 0.0),
                   overlap_size=3, excitatory_spike_count=8,
                   wavefront_hit=True),
    ]
    return PlanResult(outcome="reached", trajectory=records,
                      path=[(5, 5), (6, 5)], wavefronts_used=1)


def small_record(**extra):
    return ScenarioOutputs("demo", "reached", 2, 1, path_length=1.0, **extra)


def test_csv_schema():
    assert CSV_HEADER == ("t,bump_x,bump_y,delta_x,delta_y,"
                          "overlap_size,exc_spikes,wavefront_hit")
    assert REPORT_HEADER == ("scenario,outcome,steps,path_length,"
                             "bfs_length,ratio,wavefronts")


def test_format_trajectory():
    m = build_manifold(41, 41)
    text = format_trajectory(small_result(m).trajectory, m, small_record())
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,5,5,0,0,0,1,0"
    assert lines[2] == "1,6,5,0.0243902439,0,3,8,1"
    assert lines[3] == "# outcome=reached steps=2 wavefronts=1 path_length=1"
    assert text.endswith("\n")


def test_format_trajectory_is_deterministic():
    m = build_manifold(41, 41)
    r, record = small_result(m).trajectory, small_record()
    assert (format_trajectory(r, m, record).encode()
            == format_trajectory(r, m, record).encode())


def test_format_wave_log():
    text = format_wave_log([0, 1, 9], ScenarioOutputs("demo", "completed", 3, 0))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,,,,,,0,0"
    assert lines[3] == "2,,,,,,9,0"
    assert lines[4] == "# outcome=completed steps=3"


def test_pgm_header_and_payload():
    m = build_manifold(41, 33)
    data = pgm_bytes(None, None, m)
    header = b"P5\n41 33\n255\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 41 * 33
    assert set(data[len(header):]) == {0}


def test_pgm_encodes_spikes_blocked_and_activity():
    m = build_manifold(9, 9, obstacles=[(0, 0, 1, 1)])
    spikes = np.zeros(m.n, dtype=bool)
    spikes[m.index(5, 5)] = True
    activity = np.zeros(m.n)
    activity[m.index(7, 7)] = 0.04            # normalized to 1 -> 255
    activity[m.index(7, 6)] = 0.02            # half of max -> 128
    data = pgm_bytes(spikes, activity, m)
    pix = np.frombuffer(data, dtype=np.uint8,
                        offset=len(b"P5\n9 9\n255\n")).reshape(9, 9)
    assert pix[5, 5] == 255
    assert pix[7, 7] == 255
    assert pix[6, 7] == 128
    assert pix[0, 0] == 128 and pix[1, 1] == 128
    assert pix[4, 4] == 0


def reference_pgm_pixels(spikes_e, activity, m):
    """The float-image encoding pgm_bytes must reproduce byte for byte."""
    img = np.zeros(m.n)
    if activity is not None and activity.max() > 0:
        img = np.maximum(img, activity / activity.max())
    if spikes_e is not None:
        img = np.maximum(img, spikes_e.astype(float))
    pix = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    pix[m.blocked] = 128
    return pix.tobytes()


def test_pgm_bytes_match_the_float_image_encoding():
    rng = np.random.default_rng(7)
    for case in range(400):
        nx, ny = rng.integers(3, 61, size=2)
        walls = []
        if case % 2:
            x0, y0 = rng.integers(0, nx), rng.integers(0, ny)
            walls = [(x0, y0, rng.integers(x0, nx), rng.integers(y0, ny))]
        m = build_manifold(int(nx), int(ny), obstacles=walls)
        spikes = rng.random(m.n) < rng.random() if case % 3 else None
        # none, all zero, sparse, or dense at a random scale
        activity = [None, np.zeros(m.n),
                    rng.random(m.n) * (rng.random(m.n) < 0.3),
                    rng.random(m.n) * 10.0 ** rng.integers(-12, 3)][case % 4]
        header = f"P5\n{m.nx} {m.ny}\n255\n".encode("ascii")
        assert pgm_bytes(spikes, activity, m) == (
            header + reference_pgm_pixels(spikes, activity, m)), case


def test_report_row_with_and_without_oracle():
    row = report_row(small_record(optimum=2.0))
    assert row == "demo,reached,2,1.0000,2.0000,0.5000,1"
    row = report_row(ScenarioOutputs("demo", "bump_lost", 0, 0))
    assert row == "demo,bump_lost,0,,,,0"
