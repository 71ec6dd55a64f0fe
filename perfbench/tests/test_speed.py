import time
from pathlib import Path

import numpy as np

import run
import speed


def test_factor_takes_the_chunks_of_its_interval():
    meter = speed.Speedometer(Path("unused"), {})
    meter.t = np.arange(200.0)
    meter.cpu = np.where(meter.t < 100, 1.0, 2.0) * speed.NOMINAL_S
    assert meter.factor(0.0, 99.0) == 1.0
    assert meter.factor(100.0, 199.0) == 2.0
    # fewer chunks than MIN_SAMPLES inside: the nearest ones decide
    assert meter.factor(150.2, 150.4) == 2.0


def test_factor_without_samples_is_nan():
    assert np.isnan(speed.Speedometer(Path("unused"), {}).factor(0.0, 1.0))


def test_speedometer_records_and_stops(tmp_path):
    with speed.Speedometer(tmp_path / "speed.bin", run.child_env()) as meter:
        time.sleep(0.5)
    assert meter.proc.returncode == 0
    assert meter.t.size >= 10 and np.all(np.diff(meter.t) > 0)
    assert 0.05 < meter.factor(meter.t[0], meter.t[-1]) < 20


def test_each_time_is_divided_by_the_factor_of_its_own_interval():
    meter = speed.Speedometer(Path("unused"), {})
    meter.t = np.arange(0.0, 10.0, 0.01)
    meter.cpu = np.where(meter.t < 2.0, 2.0, 4.0) * speed.NOMINAL_S
    op = {"failed": False, "t0": 1.0, "pipeline_s": 4.5, "maxrss_kb": 2048,
          "stages": {"ingest": 1.0, "mfpca": 3.0}}
    setup = [{"wall_s": 0.5, "start": 0.2, "end": 0.7}]
    run.set_speed_factors(meter, setup, [op, {"failed": True}], exponents=(1.0, 0.5))
    assert op["stage_speed"] == {"ingest": 2.0, "mfpca": 4.0}
    assert op["nominal_stages"] == {"ingest": 0.5, "mfpca": 1.5}
    assert op["nominal_pipeline_s"] == 0.5 + 1.5 + 0.5 / 4.0
    nominal = run.end_to_end([op], setup, "ingest", nominal=True)
    assert nominal == {"pipeline_s": 2.125, "first_stage_s": 0.5, "mfpca_s": 1.5,
                       "peak_rss_mb": 2.0, "setup_s": 0.25}
    wall = run.end_to_end([op], setup, "ingest", nominal=False)
    assert wall == {"pipeline_s": 4.5, "first_stage_s": 1.0, "mfpca_s": 3.0,
                    "peak_rss_mb": 2.0, "setup_s": 0.5}
