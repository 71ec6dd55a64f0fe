import json
import shutil

import pytest

import validate


@pytest.fixture
def copy(tmp_path):
    def make(results):
        dst = tmp_path / "results"
        shutil.copytree(results, dst)
        return dst
    return make


def test_accepts_real_results(tds_results, sim_results):
    tds = validate.check_outputs(tds_results, "TDS")
    assert tds["n"] == 40 and tds["q"] == 3 and tds["m"] == 64 and tds["k"] == 4
    sim = validate.check_outputs(sim_results, "TCATA")
    assert sim["k"] == sim["R"] == 11


def test_rejects_perturbed_eigenvalue(copy, tds_results):
    results = copy(tds_results)
    res = json.loads((results / "result.json").read_text())
    res["eigenvalues"][1] *= 1.001
    (results / "result.json").write_text(json.dumps(res))
    with pytest.raises(validate.Invalid, match="total_variance"):
        validate.check_outputs(results, "TDS")


def test_rejects_rescaled_eigenfunction(copy, sim_results):
    results = copy(sim_results)
    path = results / "eigenfunctions.csv"
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        state, r, left, right, value = line.rstrip("\n").split(",")
        if r == "2":
            lines[i] = f"{state},{r},{left},{right},{float(value) * 1.01!r}\n"
    path.write_text("".join(lines))
    with pytest.raises(validate.Invalid, match="H-orthonormality"):
        validate.check_outputs(results, "TCATA")


@pytest.mark.parametrize("name", ["scores.csv", "eigenfunctions.csv", "bands.csv"])
def test_rejects_truncated_csv(copy, tds_results, name):
    results = copy(tds_results)
    path = results / name
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 40])
    with pytest.raises(validate.Invalid, match=name):
        validate.check_outputs(results, "TDS")


def test_rejects_tds_selection_count_off_one(copy, tds_results):
    results = copy(tds_results)
    path = results / "selection_count.csv"
    lines = path.read_text().splitlines(keepends=True)
    left, right, _ = lines[1].split(",")
    lines[1] = f"{left},{right},0.5\n"
    path.write_text("".join(lines))
    with pytest.raises(validate.Invalid, match="selection count"):
        validate.check_outputs(results, "TDS")
