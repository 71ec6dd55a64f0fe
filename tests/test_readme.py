"""The README's examples run as written: the Library block and the CLI quickstart."""
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from catfpca.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def block(heading, language):
    """The first ``language`` code block below the README line ``heading``."""
    text = README.read_text(encoding="utf-8")
    below = text[text.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", below, re.S).group(1)


def test_library_example_gives_its_commented_values():
    code = block("## Library", "python")
    assert "result.eigenvalues          # (0.25,)" in code
    assert "result.scores               # +-0.5" in code
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(code, namespace)
    result = namespace["result"]
    assert tuple(result.eigenvalues) == pytest.approx((0.25,))
    assert sorted(result.scores.ravel()) == pytest.approx([-0.5, 0.5])
    assert [line.split()[0] for line in printed.getvalue().splitlines()] == ["s1/p", "s2/p"]


def quickstart():
    """The quickstart's catfpca commands, each as its arguments after ``catfpca``."""
    lines = block("## CLI", "bash").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("catfpca ")]


def write_events(path, mode, rng):
    """A small events file: 6 subjects x 2 products over a 40 s tasting, three descriptors.

    TDS items click after a latency; TCATA items have runs from t=0, runs
    left open to the end and overlapping runs of two descriptors.
    """
    rows = ["subject,product,descriptor,onset" + ("" if mode == "TDS" else ",offset")]
    for s in range(6):
        for p in range(2):
            key = f"s{s},p{p}"
            times = np.sort(rng.choice(np.arange(1, 40), size=5, replace=False)).tolist()
            if mode == "TDS":
                rows += [f"{key},{'ABC'[k % 3]},{t}" for k, t in enumerate(times)]
            else:
                rows += [f"{key},A,0,{times[0]}", f"{key},B,{times[1]},{times[3]}",
                         f"{key},C,{times[2]},{times[4]}", f"{key},A,{times[4]},"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_cli_quickstart_runs_as_written(tmp_path, monkeypatch, capsys, mode):
    monkeypatch.chdir(tmp_path)
    write_events(tmp_path / "events.csv", mode, np.random.default_rng(len(mode)))
    (tmp_path / "meta.json").write_text(json.dumps(
        {"mode": mode, "states": ["A", "B", "C"], "end_time": 40.0}))
    spec = json.loads(block("### Process specification (simulate)", "json"))
    if mode == "TCATA":
        spec["tcata"] = [{"off": {"dist": "exponential", "rate": 2.0},
                          "on": {"dist": "exponential", "rate": 3.0}}] * len(spec["states"])
    (tmp_path / "chain.json").write_text(json.dumps(spec))
    commands = quickstart()
    assert [argv[0] for argv in commands] == [
        "ingest", "validate", "mfpca", "simulate", "validate", "oracle-check"]
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        if argv[0] == "validate":
            checked = json.loads(capsys.readouterr().out)
            assert (checked["mode"], checked["violations"]) == (mode, [])
    assert json.loads(Path("results/result.json").read_text())["weights"]["scheme"] == (
        "trace_normalizing")
