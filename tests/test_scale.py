"""scripts/scale.py's reports stay byte-identical: the sha256 of the
`verify --json` report on each of its six inputs is pinned.  D(kC6) is
the largest double whose dual chain runs the integral twist; H_32 is the
input whose axiom grids the generator rows cut the most; laurent/w20 is
the widest Laurent window, whose triple grids run every row."""

import importlib.util
import json
import platform
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale.py"
PINNED = {
    "kC16": "c648559ddd271e048af2338f4f99c8b51eca2686a1e41a1e09b7e777c622e840",
    "D(kC5)": "ebb7404ca47eb28adf981b6e272a77211e280afc15cb53dce4d05e52799212da",
    "D(kC6)": "482a93266359b50761f538fa7aca06794fdfece7c1a14843d815a5c106e63103",
    "H_16/F_10007": "467d9d28db4829cc3ba959514bfb7f73246660942789a0df25ac64b8b5ddc54d",
    "H_32/F_10007": "9b7b93693c94d97895d55f35be97e17211d21712891476eb24ffa788613ebfc8",
    "laurent/w20": "7a2cce8cb58ffdb8a8e92caba4f7157f876d0a7eebd1f62193b4751f25a6c915",
}


@pytest.fixture(scope="module")
def scale():
    spec = importlib.util.spec_from_file_location("scale_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", PINNED)
def test_scale_report_hash_is_pinned(scale, name, tmp_path):
    _, code, _, digest = scale.verify_input(dict(scale.INPUTS)[name], tmp_path)
    assert (code, digest) == (0, PINNED[name])


def test_json_records_each_input_and_the_host(scale, tmp_path, monkeypatch, capsys):
    """--json writes, per input, what the table prints with the repeat
    count, and the host: the Python version and the speed probe's seconds
    before and after the inputs."""
    monkeypatch.setattr(scale, "INPUTS", scale.INPUTS[:1])
    path = tmp_path / "bench.json"
    assert scale.main(["--json", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text(encoding="utf-8"))
    [row] = data["inputs"]
    assert (row["input"], row["dim"], row["exit"], row["sha256"], row["repeats"]) == (
        "kC16", 16, 0, PINNED["kC16"], scale.REPEATS)
    assert row["min_s"] <= row["median_s"] <= row["max_s"]
    host = data["host"]
    assert host["python"] == platform.python_version()
    for probe in (host["calibration_before"], host["calibration_after"]):
        assert probe["probes"] >= 2 and probe["probe_s_min"] <= probe["probe_s_median"]
