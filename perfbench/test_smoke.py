"""Smoke test of the benchmark at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

TINY = {
    "roundtrip_n10": dataclasses.replace(
        WORKLOADS["roundtrip_n10"], keys=2, messages_per_key=1, message_bytes=16
    ),
    "roundtrip_n500": dataclasses.replace(
        WORKLOADS["roundtrip_n500"], keys=2, messages_per_key=1, message_bytes=8
    ),
    "repair_n100": dataclasses.replace(WORKLOADS["repair_n100"], keys=2, message_bytes=64),
    "attack_box": dataclasses.replace(WORKLOADS["attack_box"], side=3, seed_side=2, n_max=8),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, seed: int = 1, trace: bool = False) -> dict:
    assert run.find_library()
    return run.run(TINY[name], seed, 0.01, trace, SPEC)["result"]


def test_every_workload_is_named_in_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric(name, trace):
    for seed in (1, 2):
        result = tiny_run(name, seed, trace)
        assert result["correct"], result
        assert result["attempted"] >= 1
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values()), result


def _flip_first_byte(fn):
    def tampered(*args, **kwargs):
        out = fn(*args, **kwargs)
        return bytes([out[0] ^ 1]) + out[1:]
    return tampered


def _miscount_keys(fn):
    def tampered(*args, **kwargs):
        return dataclasses.replace(fn(*args, **kwargs), enumerated=-1)
    return tampered


def _shift_repairs(fn):
    def tampered(*args, **kwargs):
        report = fn(*args, **kwargs)
        if report.repaired is None:
            return report
        shifted = dataclasses.replace(report.repaired, a11=report.repaired.a11 + 1)
        return dataclasses.replace(report, repaired=shifted)
    return tampered


def tamper_library(monkeypatch, module: str, function: str, tamper) -> None:
    """Make every later import of the library wrap ``module.function`` in ``tamper``."""
    original = run.import_library

    def tampered_library(*submodules):
        lib = original(*submodules)
        target = getattr(lib, module)
        monkeypatch.setattr(target, function, tamper(getattr(target, function)))
        return lib

    monkeypatch.setattr(run, "import_library", tampered_library)


@pytest.mark.parametrize("name, module, function, tamper", [
    ("roundtrip_n10", "cipher", "decrypt_message", _flip_first_byte),
    ("roundtrip_n500", "cipher", "decrypt_message", _flip_first_byte),
    ("repair_n100", "cipher", "decrypt_message", _flip_first_byte),
    ("attack_box", "attacks", "measure_unimodular_resistance", _miscount_keys),
])
def test_tampered_output_fails_the_run(name, module, function, tamper, monkeypatch):
    tamper_library(monkeypatch, module, function, tamper)
    result = tiny_run(name)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_wrong_repairs_are_counted_without_failing_the_run(monkeypatch):
    tamper_library(monkeypatch, "correction", "correct", _shift_repairs)
    result = tiny_run("repair_n100")
    assert result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["recovered_frac"]["value"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack_box", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
