"""Smoke test of the benchmark's own code, at fixture scale.

Each workload runs once untraced and once traced; every metric that
BENCHMARK.json names must be emitted with its unit. No timing is asserted.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from ynkit.llm_probe import PromptTemplate  # noqa: E402
from ynkit.synth import SynthConfig, make_gold_instances, make_test_instances  # noqa: E402


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "small"],
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    report, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report["failures"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.9


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "probe_stub", 0)
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_union_of_concurrent_children():
    spans = [
        tracing.Span("cli.probe", 0.0, 12.0),
        tracing.Span("llm_probe.probe_benchmark", 1.0, 11.0, parent=0),
        tracing.Span("llm_probe.send", 2.0, 6.0, parent=1),
        tracing.Span("llm_probe.send", 3.0, 7.0, parent=1),  # overlaps the first send
        tracing.Span("llm_probe.map_response", 9.0, 10.0, parent=1),
    ]
    by_name, self_s, below_top = tracing.summarize(spans)
    # only the layer span below the top-level cli span counts as covered
    assert below_top == 10.0
    assert self_s["cli"] == 2.0
    assert sum(by_name["llm_probe.send"]) == 8.0
    # parent self: 10 - (2..7 union 9..10) = 4; children: 4 + 4 + 1
    assert self_s["llm_probe"] == 4.0 + 9.0


def test_failed_probe_step_fails_every_request(tmp_path):
    probe = workloads.ProbeStub(tmp_path, seed=3, small=True)
    probe.test = make_test_instances(SynthConfig(seed=3, n_test=5))
    shots = make_gold_instances(SynthConfig(seed=3, n_gold=workloads.SHOTS))
    probe.template = PromptTemplate(shot_examples=tuple((s.question, s.answer, s.label) for s in shots))
    # the step exited nonzero and wrote no outputs
    check = probe.check(tmp_path, {"probe": "", "evaluate": ""}, {"probe": 1, "evaluate": 1})
    assert check.failed_requests == 5
    assert check.failed_steps == {"probe", "evaluate"}
