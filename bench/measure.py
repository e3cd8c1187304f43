"""Measurement of one workload: set-up, untraced and traced passes, metrics.

``run`` is called by ``run.py`` once ``src/`` and this directory are on
``sys.path``.
"""

from __future__ import annotations

import hashlib
import io
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy

import tracing
from workloads import WORKLOADS, digest
from ynkit import cli, model, read_instances

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
COMMANDS = ("identify", "distill", "plan", "train", "predict", "evaluate", "probe")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ynkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not itself a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


class Bench:
    def __init__(self, workload, work: Path, trace: bool) -> None:
        self.workload = workload
        self.out = work / "out"
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def _fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def _account(self, exit_codes: dict[str, int], stdout: dict[str, str]) -> None:
        check = self.workload.check(self.out, stdout, exit_codes)
        failed_steps = check.failed_steps | {s for s, code in exit_codes.items() if code != 0}
        self.messages += [f"{s}: exit {c}" for s, c in exit_codes.items() if c != 0] + check.messages
        self.attempted += len(exit_codes) + self.workload.operations()
        self.failed += len(failed_steps) + check.failed_requests

    def cli_pass(self) -> dict:
        """One untraced pass, every step a ``python -m ynkit`` subprocess."""
        self._fresh_out()
        steps = self.workload.steps(self.out)
        walls, cpus, rss, codes, stdout = {}, {}, [], {}, {}
        stats_before = self.workload.stub_stats()
        start = time.perf_counter()
        for name, argv in steps:
            t0 = time.perf_counter()
            with open(self.out / f"{name}.stdout", "wb") as so, open(self.out / f"{name}.stderr", "wb") as se:
                proc = subprocess.Popen([sys.executable, "-m", "ynkit", *argv], cwd=ROOT,
                                        env=self.env, stdout=so, stderr=se)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                proc.returncode = os.waitstatus_to_exitcode(status)
            walls[name] = time.perf_counter() - t0
            cpus[name] = usage.ru_utime + usage.ru_stime
            rss.append(usage.ru_maxrss / 1024)  # KiB on Linux
            codes[name] = proc.returncode
        wall = time.perf_counter() - start
        stub = {"requests": 0, "connections": 0, "service_s": 0.0}
        if stats_before is not None:
            after = self.workload.stub_stats()
            stub = {k: after[k] - stats_before[k] for k in after}
        for name, _ in steps:
            stdout[name] = (self.out / f"{name}.stdout").read_text(encoding="utf-8").strip()
        model_file = self.out / "model.json"
        metrics = {
            "wall_s": wall,
            "peak_rss_mb": max(rss),
            "model_mb": model_file.stat().st_size / 1e6 if model_file.exists() else 0.0,
        }
        for command in COMMANDS:
            chosen = [name for name, argv in steps if argv[0] == command]
            metrics[f"{command}_s"] = sum(walls[n] for n in chosen)
            metrics[f"cli.{command}.cpu_s"] = sum(cpus[n] for n in chosen)
        metrics["stub.requests"] = stub["requests"]
        metrics["stub.connections"] = stub["connections"]
        metrics["stub.service_ms"] = 1e3 * _ratio(stub["service_s"], stub["requests"])
        self._account(codes, stdout)
        return metrics

    def traced_pass(self) -> tuple[dict, list]:
        """One pass in this process through ``ynkit.cli.main``, with spans."""
        self._fresh_out()
        steps = self.workload.steps(self.out)
        tracer = tracing.Tracer()
        codes, stdout = {}, {}
        with tracing.install(tracer):
            start = time.perf_counter()
            for name, argv in steps:
                buffer, errors = io.StringIO(), io.StringIO()
                try:
                    with redirect_stdout(buffer), redirect_stderr(errors):
                        codes[name] = cli.main(argv)
                except SystemExit as exc:
                    codes[name] = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crashing step is a failed operation, not a crashed benchmark
                    codes[name] = 1
                    self.messages.append(f"{name}: {traceback.format_exc(limit=3)}")
                stdout[name] = buffer.getvalue().strip()
            wall = time.perf_counter() - start
        self._account(codes, stdout)
        return _layer_metrics(tracer, wall), tracer.spans


def _layer_metrics(tracer, wall: float) -> dict:
    by_name, self_s, below_top = tracing.summarize(tracer.spans)
    counts = tracer.counts

    def total(name: str) -> float:
        return sum(by_name.get(name, ()))

    def mean_us(name: str) -> float:
        return 1e6 * statistics.fmean(by_name[name]) if by_name.get(name) else 0.0

    sends = sorted(by_name.get("llm_probe.send", ()))

    def send_ms(q: float) -> float:
        return 1e3 * sends[min(len(sends) - 1, int(q * len(sends)))] if sends else 0.0

    metrics = {
        "corpus.load_corpus.s": total("corpus.load_corpus"),
        "corpus.load_corpus.turns": _ratio(counts["corpus.load_corpus.turns"], counts["corpus.load_corpus.calls"]),
        "qid.scan_corpus.relaxed.s": total("qid.scan_corpus.relaxed"),
        "qid.scan_corpus.strict.s": total("qid.scan_corpus.strict"),
        "qid.match_frac": _ratio(counts["qid.matches.relaxed"] + counts["qid.matches.strict"],
                                 counts["qid.turns.relaxed"] + counts["qid.turns.strict"]),
        "qid.match_frac.relaxed": _ratio(counts["qid.matches.relaxed"], counts["qid.turns.relaxed"]),
        "qid.match_frac.strict": _ratio(counts["qid.matches.strict"], counts["qid.turns.strict"]),
        "qid.write_matches.s": total("qid.write_matches"),
        "qid.load_matches.s": total("qid.load_matches"),
        "distant.extract_distant_instances.s": total("distant.extract_distant_instances"),
        "distant.kept_frac": _ratio(counts["distant.kept"], counts["distant.matches"]),
        "distant.balance_dataset.s": total("distant.balance_dataset"),
        "distant.read_instances.s": total("distant.read_instances"),
        "distant.write_instances.s": total("distant.write_instances"),
        "blend.build_blended_plan.s": total("blend.build_blended_plan"),
        "blend.export_plan.s": total("blend.export_plan"),
        "blend.export_plan.mb": counts["blend.export_plan.bytes"] / 1e6,
        "blend.load_plan.s": total("blend.load_plan"),
        "blend.plan.rows": counts["blend.plan.rows"],
        "blend.plan.unique_frac": _ratio(counts["blend.plan.unique"], counts["blend.plan.rows"]),
        "model.train.s": total("model.train"),
        "model.train.rows_per_s": _ratio(counts["model.train.rows"], total("model.train")),
        "model.save_model.s": total("model.save_model"),
        "model.load_model.s": total("model.load_model"),
        "model.predict.us": mean_us("model.predict"),
        "evaluation.score.s": total("evaluation.score"),
        "llm_probe.build_prompt.us": mean_us("llm_probe.build_prompt"),
        "llm_probe.send.p50_ms": send_ms(0.50),
        "llm_probe.send.p99_ms": send_ms(0.99),
        "llm_probe.send.calls": len(sends),
        "llm_probe.map_response.us": mean_us("llm_probe.map_response"),
        "llm_probe.unmapped_frac": _ratio(counts["llm_probe.unmapped"], counts["llm_probe.responses"]),
        "trace.wall_s": wall,
        "trace.coverage_frac": _ratio(below_top, wall),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    return metrics


def _import_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter importing ynkit.cli."""
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ynkit.cli"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return _median(times)


def _featurize_us(workload, out: Path) -> float:
    """featurize timed alone over the predict inputs, per instance (0 without a model)."""
    if not (out / "model.json").exists():
        return 0.0
    config = model.load_model(out / "model.json").feature_config
    instances = read_instances(workload.inputs / "test.jsonl")
    t0 = time.perf_counter()
    for inst in instances:
        model.featurize(inst, config)
    return 1e6 * (time.perf_counter() - t0) / len(instances)


def _medians(samples: list[dict]) -> dict:
    return {key: _median(s[key] for s in samples) for key in samples[0]} if samples else {}


def run(args, spec: dict) -> tuple[dict, dict]:
    """Run one workload; return the report and the result."""
    run_id = uuid.uuid4().hex[:12]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{run_id}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    workload = WORKLOADS[args.workload](inputs, args.seed, args.scale == "small")
    bench = Bench(workload, work, args.trace == 1)
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            if repeat < SETUP_REPEATS - 1:
                workload.close()
        deadline = time.perf_counter() + args.seconds
        untraced, traced, spans, durations = [], [], [], []
        while True:
            t0 = time.perf_counter()
            untraced.append(bench.cli_pass())
            if bench.trace:
                metrics, pass_spans = bench.traced_pass()
                traced.append(metrics)
                spans.append(pass_spans)
            durations.append(time.perf_counter() - t0)
            # stop when a pass of median length would end after the deadline
            if time.perf_counter() + _median(durations) > deadline:
                break
        extra = {}
        if bench.trace:
            extra["cli.import_s"] = _import_seconds(bench.env)
            extra["model.featurize.us"] = _featurize_us(workload, bench.out)
            tracing.write_spans(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}-{run_id}.jsonl",
                                run_id, spans)
        sizes = workload.sizes()
        digests = {name: digest(bench.out / name) if (bench.out / name).exists() else None
                   for name in workload.pinned}
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    cli = _medians(untraced)
    values = {
        **cli,
        **extra,
        "setup_s": _median(setup_times),
        "items_per_s": workload.items() / cli["wall_s"],
        "failed_ops_frac": bench.failed / bench.attempted,
    }
    if bench.trace:
        layer = _medians(traced)
        values.update(layer)
        values["trace.overhead_s"] = layer["trace.wall_s"] - cli["wall_s"]
    wanted = spec["per_layer"] if bench.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = ["setup_s", "wall_s", "items_per_s", "peak_rss_mb", "model_mb", "failed_ops_frac"]
    shown += [f"{c}_s" for c in COMMANDS if values[f"{c}_s"]]
    report = {
        "workload": args.workload,
        "run_id": run_id,
        "bases": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": _git_sha(),
            "source_sha256": _source_digest(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "scale": args.scale,
            "seconds": args.seconds,
            "passes": len(untraced),
            "traced_passes": len(traced),
            "items": workload.items(),
            "item_kind": workload.item_kind,
            **sizes,
        },
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in shown},
        "setup_samples_s": setup_times,
        "wall_samples_s": [p["wall_s"] for p in untraced],
        "digests": digests,
        "failures": bench.messages[:20],
    }
    return report, result

