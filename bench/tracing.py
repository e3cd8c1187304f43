"""In-memory spans around ynkit's public functions, for the traced run.

``install`` wraps each function in ``TRACED`` wherever a ynkit module binds
it (``cli`` imports ``load_corpus`` by name, ``blend`` imports
``read_instances``), so no source file changes. A span records its name,
start, end and parent span; spans stay in memory and ``write_spans`` saves
them when the run ends, tagged with the run id. Counts are taken at the
same boundaries, from each call's arguments and result, so that ratios are
measured where the work happens.

A worker thread's first span takes as parent the span open on the main
thread, which is the call that handed it the work.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index into Tracer.spans

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn: Callable, name: str, name_of=None, count=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = Span(name_of(args, kwargs) if name_of else name, 0.0, parent=parent)
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count:
                with self._lock:
                    count(self.counts, span.name, args, result)
            return result

        return traced


def _plan_rows(plan) -> int:
    return sum(len(epoch.instances) for epoch in plan.epochs)


def _count_plan(counts, name, args, plan) -> None:
    counts["blend.plan.rows"] += _plan_rows(plan)
    counts["blend.plan.unique"] += len({i for e in plan.epochs for i in e.instances})


def _count_scan(counts, name, args, result) -> None:
    mode = name.rsplit(".", 1)[1]
    counts.update({f"qid.turns.{mode}": result[1].total_turns,
                   f"qid.matches.{mode}": result[1].match_count})


# module, attribute, optional span-name function,
# optional counter update (counts, span name, args, result)
TRACED = (
    ("cli", "main", lambda a, k: f"cli.{a[0][0]}", None),
    ("corpus", "load_corpus", None,
     lambda c, n, a, r: c.update({"corpus.load_corpus.calls": 1, "corpus.load_corpus.turns": r.total_turns})),
    ("qid", "scan_corpus", lambda a, k: f"qid.scan_corpus.{a[1] if len(a) > 1 else k['mode']}", _count_scan),
    ("qid", "write_matches", None, None),
    ("qid", "load_matches", None, None),
    ("distant", "extract_distant_instances", None,
     lambda c, n, a, r: c.update({"distant.matches": len(a[1]), "distant.kept": len(r)})),
    ("distant", "balance_dataset", None, None),
    ("distant", "read_instances", None, None),
    ("distant", "write_instances", None, None),
    ("blend", "build_blended_plan", None, _count_plan),
    ("blend", "export_plan", None,
     lambda c, n, a, r: c.update({"blend.export_plan.bytes": sum(p.stat().st_size for p in r)})),
    ("blend", "load_plan", None, None),
    ("model", "train", None, lambda c, n, a, r: c.update({"model.train.rows": _plan_rows(a[0])})),
    ("model", "save_model", None, None),
    ("model", "load_model", None, None),
    ("model", "predict", None, None),
    ("evaluation", "score", None, None),
    ("evaluation", "write_report", None, None),
    ("llm_probe", "build_prompt", None, None),
    ("llm_probe", "map_response", None, None),
    ("llm_probe", "LiveClient.send", None, None),
    ("llm_probe", "probe_benchmark", None,
     lambda c, n, a, r: c.update({"llm_probe.responses": len(r.responses),
                               "llm_probe.unmapped": r.unmapped_count})),
)


LAYERS = tuple(dict.fromkeys(module for module, *_ in TRACED))


@contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Route every call of a TRACED function through ``tracer`` while open."""
    modules = [m for n, m in list(sys.modules.items()) if n == "ynkit" or n.startswith("ynkit.")]
    patches: list[tuple[object, str, object]] = []
    for module_name, attr, name_of, count in TRACED:
        module = sys.modules[f"ynkit.{module_name}"]
        if "." in attr:  # a method: patch the class attribute
            cls_name, method = attr.split(".")
            owners = [(getattr(module, cls_name), method)]
        else:
            owners = [(m, key) for m in modules for key, value in vars(m).items()
                      if value is getattr(module, attr)]
        original = getattr(*owners[0])
        wrapped = tracer.wrap(original, f"{module_name}.{attr.split('.')[-1]}", name_of, count)
        for owner, key in owners:
            patches.append((owner, key, original))
            setattr(owner, key, wrapped)
    try:
        yield
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def summarize(spans: list[Span]) -> tuple[dict, dict, float]:
    """Per span name, its durations; per layer, self seconds; and the
    seconds that the layer spans directly below the top-level spans (the
    ``cli.<cmd>`` steps) cover.

    A span's self time is its duration minus the union of its children's
    intervals, so children running concurrently on worker threads are not
    subtracted twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    by_name: dict[str, list[float]] = defaultdict(list)
    self_s: Counter = Counter()
    below_top = 0.0
    for index, span in enumerate(spans):
        duration = span.end - span.start
        by_name[span.name].append(duration)
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_s[span.layer] += duration - covered
        if span.parent is None:
            below_top += covered
    return by_name, self_s, below_top


def write_spans(path: Path, run_id: str, passes: list[list[Span]]) -> None:
    """Save every traced pass's spans as JSON lines tagged with the run id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for number, spans in enumerate(passes):
            for index, span in enumerate(spans):
                record = {"run_id": run_id, "pass": number, "id": index, **asdict(span)}
                handle.write(json.dumps(record) + "\n")
