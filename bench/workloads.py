"""The benchmark's workloads: generated inputs, CLI steps and output checks.

Each workload writes its inputs from the seed before any timing, names the
CLI steps of one pass (closed loop: a step starts when the previous one
exits) and checks a pass's outputs against facts the generator knows.
Outputs of the default seed at full scale are also pinned by digest in
``digests.json``; ``model.json`` is not pinned, because the full-precision
probabilities in the predictions already pin the weights.
"""

from __future__ import annotations

import hashlib
import json
import select
import subprocess
import sys
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

import corpus_gen
import stub_server

from ynkit import read_instances, save_corpus, write_instances
from ynkit.corpus import parse_label
from ynkit.evaluation import score
from ynkit.llm_probe import PromptTemplate, build_prompt
from ynkit.synth import SynthConfig, make_gold_instances, make_test_instances, make_trend_bundle

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 1

# Blended curriculum of the README walkthrough.
ALPHA, BLEND_M, BLEND_N = 0.5, 4, 2


def digest(path: Path) -> str:
    """sha256 of a file, or of a directory's sorted file names and contents."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for file in files:
        h.update(file.relative_to(path).as_posix().encode() if path.is_dir() else b"")
        h.update(hashlib.sha256(file.read_bytes()).digest())
    return h.hexdigest()


def _lines(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _question_ids(path: Path) -> list[str]:
    return [m["question_turn_id"] for m in _lines(path)]


class Check:
    """Output checks of one pass; a step with any failed check is a failed operation."""

    def __init__(self) -> None:
        self.failed_steps: set[str] = set()
        self.failed_requests = 0
        self.messages: list[str] = []

    def expect(self, step: str, ok: bool, message: str) -> None:
        if not ok:
            self.failed_steps.add(step)
            self.messages.append(f"{step}: {message}")

    @contextmanager
    def outputs_of(self, step: str) -> Iterator[None]:
        """Check one step's outputs; missing or malformed ones fail that step."""
        try:
            yield
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            self.expect(step, False, f"{type(exc).__name__}: {exc}")


def _check_macro_f1(check: Check, step: str, gold_path: Path, pred_path: Path, report_path: Path) -> None:
    """Recompute macro-F1 from the files, leaving out unmapped predictions."""
    gold = [inst.label for inst in read_instances(gold_path)]
    preds = [p.get("label") for p in _lines(pred_path)]
    pairs = [(g, parse_label(p)) for g, p in zip(gold, preds) if p is not None]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    expected = score([g for g, _ in pairs], [p for _, p in pairs])
    check.expect(step, report.get("macro_f1") == expected.macro_f1 and report.get("n") == expected.n,
                 f"report macro_f1 {report.get('macro_f1')} n {report.get('n')}, "
                 f"recomputed {expected.macro_f1} n {expected.n}")


class Workload:
    name = ""
    item_kind = ""
    # output file or directory name -> step that writes it, pinned by digest
    pinned: dict[str, str] = {}

    def __init__(self, inputs: Path, seed: int, small: bool) -> None:
        self.inputs = inputs
        self.seed = seed
        self.small = small

    def setup(self) -> None:
        """Generate the inputs (and start any server the steps need)."""

    def steps(self, out: Path) -> list[tuple[str, list[str]]]:
        """(step name, CLI argv) of one pass, in order."""
        raise NotImplementedError

    def items(self) -> int:
        """Work items per pass, the base of items_per_s."""
        raise NotImplementedError

    def sizes(self) -> dict[str, int]:
        raise NotImplementedError

    def check(self, out: Path, stdout: dict[str, str], exit_codes: dict[str, int]) -> Check:
        check = Check()
        self._check(check, out, stdout, exit_codes)
        if self.seed == DEFAULT_SEED and not self.small:
            pins = json.loads(DIGESTS.read_text(encoding="utf-8")).get(self.name, {})
            for name, step in self.pinned.items():
                got = digest(out / name) if (out / name).exists() else None
                check.expect(step, got == pins.get(name), f"{name} digest {got} != pinned {pins.get(name)}")
        return check

    def _check(self, check: Check, out: Path, stdout: dict[str, str], exit_codes: dict[str, int]) -> None:
        raise NotImplementedError

    def operations(self) -> int:
        """Operations per pass besides the steps themselves (probe requests)."""
        return 0

    def stub_stats(self) -> Optional[dict]:
        """Counters of the stub server, when the workload runs one."""
        return None

    def close(self) -> None:
        """Stop anything setup started."""


class CliBlended(Workload):
    """The README walkthrough at scale: identify, distill, plan, train, predict, evaluate."""

    name = "cli_blended"
    item_kind = "plan_rows"
    pinned = {"matches.jsonl": "identify", "distant.jsonl": "distill", "plan": "plan",
              "preds.jsonl": "predict", "report.json": "evaluate"}

    def setup(self) -> None:
        if self.small:
            config = SynthConfig(seed=self.seed, n_gold=100, n_distant_questions=200, n_test=100)
        else:
            config = SynthConfig(seed=self.seed, n_distant_questions=4000, n_test=20000)
        bundle = make_trend_bundle(config)
        save_corpus(bundle.corpus, self.inputs / "corpus.jsonl")
        write_instances(bundle.gold, self.inputs / "gold.jsonl")
        write_instances(bundle.test, self.inputs / "test.jsonl")
        self.config = config
        self.planted = {t.turn_id for d in bundle.corpus for t in d.turns if t.turn_id.endswith("-t1")}
        self.latent = {qid: label.value for qid, label in bundle.latent.items()}
        self.test_origins = [list(inst.origin_ids) for inst in bundle.test]
        per_class = min(sum(v == "yes" for v in self.latent.values()),
                        sum(v == "no" for v in self.latent.values()))
        self.n_distant = 2 * per_class
        gold_counts = [min(config.n_gold, int(config.n_gold * ALPHA ** i + 0.5)) for i in range(BLEND_M)]
        self.epoch_sizes = [g + self.n_distant for g in gold_counts] + [self.n_distant] * BLEND_N

    def steps(self, out: Path) -> list[tuple[str, list[str]]]:
        seed, i = str(self.seed), self.inputs
        return [
            ("identify", ["identify", "--corpus", str(i / "corpus.jsonl"), "--mode", "strict",
                          "--seed", seed, "--out", str(out / "matches.jsonl")]),
            ("distill", ["distill", "--corpus", str(i / "corpus.jsonl"), "--matches",
                         str(out / "matches.jsonl"), "--balance", "--seed", seed,
                         "--out", str(out / "distant.jsonl")]),
            ("plan", ["plan", "--gold", str(i / "gold.jsonl"), "--distant", str(out / "distant.jsonl"),
                      "--strategy", "blended", "--alpha", str(ALPHA), "--m", str(BLEND_M),
                      "--n", str(BLEND_N), "--seed", seed, "--out", str(out / "plan")]),
            ("train", ["train", "--plan", str(out / "plan"), "--seed", seed,
                       "--out", str(out / "model.json")]),
            ("predict", ["predict", "--model", str(out / "model.json"), "--in", str(i / "test.jsonl"),
                         "--seed", seed, "--out", str(out / "preds.jsonl")]),
            ("evaluate", ["evaluate", "--gold", str(i / "test.jsonl"), "--pred", str(out / "preds.jsonl"),
                          "--seed", seed, "--out", str(out / "report.json")]),
        ]

    def items(self) -> int:
        return sum(self.epoch_sizes)

    def sizes(self) -> dict[str, int]:
        return {"turns": 3 * len(self.planted), "plan_rows": self.items(),
                "unique_instances": self.config.n_gold + self.n_distant,
                "test_instances": self.config.n_test}

    def _check(self, check: Check, out: Path, stdout: dict[str, str], exit_codes: dict[str, int]) -> None:
        with check.outputs_of("identify"):
            matches = _question_ids(out / "matches.jsonl")
            check.expect("identify", sorted(matches) == sorted(self.planted),
                         f"{len(matches)} strict matches, {len(self.planted)} planted")
        with check.outputs_of("distill"):
            distant = _lines(out / "distant.jsonl")
            check.expect("distill", len(distant) == self.n_distant,
                         f"{len(distant)} distant instances, expected {self.n_distant}")
            check.expect("distill", all(self.latent.get(d["origin"]["question_turn_id"]) == d["label"]
                                        for d in distant), "a distant label differs from the planted one")
        with check.outputs_of("plan"):
            sizes = [len(_lines(p)) for p in sorted((out / "plan").glob("epoch_*.jsonl"))]
            check.expect("plan", sizes == self.epoch_sizes, f"epoch sizes {sizes}, expected {self.epoch_sizes}")
        with check.outputs_of("predict"):
            preds = _lines(out / "preds.jsonl")
            origins = [[p["origin"][k] for k in ("dialogue_id", "question_turn_id", "answer_turn_id")]
                       for p in preds]
            check.expect("predict", origins == self.test_origins,
                         f"{len(preds)} predictions do not match the {len(self.test_origins)} test origins")
        with check.outputs_of("evaluate"):
            _check_macro_f1(check, "evaluate", self.inputs / "test.jsonl", out / "preds.jsonl",
                            out / "report.json")


class CorpusScan(Workload):
    """Long generated dialogues through relaxed and strict identify, then distill."""

    name = "corpus_scan"
    item_kind = "corpus_turns"
    pinned = {"relaxed.jsonl": "identify_relaxed", "strict.jsonl": "identify_strict",
              "distant.jsonl": "distill"}

    def setup(self) -> None:
        total = 6000 if self.small else 150_000
        self.facts = corpus_gen.write_corpus(self.inputs / "corpus.jsonl", self.seed, total)
        labels = list(self.facts.distant_labels.values())
        self.n_distant = 2 * min(labels.count("yes"), labels.count("no"))

    def steps(self, out: Path) -> list[tuple[str, list[str]]]:
        seed, corpus = str(self.seed), str(self.inputs / "corpus.jsonl")
        return [
            ("identify_relaxed", ["identify", "--corpus", corpus, "--mode", "relaxed",
                                  "--seed", seed, "--out", str(out / "relaxed.jsonl")]),
            ("identify_strict", ["identify", "--corpus", corpus, "--mode", "strict",
                                 "--seed", seed, "--out", str(out / "strict.jsonl")]),
            ("distill", ["distill", "--corpus", corpus, "--matches", str(out / "strict.jsonl"),
                         "--balance", "--seed", seed, "--out", str(out / "distant.jsonl")]),
        ]

    def items(self) -> int:
        return self.facts.turns

    def sizes(self) -> dict[str, int]:
        return {"turns": self.facts.turns, "relaxed_matches": len(self.facts.relaxed_ids),
                "strict_matches": len(self.facts.strict_ids), "distant_instances": self.n_distant}

    def _check(self, check: Check, out: Path, stdout: dict[str, str], exit_codes: dict[str, int]) -> None:
        for mode, planted in (("relaxed", self.facts.relaxed_ids), ("strict", self.facts.strict_ids)):
            with check.outputs_of(f"identify_{mode}"):
                found = _question_ids(out / f"{mode}.jsonl")
                check.expect(f"identify_{mode}", len(found) == len(planted) and set(found) == planted,
                             f"{len(found)} {mode} matches, {len(planted)} planted")
        with check.outputs_of("distill"):
            distant = _lines(out / "distant.jsonl")
            labels = [d["label"] for d in distant]
            check.expect("distill", len(distant) == self.n_distant and labels.count("yes") == labels.count("no"),
                         f"{len(distant)} balanced distant instances, expected {self.n_distant}")
            check.expect("distill",
                         all(self.facts.distant_labels.get(d["origin"]["question_turn_id"]) == d["label"]
                             for d in distant), "a distant label differs from the planted one")


SHOTS = 4


class ProbeStub(Workload):
    """probe against a localhost stub endpoint run as its own process, then evaluate."""

    name = "probe_stub"
    item_kind = "requests"
    pinned = {"probe.jsonl": "probe", "report.json": "evaluate"}
    server: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        n_test = 40 if self.small else 2000
        self.test = make_test_instances(SynthConfig(seed=self.seed, n_test=n_test))
        shots = make_gold_instances(SynthConfig(seed=self.seed, n_gold=SHOTS))
        write_instances(self.test, self.inputs / "test.jsonl")
        write_instances(shots, self.inputs / "shots.jsonl")
        self.template = PromptTemplate(
            shot_examples=tuple((s.question, s.answer, s.label) for s in shots))
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub_server.py"), "--seed", str(self.seed)],
            stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.server.stdout], [], [], 30)
        line = self.server.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"stub server did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def steps(self, out: Path) -> list[tuple[str, list[str]]]:
        seed, test = str(self.seed), str(self.inputs / "test.jsonl")
        return [
            ("probe", ["probe", "--in", test, "--client", "live", "--endpoint", f"{self.url}/v1/completions",
                       "--concurrency", "2", "--shots", str(SHOTS), "--shot-examples",
                       str(self.inputs / "shots.jsonl"), "--seed", seed, "--out", str(out / "probe.jsonl")]),
            ("evaluate", ["evaluate", "--gold", test, "--pred", str(out / "probe.jsonl"),
                          "--seed", seed, "--out", str(out / "report.json")]),
        ]

    def items(self) -> int:
        return len(self.test)

    def operations(self) -> int:
        return len(self.test)

    def sizes(self) -> dict[str, int]:
        return {"test_instances": len(self.test), "requests": len(self.test), "shots": SHOTS}

    def stub_stats(self) -> dict:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"{self.url}/stats", timeout=30) as response:
            return json.loads(response.read())

    def _check(self, check: Check, out: Path, stdout: dict[str, str], exit_codes: dict[str, int]) -> None:
        expected = [stub_server.reply_for(build_prompt(inst, self.template, SHOTS), self.seed)
                    for inst in self.test]
        # every request counts as failed until its output line is read and matches
        check.failed_requests = len(expected)
        with check.outputs_of("probe"):
            got = _lines(out / "probe.jsonl")
            check.expect("probe", len(got) == len(expected), f"{len(got)} probe lines, {len(expected)} requests")
            wrong = sum(1 for g, raw in zip(got, expected)
                        if g.get("raw") != raw or g.get("label") != stub_server.REPLY_LABELS[raw])
            check.expect("probe", wrong == 0, f"{wrong} responses differ from the stub's fixed replies")
            unmapped = sum(stub_server.REPLY_LABELS[raw] is None for raw in expected)
            printed = json.loads(stdout.get("probe") or "{}").get("unmapped")
            check.expect("probe", printed == unmapped, f"probe printed {printed} unmapped, stub served {unmapped}")
            if exit_codes.get("probe") == 0:
                check.failed_requests = wrong + abs(len(expected) - len(got))
        with check.outputs_of("evaluate"):
            _check_macro_f1(check, "evaluate", self.inputs / "test.jsonl", out / "probe.jsonl",
                            out / "report.json")

    def close(self) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None


WORKLOADS = {w.name: w for w in (CliBlended, CorpusScan, ProbeStub)}
