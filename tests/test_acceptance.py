"""Acceptance suite: one test per shipped criterion.

Each test prints a PASS/FAIL line (run pytest with -s or read captured
output) and enforces its runtime budget.
"""

import hashlib
import json
import random
import time
from contextlib import contextmanager

import pytest

from ynkit.blend import build_blended_plan, round_half_away_from_zero
from ynkit.cli import main
from ynkit.corpus import LABEL_ORDER, Label
from ynkit.distant import balance_dataset, extract_distant_instances, read_instances
from ynkit.evaluation import cohens_kappa, mcnemar, score
from ynkit.llm_probe import (
    PromptTemplate,
    ReplayClient,
    build_prompt,
    map_response,
    probe_benchmark,
)
from ynkit.model import TrainConfig
from ynkit.qid import scan_corpus
from ynkit.synth import SynthConfig, make_trend_bundle
from oracles import max_relative_error, naive_kappa, naive_macro_f1, naive_per_label_f1, train_step_gradients
from trend_robustness import trend_scores
from util import random_corpus

Y, N, M = Label.YES, Label.NO, Label.MIDDLE


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"ACCEPTANCE {number}: PASS  {description}  ({elapsed:.1f}s)")


EXPECTED_RELAXED = {
    "d01-t1", "d02-t0", "d02-t3", "d03-t2", "d04-t1", "d04-t3", "d04-t5",
    "d06-t0", "d07-t0", "d08-t0", "d08-t2", "d09-t2", "d10-t1", "d10-t3",
    "d11-t0", "d11-t3", "d12-t0", "d12-t2",
}
EXPECTED_STRICT = {
    "d01-t1", "d03-t2", "d04-t3", "d06-t0", "d07-t0", "d08-t0", "d09-t2",
    "d10-t1", "d10-t3", "d11-t0", "d12-t0",
}


def test_criterion_1_rule_fidelity(fixture_corpus):
    with criterion(1, "rule fidelity on fixture + strict subset of relaxed", 5.0):
        relaxed, _ = scan_corpus(fixture_corpus, "relaxed", sample_size=0, seed=0)
        strict, _ = scan_corpus(fixture_corpus, "strict", sample_size=0, seed=0)
        got_relaxed = {m.question.turn_id for m in relaxed}
        got_strict = {m.question.turn_id for m in strict}
        # exact expected sets = precision and recall 1.0 on the fixture
        assert got_relaxed == EXPECTED_RELAXED
        assert got_strict == EXPECTED_STRICT
        for seed in range(1000):
            corpus = random_corpus(seed)
            r, _ = scan_corpus(corpus, "relaxed", sample_size=0, seed=seed)
            s, _ = scan_corpus(corpus, "strict", sample_size=0, seed=seed)
            assert {m.question.turn_id for m in s} <= {m.question.turn_id for m in r}


# frozen via an independent statistics package at build time
MCNEMAR_P_CHI2 = 0.04330814281079198


def test_criterion_2_metric_oracles():
    with criterion(2, "score/kappa/mcnemar worked examples + brute force", 10.0):
        report = score([Y, Y, N, M], [Y, N, N, M])
        assert abs(report.accuracy - 0.75) < 1e-6
        assert abs(report.per_label[Y][2] - 2 / 3) < 1e-6
        assert abs(report.per_label[N][2] - 2 / 3) < 1e-6
        assert abs(report.per_label[M][2] - 1.0) < 1e-6
        assert abs(report.macro_f1 - 7 / 9) < 1e-6

        kappa = cohens_kappa(
            [Y, Y, N, N, M, M, Y, N], [Y, Y, N, M, M, M, Y, Y]
        )
        assert abs(kappa.observed_agreement - 0.75) < 1e-6
        assert abs(kappa.expected_agreement - 21 / 64) < 1e-6
        assert abs(kappa.kappa - 0.6279069767441860) < 1e-6

        gold = [Y] * 10 + [Y] * 2 + [N] * 5
        pred_a = [Y] * 10 + [M] * 2 + [N] * 5
        pred_b = [N] * 10 + [Y] * 2 + [N] * 5
        result = mcnemar(gold, pred_a, pred_b)
        assert result.b == 10 and result.c == 2
        assert abs(result.statistic - 49 / 12) < 1e-6
        assert abs(result.p_value - MCNEMAR_P_CHI2) < 1e-6

        rng = random.Random(424242)
        for _ in range(100):
            a = rng.choices(LABEL_ORDER, k=50)
            b = rng.choices(LABEL_ORDER, k=50)
            mine = score(a, b)
            naive = naive_per_label_f1(a, b)
            for label in LABEL_ORDER:
                for x, y in zip(mine.per_label[label], naive[label]):
                    assert abs(x - y) < 1e-9
            assert abs(mine.macro_f1 - naive_macro_f1(a, b)) < 1e-9
            if a != b:
                assert abs(cohens_kappa(a, b).kappa - naive_kappa(a, b)) < 1e-9


def test_criterion_3_blend_schedule_exactness():
    with criterion(3, "blended gold counts exact on the alpha grid", 1.0):
        from ynkit.distant import QAInstance

        gold = [
            QAInstance(
                context=(), question=f"q{i}?", answer=f"a{i}", label=Label.MIDDLE,
                source="gold", origin_ids=(f"g{i}", f"g{i}-q", f"g{i}-a"),
            )
            for i in range(100)
        ]
        distant = [
            QAInstance(
                context=(), question=f"dq{i}?", answer=f"da{i}", label=Label.YES,
                source="distant", origin_ids=(f"d{i}", f"d{i}-q", f"d{i}-a"),
            )
            for i in range(40)
        ]
        pool = {id(inst) for inst in gold}  # a row is gold when it is a gold-pool instance
        for alpha in (0.2, 0.5, 0.8):
            plan = build_blended_plan(gold, distant, alpha=alpha, m=4, n=2, seed=77)
            got = [sum(id(row) in pool for row in e.instances) for e in plan.epochs]
            expected = [
                round_half_away_from_zero(alpha ** (i - 1) * 100) for i in range(1, 5)
            ] + [0, 0]
            assert got == expected == plan.provenance["gold_counts"], (alpha, got, expected)
            assert got[0] == 100


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_4_pipeline_determinism(fixture_corpus_path, tmp_path):
    with criterion(4, "identify->distill->plan->train->predict byte-identical", 30.0):
        digests = []
        for run in ("a", "b"):
            work = tmp_path / run
            work.mkdir()
            matches = work / "matches.jsonl"
            distant = work / "distant.jsonl"
            plandir = work / "plan"
            model_path = work / "model.json"
            preds = work / "preds.jsonl"
            for argv in (
                ["identify", "--corpus", str(fixture_corpus_path), "--mode", "strict",
                 "--seed", "7", "--out", str(matches)],
                ["distill", "--corpus", str(fixture_corpus_path), "--matches", str(matches),
                 "--balance", "--seed", "7", "--out", str(distant)],
                ["plan", "--gold", str(distant), "--strategy", "merged", "--epochs", "3",
                 "--seed", "7", "--out", str(plandir)],
                ["train", "--plan", str(plandir), "--out", str(model_path),
                 "--buckets", str(2**14), "--seed", "7"],
                ["predict", "--model", str(model_path), "--in", str(distant),
                 "--out", str(preds)],
            ):
                assert main(argv) == 0, argv
            epoch_files = sorted(p for p in plandir.iterdir())
            digests.append(
                {
                    "epochs": [_sha(p) for p in epoch_files],
                    "model": _sha(model_path),
                    "preds": _sha(preds),
                }
            )
        assert digests[0] == digests[1]


def test_criterion_5_gradient_correctness():
    with criterion(5, "the update train applies vs finite-difference gradient", 1.0):
        for l2 in (0.0, 0.01):  # with l2 > 0, the step's decay is checked too
            config = TrainConfig(num_buckets=2**6, ngram_orders=(1,), fields_used=("answer",), l2=l2)
            assert max_relative_error(*train_step_gradients(config, probe_size=10)) < 1e-4


TREND_SEED = 13


def test_criterion_6_trend_replication():
    with criterion(6, "blended >= merged >= gold-only; cap ablation within 0.05", 120.0):
        macro = trend_scores(TREND_SEED)
        assert (macro["gold_size"], macro["distant_size"], macro["test_size"]) == (2000, 8000, 600)
        assert macro["blended"] >= macro["merged"] >= macro["gold_only"], macro
        assert abs(macro["capped"] - macro["merged"]) <= 0.05, macro


def test_criterion_7_distant_precision():
    with criterion(7, "distant labels match latent labels; balance equalizes", 10.0):
        bundle = make_trend_bundle(SynthConfig(seed=TREND_SEED))
        matches, _ = scan_corpus(bundle.corpus, "strict", sample_size=0, seed=TREND_SEED)
        instances = extract_distant_instances(bundle.corpus, matches)
        assert instances, "no instances extracted"
        agree = sum(
            1 for inst in instances if bundle.latent[inst.origin_ids[1]] is inst.label
        )
        assert agree / len(instances) >= 0.98
        balanced = balance_dataset(instances, seed=TREND_SEED)
        yes_count = sum(1 for inst in balanced if inst.label is Y)
        no_count = sum(1 for inst in balanced if inst.label is N)
        assert yes_count == no_count


def test_criterion_8_prompt_fidelity(golden_dir, data_dir):
    with criterion(8, "golden prompts, response mapping, offline replay", 1.0):
        from ynkit.distant import QAInstance

        target = QAInstance(
            context=(),
            question="Do you like Mexican food?",
            answer="I am fine with tacos if my friends suggest Mexican",
            label=None,
            source="gold",
            origin_ids=("demo", "demo-q", "demo-a"),
        )
        shots = (
            ("Were you at the meeting yesterday?", "I had to pick up the kids from school.", N),
            ("Do you want to go out for dinner tonight?", "I have a deadline and I may skip dinner.", N),
            ("Do you like spicy food?", "I reach for the hot sauce with everything.", Y),
            ("Was the deadline moved again?", "Ask me tomorrow.", M),
        )
        zero = build_prompt(target, PromptTemplate(), 0)
        four = build_prompt(target, PromptTemplate(shot_examples=shots), 4)
        assert zero == (golden_dir / "prompt_0shot.txt").read_text(encoding="utf-8")
        assert four == (golden_dir / "prompt_4shot.txt").read_text(encoding="utf-8")
        assert "Does the answer mean Yes, No or Middle?" in zero

        assert map_response("Yes").label is Y
        assert map_response("The answer means Middle.").label is M
        assert map_response("Maybe yes, maybe no").label is None

        instances = read_instances(data_dir / "probe_demo.jsonl")
        client = ReplayClient(data_dir / "replay_store.json")
        result = probe_benchmark(instances, PromptTemplate(), 0, client)
        assert [r.label for r in result.responses] == [Y, N, M]
        assert result.unmapped_count == 0
