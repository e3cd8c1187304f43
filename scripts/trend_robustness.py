#!/usr/bin/env python3
"""Multi-seed robustness check for the synthetic-trend acceptance test.

For each seed: build the synthetic bundle, run the distant-supervision
pipeline, train gold-only / merged / capped-merged / blended models, and
score macro-F1 on the target test set. Reports pass rates for the trend
ordering (blended >= merged >= gold_only) and the size-matched ablation
(|capped - merged| <= 0.05). Criterion 6 of the acceptance suite runs
trend_scores on its fixed seed; this script shows how the thresholds hold
up across seeds.
"""

import argparse
import sys
import time

from ynkit.blend import build_blended_plan, build_gold_plan, build_merged_plan
from ynkit.corpus import LABEL_ORDER
from ynkit.distant import balance_dataset, extract_distant_instances
from ynkit.evaluation import score
from ynkit.model import TrainConfig, predict_proba, train
from ynkit.qid import scan_corpus
from ynkit.synth import SynthConfig, make_trend_bundle

EPOCHS = 6
BLEND = dict(alpha=0.2, m=4, n=2)


def trend_scores(seed: int) -> dict:
    """Macro-F1 on the target test set of each strategy's model, by strategy
    name, and the sizes of the gold, distant and test sets."""
    bundle = make_trend_bundle(SynthConfig(seed=seed))
    matches, _ = scan_corpus(bundle.corpus, "strict", sample_size=0, seed=seed)
    distant = balance_dataset(extract_distant_instances(bundle.corpus, matches), seed=seed)
    train_config = TrainConfig(ngram_orders=(1,), fields_used=("answer",))
    plans = {
        "gold_only": build_gold_plan(bundle.gold, EPOCHS, seed),
        "merged": build_merged_plan(bundle.gold, distant, EPOCHS, seed),
        "capped": build_merged_plan(
            bundle.gold, distant, EPOCHS, seed, distant_cap=len(bundle.gold)
        ),
        "blended": build_blended_plan(bundle.gold, distant, seed=seed, **BLEND),
    }
    gold_labels = [inst.label for inst in bundle.test]
    scores = {"gold_size": len(bundle.gold), "distant_size": len(distant), "test_size": len(bundle.test)}
    for name, plan in plans.items():
        model = train(plan, train_config)
        winners = predict_proba(model, bundle.test).argmax(axis=1).tolist()
        preds = [LABEL_ORDER[i] for i in winners]
        scores[name] = score(gold_labels, preds).macro_f1
    return scores


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--start", type=int, default=0)
    args = parser.parse_args()

    trend_pass = 0
    cap_pass = 0
    t0 = time.time()
    for seed in range(args.start, args.start + args.seeds):
        s = trend_scores(seed)
        trend_ok = s["blended"] >= s["merged"] >= s["gold_only"]
        cap_ok = abs(s["capped"] - s["merged"]) <= 0.05
        trend_pass += trend_ok
        cap_pass += cap_ok
        print(
            f"seed {seed:4d}  gold {s['gold_only']:.4f}  merged {s['merged']:.4f}  "
            f"capped {s['capped']:.4f}  blended {s['blended']:.4f}  "
            f"trend {'ok' if trend_ok else 'FAIL'}  cap {'ok' if cap_ok else 'FAIL'}",
            flush=True,
        )
    n = args.seeds
    print(f"trend pass rate: {trend_pass}/{n}   cap pass rate: {cap_pass}/{n}")
    print(f"elapsed: {time.time() - t0:.1f}s")
    return 0 if trend_pass >= 0.95 * n and cap_pass >= 0.95 * n else 1


if __name__ == "__main__":
    sys.exit(main())
