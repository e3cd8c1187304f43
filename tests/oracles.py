"""Brute-force metric implementations used only as test oracles.

Written as plain counting loops, independent of the package code paths
they check.
"""

import numpy as np

from ynkit.corpus import LABEL_ORDER, tokenize
from ynkit.model import FIELD_PREFIXES, fnv1a_64


def naive_per_label_f1(gold, predicted):
    """Precision/recall/F1 per label by direct counting; 0/0 -> 0."""
    out = {}
    for label in LABEL_ORDER:
        tp = fp = fn = 0
        for g, p in zip(gold, predicted):
            if p == label and g == label:
                tp += 1
            elif p == label:
                fp += 1
            elif g == label:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        out[label] = (precision, recall, f1)
    return out


def naive_macro_f1(gold, predicted):
    per_label = naive_per_label_f1(gold, predicted)
    return sum(f for _, _, f in per_label.values()) / len(LABEL_ORDER)


def naive_kappa(gold_a, gold_b):
    n = len(gold_a)
    agree = 0
    for a, b in zip(gold_a, gold_b):
        if a == b:
            agree += 1
    po = agree / n
    pe = 0.0
    for label in LABEL_ORDER:
        count_a = sum(1 for a in gold_a if a == label)
        count_b = sum(1 for b in gold_b if b == label)
        pe += (count_a / n) * (count_b / n)
    return (po - pe) / (1 - pe)


def naive_featurize(instance, config):
    """The hashed n-gram features by one plain loop per n-gram: no memo,
    float counts accumulated in place, numpy square root."""
    counts = {}
    mask = config.num_buckets - 1
    for field_name in config.fields_used:
        if field_name == "context":
            text = " ".join(instance.context)
        elif field_name == "question":
            text = instance.question
        else:
            text = instance.answer
        tokens = [t.lower() for t in tokenize(text)][: config.max_tokens_per_field]
        prefix = FIELD_PREFIXES[field_name]
        for order in sorted(config.ngram_orders):
            for i in range(len(tokens) - order + 1):
                key = prefix + ":" + "_".join(tokens[i : i + order])
                bucket = fnv1a_64(key) & mask
                counts[bucket] = counts.get(bucket, 0.0) + 1.0
    norm = float(np.sqrt(sum(v * v for v in counts.values())))
    if norm > 0:
        counts = {k: v / norm for k, v in counts.items()}
    return counts
