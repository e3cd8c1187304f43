"""Classification metrics: per-label P/R/F1, Cohen's kappa, McNemar's test.

The chi-square(1) upper tail is computed through the complementary error
function, so no statistics dependency is needed; agreement with standard
tables is within 1e-10 absolute.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from .corpus import LABEL_ORDER, Label
from .errors import InvalidConfigError


@dataclass(frozen=True)
class EvalReport:
    per_label: dict[Label, tuple[float, float, float]]  # (precision, recall, f1)
    macro_f1: float
    weighted_f1: float
    accuracy: float
    n: int

    def to_dict(self) -> dict:
        return {
            "per_label": {
                label.value: {"precision": p, "recall": r, "f1": f}
                for label, (p, r, f) in self.per_label.items()
            },
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
            "accuracy": self.accuracy,
            "n": self.n,
        }


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    observed_agreement: float
    expected_agreement: float
    # fraction of *disagreements* per unordered label pair; empty when the
    # annotators never disagree
    disagreement_breakdown: dict[tuple[Label, Label], float]


@dataclass(frozen=True)
class McNemarResult:
    b: int  # A correct, B wrong
    c: int  # A wrong, B correct
    statistic: float
    p_value: float
    method: str

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "c": self.c,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "method": self.method,
        }


def _check_aligned(*sequences: Sequence[Label]) -> int:
    lengths = {len(s) for s in sequences}
    if len(lengths) != 1:
        raise InvalidConfigError(f"sequences differ in length: {sorted(lengths)}")
    n = lengths.pop()
    if n < 1:
        raise InvalidConfigError("need at least one scored instance")
    return n


def confusion_matrix(gold: Sequence[Label], predicted: Sequence[Optional[Label]]) -> list[list[int]]:
    """counts[gold][predicted], rows and columns in LABEL_ORDER; an
    unmapped (None) prediction falls in no cell."""
    _check_aligned(gold, predicted)
    index = {label: i for i, label in enumerate(LABEL_ORDER)}
    counts = [[0] * len(LABEL_ORDER) for _ in LABEL_ORDER]
    for g, p in zip(gold, predicted):
        if p is not None:
            counts[index[g]][index[p]] += 1
    return counts


def score(gold: Sequence[Label], predicted: Sequence[Optional[Label]]) -> EvalReport:
    """Per-label precision/recall/F1 plus macro, weighted, and accuracy.

    Zero denominators score 0, so a label absent from both gold and
    predictions scores F1 0 and still counts in the three-label average.
    An unmapped (None) prediction is a miss: it counts in n, in accuracy
    and in its gold label's recall, and in no label's precision.
    """
    n = _check_aligned(gold, predicted)
    counts = confusion_matrix(gold, predicted)
    per_label: dict[Label, tuple[float, float, float]] = {}
    f1s = []
    weighted = 0.0
    for i, label in enumerate(LABEL_ORDER):
        tp = counts[i][i]
        support = gold.count(label)  # its gold instances, unmapped predictions included
        pred_count = sum(row[i] for row in counts)
        precision = tp / pred_count if pred_count else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_label[label] = (precision, recall, f1)
        f1s.append(f1)
        weighted += support * f1
    accuracy = sum(counts[i][i] for i in range(len(LABEL_ORDER))) / n
    return EvalReport(
        per_label=per_label,
        macro_f1=sum(f1s) / len(f1s),
        weighted_f1=weighted / n,
        accuracy=accuracy,
        n=n,
    )


def cohens_kappa(ann_a: Sequence[Label], ann_b: Sequence[Label]) -> KappaResult:
    """Chance-corrected agreement between two annotators."""
    n = _check_aligned(ann_a, ann_b)
    observed = sum(1 for a, b in zip(ann_a, ann_b) if a == b) / n
    expected = 0.0
    for label in LABEL_ORDER:
        pa = sum(1 for a in ann_a if a == label) / n
        pb = sum(1 for b in ann_b if b == label) / n
        expected += pa * pb
    # expected is 1 only when both annotators use one and the same label
    # throughout, so observed is 1 too; otherwise it is at most 1 - 1/n
    kappa = 1.0 if expected == 1.0 else (observed - expected) / (1.0 - expected)

    disagreements = [(a, b) for a, b in zip(ann_a, ann_b) if a != b]
    breakdown: dict[tuple[Label, Label], float] = {}
    if disagreements:
        pair_counts: dict[tuple[Label, Label], int] = {}
        for a, b in disagreements:
            pair = tuple(sorted((a, b), key=lambda l: l.value))
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
        breakdown = {
            pair: count / len(disagreements) for pair, count in pair_counts.items()
        }
    return KappaResult(
        kappa=kappa,
        observed_agreement=observed,
        expected_agreement=expected,
        disagreement_breakdown=breakdown,
    )


def chi2_sf_1df(statistic: float) -> float:
    """Upper tail of the chi-square distribution with one degree of freedom."""
    return math.erfc(math.sqrt(statistic / 2.0))


def _binomial_two_sided(k: int, n: int) -> float:
    """Two-sided exact binomial(n, 1/2) p-value for observing min-count k."""
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(0, k + 1)) / 2**n
    return min(1.0, 2.0 * tail)


def mcnemar(
    gold: Sequence[Label],
    pred_a: Sequence[Label],
    pred_b: Sequence[Label],
    method: str = "continuity_corrected_chi2",
) -> McNemarResult:
    """Paired significance test over discordant prediction pairs.

    b counts instances A got right and B got wrong; c the reverse.
    b + c = 0 yields p = 1.0 rather than an error.
    """
    if method not in ("continuity_corrected_chi2", "exact_binomial"):
        raise ValueError(f"unknown method {method!r}")
    _check_aligned(gold, pred_a, pred_b)
    b = sum(1 for g, a, p in zip(gold, pred_a, pred_b) if a == g and p != g)
    c = sum(1 for g, a, p in zip(gold, pred_a, pred_b) if a != g and p == g)
    if method == "continuity_corrected_chi2":
        if b + c == 0 or abs(b - c) <= 1:
            statistic = 0.0
            p_value = 1.0
        else:
            statistic = (abs(b - c) - 1) ** 2 / (b + c)
            p_value = chi2_sf_1df(statistic)
    else:
        statistic = float(min(b, c))
        p_value = _binomial_two_sided(min(b, c), b + c)
    return McNemarResult(b=b, c=c, statistic=statistic, p_value=p_value, method=method)


def write_report(report_dict: dict, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(report_dict, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
