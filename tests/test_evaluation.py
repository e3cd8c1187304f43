import random

import pytest

from ynkit.corpus import LABEL_ORDER, Label
from ynkit.errors import InvalidConfigError
from ynkit.evaluation import (
    chi2_sf_1df,
    cohens_kappa,
    confusion_matrix,
    mcnemar,
    score,
)
from oracles import naive_kappa, naive_macro_f1, naive_per_label_f1

Y, N, M = Label.YES, Label.NO, Label.MIDDLE


def test_perfect_predictions():
    gold = [Y, N, M, Y, N]
    report = score(gold, gold)
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0
    assert report.weighted_f1 == 1.0
    assert all(v == (1.0, 1.0, 1.0) for v in report.per_label.values())


def test_worked_example_macro_seven_ninths():
    # gold [Y,Y,N,M], pred [Y,N,N,M]: Yes P=1 R=1/2, No P=1/2 R=1, Middle 1.0
    gold = [Y, Y, N, M]
    pred = [Y, N, N, M]
    report = score(gold, pred)
    assert abs(report.accuracy - 0.75) < 1e-12
    assert abs(report.per_label[Y][2] - 2 / 3) < 1e-12
    assert abs(report.per_label[N][2] - 2 / 3) < 1e-12
    assert abs(report.per_label[M][2] - 1.0) < 1e-12
    assert abs(report.macro_f1 - 7 / 9) < 1e-12
    assert report.n == 4


def test_unmapped_prediction_is_a_miss():
    # gold [Y,M,N,M], pred [Y,-,N,-]: Yes and No 1.0, Middle recall 0/2
    report = score([Y, M, N, M], [Y, None, N, None])
    assert report.per_label[Y] == (1.0, 1.0, 1.0)
    assert report.per_label[N] == (1.0, 1.0, 1.0)
    assert report.per_label[M] == (0.0, 0.0, 0.0)
    assert abs(report.macro_f1 - 2 / 3) < 1e-12
    assert report.accuracy == 0.5
    assert report.n == 4


def test_absent_label_policy_default_zero():
    gold = [Y, Y, N]
    pred = [Y, Y, N]
    report = score(gold, pred)
    assert report.per_label[M] == (0.0, 0.0, 0.0)  # absent label scores 0
    assert abs(report.macro_f1 - 2 / 3) < 1e-12  # still averaged over 3 labels


def test_score_alignment_error():
    with pytest.raises(InvalidConfigError, match=r"sequences differ in length: \[1, 2\]"):
        score([Y], [Y, N])
    with pytest.raises(InvalidConfigError, match="need at least one scored instance"):
        score([], [])


def test_score_matches_bruteforce_on_random_sets():
    rng = random.Random(99)
    for _ in range(100):
        n = 50
        gold = rng.choices(LABEL_ORDER, k=n)
        pred = rng.choices(LABEL_ORDER, k=n)
        report = score(gold, pred)
        naive = naive_per_label_f1(gold, pred)
        for label in LABEL_ORDER:
            for mine, theirs in zip(report.per_label[label], naive[label]):
                assert abs(mine - theirs) < 1e-9
        assert abs(report.macro_f1 - naive_macro_f1(gold, pred)) < 1e-9


def test_joint_permutation_invariance():
    rng = random.Random(4)
    gold = rng.choices(LABEL_ORDER, k=40)
    pred = rng.choices(LABEL_ORDER, k=40)
    before = score(gold, pred)
    order = list(range(40))
    rng.shuffle(order)
    after = score([gold[i] for i in order], [pred[i] for i in order])
    assert before.per_label == after.per_label
    assert before.macro_f1 == after.macro_f1
    assert before.accuracy == after.accuracy


def test_confusion_matrix_totals():
    cm = confusion_matrix([Y, Y, N, M], [Y, N, N, M])
    assert sum(map(sum, cm)) == 4
    assert cm[0][0] == 1 and cm[0][1] == 1


# -- Cohen's kappa --


def test_kappa_identical_annotations():
    gold = [Y, N, M, M, Y]
    result = cohens_kappa(gold, gold)
    assert result.kappa == 1.0
    assert result.observed_agreement == 1.0
    assert result.disagreement_breakdown == {}


def test_kappa_worked_example():
    a = [Y, Y, N, N, M, M, Y, N]
    b = [Y, Y, N, M, M, M, Y, Y]
    result = cohens_kappa(a, b)
    assert abs(result.observed_agreement - 0.75) < 1e-12
    assert abs(result.expected_agreement - 21 / 64) < 1e-12
    assert abs(result.kappa - 27 / 43) < 1e-12  # ~0.6279
    # two disagreements: one N/M pair and one N/Y pair
    assert result.disagreement_breakdown == {
        (M, N): 0.5,
        (N, Y): 0.5,
    }


def test_kappa_symmetry_and_constant_case():
    rng = random.Random(11)
    a = rng.choices(LABEL_ORDER, k=60)
    b = rng.choices(LABEL_ORDER, k=60)
    assert abs(cohens_kappa(a, b).kappa - cohens_kappa(b, a).kappa) < 1e-12
    constant = [Y] * 10
    assert cohens_kappa(constant, constant).kappa == 1.0


def test_kappa_near_zero_for_independent_annotations():
    rng = random.Random(123)
    a = rng.choices(LABEL_ORDER, k=10000)
    b = list(a)
    rng.shuffle(b)
    assert abs(cohens_kappa(a, b).kappa) < 0.1


def test_kappa_matches_bruteforce_on_random_sets():
    rng = random.Random(77)
    for _ in range(100):
        a = rng.choices(LABEL_ORDER, k=50)
        b = rng.choices(LABEL_ORDER, k=50)
        if a == b:
            continue
        assert abs(cohens_kappa(a, b).kappa - naive_kappa(a, b)) < 1e-9


def test_kappa_disagreement_breakdown_groups():
    a = [Y, Y, Y, N, M, M, M, M, M, M]
    b = [M, M, N, M, Y, Y, N, M, M, M]
    result = cohens_kappa(a, b)
    total = sum(result.disagreement_breakdown.values())
    assert abs(total - 1.0) < 1e-12
    # pairs are sorted by label value: 4 Yes/Middle, 2 No/Middle, 1 Yes/No
    assert result.disagreement_breakdown == {(M, Y): 4 / 7, (M, N): 2 / 7, (N, Y): 1 / 7}


# -- McNemar --

# frozen oracle: chi-square(1) upper tail of (|10-2|-1)^2/12, via an
# independent statistics package at build time
MCNEMAR_B10_C2_P = 0.04330814281079198
MCNEMAR_B10_C2_EXACT_P = 0.03857421875  # 2 * sum_{k<=2} C(12,k) / 2^12


def test_mcnemar_worked_example_continuity():
    gold = [Y] * 20
    pred_a = [Y] * 12 + [N] * 8
    pred_b = [N] * 10 + [Y] * 2 + [Y] * 4 + [N] * 4
    # a correct & b wrong: positions 10..11? construct explicitly instead
    gold, pred_a, pred_b = [], [], []
    for _ in range(10):  # A right, B wrong
        gold.append(Y); pred_a.append(Y); pred_b.append(N)
    for _ in range(2):  # A wrong, B right
        gold.append(Y); pred_a.append(M); pred_b.append(Y)
    for _ in range(5):  # both right
        gold.append(N); pred_a.append(N); pred_b.append(N)
    result = mcnemar(gold, pred_a, pred_b)
    assert result.b == 10 and result.c == 2
    assert abs(result.statistic - 49 / 12) < 1e-12
    assert abs(result.p_value - MCNEMAR_B10_C2_P) < 1e-9
    exact = mcnemar(gold, pred_a, pred_b, method="exact_binomial")
    assert abs(exact.p_value - MCNEMAR_B10_C2_EXACT_P) < 1e-12


def test_mcnemar_symmetric_disagreement_clamps():
    gold, pred_a, pred_b = [], [], []
    for _ in range(5):
        gold.append(Y); pred_a.append(Y); pred_b.append(N)
    for _ in range(5):
        gold.append(Y); pred_a.append(N); pred_b.append(Y)
    result = mcnemar(gold, pred_a, pred_b)
    assert result.b == 5 and result.c == 5
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_mcnemar_no_discordant_pairs():
    gold = [Y, N, M]
    result = mcnemar(gold, gold, gold)
    assert result.b == result.c == 0
    assert result.p_value == 1.0
    assert result.statistic == 0.0


def test_score_with_unmapped_predictions_matches_bruteforce():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 30)
        gold = rng.choices(LABEL_ORDER, k=n)
        unmapped_rate = rng.random()
        pred = [None if rng.random() < unmapped_rate else rng.choice(LABEL_ORDER) for _ in range(n)]
        report = score(gold, pred)
        naive = naive_per_label_f1(gold, pred)
        for label in LABEL_ORDER:
            for mine, theirs in zip(report.per_label[label], naive[label]):
                assert abs(mine - theirs) < 1e-9
        assert abs(report.macro_f1 - naive_macro_f1(gold, pred)) < 1e-9
        assert report.accuracy == sum(g == p for g, p in zip(gold, pred)) / n
        assert report.n == n


def test_mcnemar_antisymmetry():
    rng = random.Random(8)
    gold = rng.choices(LABEL_ORDER, k=80)
    pred_a = rng.choices(LABEL_ORDER, k=80)
    pred_b = rng.choices(LABEL_ORDER, k=80)
    forward = mcnemar(gold, pred_a, pred_b)
    backward = mcnemar(gold, pred_b, pred_a)
    assert forward.b == backward.c and forward.c == backward.b
    assert abs(forward.p_value - backward.p_value) < 1e-12


def test_mcnemar_methods_agree_for_large_discordance():
    rng = random.Random(21)
    for _ in range(30):
        b = rng.randint(10, 40)
        c = rng.randint(10, 40)
        if b + c < 25:
            continue
        gold, pred_a, pred_b = [], [], []
        for _ in range(b):
            gold.append(Y); pred_a.append(Y); pred_b.append(N)
        for _ in range(c):
            gold.append(Y); pred_a.append(N); pred_b.append(Y)
        chi = mcnemar(gold, pred_a, pred_b, method="continuity_corrected_chi2")
        exact = mcnemar(gold, pred_a, pred_b, method="exact_binomial")
        assert abs(chi.p_value - exact.p_value) < 0.02


def test_chi2_tail_reference_points():
    # classic critical values: P(X > 3.841) ~ 0.05, P(X > 6.635) ~ 0.01
    assert abs(chi2_sf_1df(3.841458820694124) - 0.05) < 1e-9
    assert abs(chi2_sf_1df(6.634896601021213) - 0.01) < 1e-9
    assert chi2_sf_1df(0.0) == 1.0
