import filecmp
import hashlib
import json
import re
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ynkit.blend import (
    build_blended_plan,
    build_gold_plan,
    build_merged_plan,
    export_plan,
    load_plan,
    round_half_away_from_zero,
)
from ynkit.corpus import Label
from ynkit.distant import QAInstance, read_instances
from ynkit.errors import CorpusFormatError, InvalidConfigError
from ynkit.model import TrainConfig, train

from oracles import plan_instances_digest


def _instances(n, label, source, prefix):
    return [
        QAInstance(
            context=(),
            question=f"{prefix} question {i}?",
            answer=f"{prefix} answer {i}",
            label=label,
            source=source,
            origin_ids=(f"{prefix}{i}", f"{prefix}{i}-q", f"{prefix}{i}-a"),
        )
        for i in range(n)
    ]


GOLD = _instances(100, Label.MIDDLE, "gold", "g")
DISTANT = _instances(400, Label.YES, "distant", "d")


def _gold_rows(plan, gold=GOLD):
    """Each epoch's rows that are gold-pool instances, by identity."""
    pool = {id(inst) for inst in gold}
    return [sum(id(row) in pool for row in e.instances) for e in plan.epochs]


def _gold_sources(plan):
    """Each epoch's rows whose source reads "gold", as a loaded plan tells them."""
    return [sum(row.source == "gold" for row in e.instances) for e in plan.epochs]


def test_round_half_away_from_zero():
    assert round_half_away_from_zero(12.5) == 13
    assert round_half_away_from_zero(0.5) == 1
    assert round_half_away_from_zero(0.4) == 0
    assert round_half_away_from_zero(-0.5) == -1
    assert round_half_away_from_zero(2.0) == 2


def test_merged_plan_sizes():
    plan = build_merged_plan(GOLD[:10], DISTANT[:20], epochs=2, seed=0)
    assert [len(e.instances) for e in plan.epochs] == [30, 30]
    assert _gold_rows(plan) == plan.provenance["gold_counts"] == [10, 10]
    assert plan.provenance["strategy"] == "merged"


def test_merged_plan_with_cap():
    plan = build_merged_plan(GOLD[:10], DISTANT[:20], epochs=2, seed=0, distant_cap=5)
    assert [len(e.instances) for e in plan.epochs] == [15, 15]
    assert [len(e.instances) - g for e, g in zip(plan.epochs, _gold_rows(plan))] == [5, 5]
    # the cap subsample is drawn once: same distant multiset in both epochs
    first = {i.origin_ids for i in plan.epochs[0].instances if i.source == "distant"}
    second = {i.origin_ids for i in plan.epochs[1].instances if i.source == "distant"}
    assert first == second


def test_merged_without_distant_equals_gold_plan():
    merged = build_merged_plan(GOLD[:10], [], epochs=3, seed=5)
    assert merged == build_gold_plan(GOLD[:10], epochs=3, seed=5)


def test_empty_plan_rejected():
    with pytest.raises(InvalidConfigError, match="merged plan needs at least one instance"):
        build_merged_plan([], [], epochs=1, seed=0)


def test_blended_worked_example():
    plan = build_blended_plan(GOLD, DISTANT, alpha=0.5, m=3, n=2, seed=11)
    assert [len(e.instances) for e in plan.epochs] == [500, 450, 425, 400, 400]
    assert _gold_rows(plan) == plan.provenance["gold_counts"] == [100, 50, 25, 0, 0]
    assert plan.provenance["strategy"] == "blended"


def test_blended_alpha_one_and_zero():
    keep_all = build_blended_plan(GOLD, DISTANT, alpha=1.0, m=2, n=0, seed=0)
    assert _gold_rows(keep_all) == [100, 100]
    drop_all = build_blended_plan(GOLD, DISTANT, alpha=0.0, m=2, n=0, seed=0)
    assert _gold_rows(drop_all) == [100, 0]


def test_blended_alpha_grid_counts():
    for alpha in (0.2, 0.5, 0.8):
        plan = build_blended_plan(GOLD, DISTANT, alpha=alpha, m=4, n=2, seed=1)
        expected = [round_half_away_from_zero(alpha ** i * 100) for i in range(4)] + [0, 0]
        assert _gold_rows(plan) == expected


def test_blended_fresh_subsample_per_epoch():
    plan = build_blended_plan(GOLD, DISTANT, alpha=0.5, m=2, n=0, seed=2)
    epoch2_gold = {i.origin_ids for i in plan.epochs[1].instances if i.source == "gold"}
    assert len(epoch2_gold) == 50
    all_gold = {i.origin_ids for i in GOLD}
    assert epoch2_gold <= all_gold


def test_blended_preconditions():
    with pytest.raises(InvalidConfigError):
        build_blended_plan([], DISTANT, alpha=0.5, m=1, n=0, seed=0)
    with pytest.raises(InvalidConfigError):
        build_blended_plan(GOLD, [], alpha=0.5, m=1, n=0, seed=0)
    # the schedule is checked before the pools
    for alpha, m, n, message in ((1.5, 1, 0, "alpha must be in [0, 1], got 1.5"),
                                 (-0.1, 1, 0, "alpha must be in [0, 1], got -0.1"),
                                 (0.5, 0, 0, "m must be >= 1, got 0"),
                                 (0.5, 1, -1, "n must be >= 0, got -1")):
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            build_blended_plan([], [], alpha=alpha, m=m, n=n, seed=0)
    for cap in (0, -5):
        with pytest.raises(InvalidConfigError, match=f"distant_cap must be > 0, got {cap}"):
            build_blended_plan(GOLD, DISTANT, alpha=0.5, m=1, n=0, seed=0, distant_cap=cap)
        with pytest.raises(InvalidConfigError, match=f"distant_cap must be > 0, got {cap}"):
            build_merged_plan(GOLD, DISTANT, epochs=1, seed=0, distant_cap=cap)


@given(
    alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    m=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=0, max_value=3),
)
def test_blended_gold_counts_non_increasing(alpha, m, n):
    plan = build_blended_plan(GOLD[:37], DISTANT[:20], alpha=alpha, m=m, n=n, seed=4)
    counts = _gold_rows(plan, GOLD[:37])
    assert counts[0] == 37
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert all(c == 0 for c in counts[m:])
    assert len(counts) == m + n


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n_gold=st.integers(min_value=1, max_value=30),
    n_distant=st.integers(min_value=1, max_value=30),
    alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    m=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=0, max_value=3),
    cap=st.none() | st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_blended_plan_rows_match_schedule_and_provenance(n_gold, n_distant, alpha, m, n, cap, seed):
    gold, distant = GOLD[:n_gold], DISTANT[:n_distant]
    plan = build_blended_plan(gold, distant, alpha=alpha, m=m, n=n, seed=seed, distant_cap=cap)
    gold_ids, distant_ids = {id(i) for i in gold}, {id(i) for i in distant}
    expected = [round_half_away_from_zero(alpha ** (i - 1) * n_gold) for i in range(1, m + 1)] + [0] * n
    assert len(plan.epochs) == m + n
    for epoch, count in zip(plan.epochs, expected):
        assert len({id(row) for row in epoch.instances if id(row) in gold_ids}) == count
    assert _gold_rows(plan, gold) == expected == plan.provenance["gold_counts"]
    capped = [Counter(id(row) for row in e.instances if id(row) in distant_ids) for e in plan.epochs]
    assert all(c == capped[0] for c in capped)
    assert sum(capped[0].values()) == len(capped[0]) == min(n_distant, cap or n_distant)
    assert all(len(e.instances) == g + len(capped[0]) for e, g in zip(plan.epochs, expected))
    with tempfile.TemporaryDirectory() as directory:
        loaded = load_plan(export_plan(plan, directory)[0].parent)
    assert [e.instances for e in loaded.epochs] == [e.instances for e in plan.epochs]
    sizes = [len(e.instances) for e in plan.epochs]
    assert loaded.provenance == {**plan.provenance, "epoch_sizes": sizes}


def test_merged_epoch_not_smaller_than_blended_later_epochs():
    merged = build_merged_plan(GOLD, DISTANT, epochs=5, seed=3)
    blended = build_blended_plan(GOLD, DISTANT, alpha=0.5, m=3, n=2, seed=3)
    merged_size = len(merged.epochs[0].instances)
    for epoch in blended.epochs[1:]:
        assert merged_size >= len(epoch.instances)


def test_plan_construction_pure_function():
    config = dict(alpha=0.5, m=3, n=1, seed=8)
    a = build_blended_plan(GOLD, DISTANT, **config)
    b = build_blended_plan(GOLD, DISTANT, **config)
    assert plan_instances_digest(a) == plan_instances_digest(b)
    assert a.provenance == b.provenance


def test_export_plan_files_and_reexport_byte_identical(tmp_path):
    plan = build_blended_plan(GOLD, DISTANT, alpha=0.5, m=3, n=2, seed=6)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    export_plan(plan, dir_a)
    export_plan(plan, dir_b)
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == [f"epoch_{i:03d}.jsonl" for i in range(5)] + ["plan.json"]
    for name in names:
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name
    manifest = json.loads((dir_a / "plan.json").read_text())
    assert manifest["strategy"] == "blended"
    assert manifest["alpha"] == 0.5
    assert manifest["epoch_sizes"] == [500, 450, 425, 400, 400]
    assert manifest["gold_counts"] == [100, 50, 25, 0, 0]


def test_load_plan_round_trip(tmp_path):
    plan = build_merged_plan(GOLD[:6], DISTANT[:4], epochs=2, seed=1)
    export_plan(plan, tmp_path)
    loaded = load_plan(tmp_path)
    assert loaded.provenance["strategy"] == "merged"
    assert _gold_sources(loaded) == loaded.provenance["gold_counts"] == [6, 6]
    assert [e.instances for e in loaded.epochs] == [e.instances for e in plan.epochs]


def test_export_plan_pinned_digest(tmp_path):
    """The exported files of a blended plan, non-ASCII text and context
    included, byte for byte."""
    odd = QAInstance(
        context=("Ça va ?", '"quoted"\ttab'),
        question="Tú también?",
        answer="Sí — 当然",
        label=Label.NO,
        source="gold",
        origin_ids=("u", "u-q", "u-a"),
    )
    plan = build_blended_plan(GOLD[:30] + [odd], DISTANT[:60], alpha=0.5, m=3, n=2, seed=6)
    export_plan(plan, tmp_path)
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    assert h.hexdigest() == "e767b5c79d37b70f78c202d298261402fcaa8e14e346ea3bbbeb8b562e2cb4b4"


def _exported_blended(tmp_path):
    plan = build_blended_plan(GOLD[:20], DISTANT[:30], alpha=0.5, m=3, n=2, seed=4)
    export_plan(plan, tmp_path)
    return plan


def test_load_plan_matches_reading_each_file_alone(tmp_path):
    plan = _exported_blended(tmp_path)
    loaded = load_plan(tmp_path)
    alone = [tuple(read_instances(tmp_path / f"epoch_{i:03d}.jsonl")) for i in range(len(plan.epochs))]
    assert [e.instances for e in loaded.epochs] == alone == [e.instances for e in plan.epochs]
    assert _gold_sources(loaded) == _gold_rows(plan) == loaded.provenance["gold_counts"]


def test_load_plan_repeated_rows_are_one_object(tmp_path):
    _exported_blended(tmp_path)
    rows = [inst for epoch in load_plan(tmp_path).epochs for inst in epoch.instances]
    distinct = set(rows)
    assert len(distinct) < len(rows)
    assert len({id(inst) for inst in rows}) == len(distinct)


@pytest.mark.parametrize(
    "damage",
    [
        lambda line: line[: len(line) // 2] + "\n",
        lambda line: line.replace('"question": "', '"question": 7, "was": "', 1),
    ],
    ids=["invalid_json", "wrong_type"],
)
def test_load_plan_damaged_copy_of_accepted_row_names_its_line(tmp_path, damage):
    """A memo hit is a byte-identical copy of an accepted line; a damaged
    copy is checked and named, though its original loaded fine earlier."""
    _exported_blended(tmp_path)
    first = (tmp_path / "epoch_000.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "epoch_003.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if line in first)
    lines[n] = damage(lines[n])
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"epoch_003.jsonl: line {n + 1}: "):
        load_plan(tmp_path)


def test_load_plan_missing_dir(tmp_path):
    with pytest.raises(InvalidConfigError, match="no plan.json under .*nope"):
        load_plan(tmp_path / "nope")


def _exported(tmp_path, epochs=3):
    export_plan(build_merged_plan(GOLD[:6], DISTANT[:4], epochs=epochs, seed=1), tmp_path)
    return tmp_path


def test_load_plan_missing_epoch_file(tmp_path):
    (_exported(tmp_path) / "epoch_001.jsonl").unlink()
    with pytest.raises(InvalidConfigError, match="epoch_001.jsonl: listed in plan.json but missing"):
        load_plan(tmp_path)


def test_load_plan_stray_epoch_file(tmp_path):
    (_exported(tmp_path) / "epoch_009.jsonl").write_text("")
    with pytest.raises(InvalidConfigError, match="epoch_009.jsonl: not listed in plan.json"):
        load_plan(tmp_path)


def test_load_plan_epoch_row_count_checked(tmp_path):
    path = _exported(tmp_path) / "epoch_002.jsonl"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(InvalidConfigError, match="epoch_002.jsonl: 9 rows, plan.json lists 10"):
        load_plan(tmp_path)


@pytest.mark.parametrize(
    "manifest",
    [
        "{not json",
        "[]",
        '{"epoch_sizes": 3}',
    ],
)
def test_load_plan_bad_manifest(tmp_path, manifest):
    (_exported(tmp_path) / "plan.json").write_text(manifest)
    with pytest.raises(InvalidConfigError, match="plan.json"):
        load_plan(tmp_path)


@pytest.mark.parametrize(
    "sizes, message",
    [
        ([10.0, 10, 10], "epoch_sizes[0] must be an integer >= 0, got 10.0"),
        ([10, "10", 10], "epoch_sizes[1] must be an integer >= 0, got '10'"),
        ([10, 10, -1], "epoch_sizes[2] must be an integer >= 0, got -1"),
        ([True, 10, 10], "epoch_sizes[0] must be an integer >= 0, got True"),
    ],
)
def test_load_plan_refuses_an_epoch_size_that_is_not_a_count(tmp_path, sizes, message):
    """10.0 matches a 10-row file, and loaded as a plan before this check."""
    manifest = json.loads((_exported(tmp_path) / "plan.json").read_text())
    (tmp_path / "plan.json").write_text(json.dumps({**manifest, "epoch_sizes": sizes}))
    with pytest.raises(InvalidConfigError, match=f"plan.json: {re.escape(message)}$"):
        load_plan(tmp_path)


@pytest.mark.parametrize("gold_counts", [None, "x"], ids=["deleted", "not_a_list"])
def test_load_plan_trains_the_same_whatever_gold_counts_reads(tmp_path, gold_counts):
    """train reads only epoch_sizes and the epoch files; gold_counts is a
    record for external trainers."""
    manifest = json.loads((_exported(tmp_path) / "plan.json").read_text())
    config = TrainConfig(num_buckets=2**10)
    before = train(load_plan(tmp_path), config)
    if gold_counts is None:
        del manifest["gold_counts"]
    else:
        manifest["gold_counts"] = gold_counts
    (tmp_path / "plan.json").write_text(json.dumps(manifest))
    loaded = load_plan(tmp_path)
    assert loaded.provenance == manifest
    after = train(loaded, config)
    assert after.weights.tobytes() == before.weights.tobytes()
    assert after.bias.tobytes() == before.bias.tobytes()


def test_export_empty_plan_rejected(tmp_path):
    from ynkit.blend import TrainingPlan

    hollow = TrainingPlan(epochs=(), provenance={})
    with pytest.raises(InvalidConfigError, match="cannot export a plan with no epochs"):
        export_plan(hollow, tmp_path)
