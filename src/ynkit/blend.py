"""Training curricula: gold-only, merged, and blended plans.

A plan is its epochs plus a provenance dict, which names the strategy, the
arguments that built it and the gold rows each epoch drew, and becomes the
exported plan.json. A blended plan runs m blending epochs in which the
gold fraction decays geometrically, f_i = alpha^(i-1) in epoch i, the
paper's only schedule, while every epoch carries all distant instances,
followed by n epochs of distant instances only. The gold subset is redrawn
fresh each blending epoch; the distant cap, when set, subsamples the
distant pool once before planning.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from .distant import QAInstance, read_instances, write_instances
from .errors import InvalidConfigError


@dataclass(frozen=True)
class EpochDataset:
    instances: tuple[QAInstance, ...]


@dataclass(frozen=True)
class TrainingPlan:
    epochs: tuple[EpochDataset, ...]
    provenance: dict  # "strategy", the build arguments and "gold_counts", as in plan.json


def round_half_away_from_zero(x: float) -> int:
    """Deterministic rounding: 12.5 -> 13, unlike banker's round()."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def _rng(seed: int, *scope: object) -> random.Random:
    # str seeds hash deterministically across processes; tuple seeds do not
    return random.Random(":".join(str(part) for part in (seed, *scope)))


def _apply_cap(distant: Sequence[QAInstance], cap: Optional[int], seed: int) -> list[QAInstance]:
    """The distant pool, subsampled to cap instances when it holds more."""
    if cap is not None and cap <= 0:
        raise InvalidConfigError(f"distant_cap must be > 0, got {cap}")
    if cap is None or cap >= len(distant):
        return list(distant)
    return _rng(seed, "cap").sample(list(distant), cap)


def _epoch(gold_part: list[QAInstance], distant_part: list[QAInstance], seed: int, index: int) -> EpochDataset:
    instances = gold_part + distant_part
    _rng(seed, "epoch", index).shuffle(instances)
    return EpochDataset(instances=tuple(instances))


def build_merged_plan(
    gold: Sequence[QAInstance],
    distant: Sequence[QAInstance],
    epochs: int,
    seed: int,
    distant_cap: Optional[int] = None,
) -> TrainingPlan:
    """Every epoch carries all gold plus all (capped) distant instances,
    reshuffled per epoch."""
    if epochs < 1:
        raise InvalidConfigError(f"epochs must be >= 1, got {epochs}")
    if not gold and not distant:
        raise InvalidConfigError("merged plan needs at least one instance")
    capped = _apply_cap(distant, distant_cap, seed)
    plan_epochs = tuple(
        _epoch(list(gold), list(capped), seed, i) for i in range(1, epochs + 1)
    )
    provenance = {
        "strategy": "merged",
        "alpha": None,
        "m": None,
        "n": None,
        "epochs": epochs,
        "seed": seed,
        "cap": distant_cap,
        "gold_counts": [len(gold)] * epochs,
    }
    return TrainingPlan(epochs=plan_epochs, provenance=provenance)


def build_gold_plan(gold: Sequence[QAInstance], epochs: int, seed: int) -> TrainingPlan:
    """Gold data only; the degenerate merge with an empty distant pool."""
    return build_merged_plan(gold, [], epochs, seed)


def build_blended_plan(
    gold: Sequence[QAInstance],
    distant: Sequence[QAInstance],
    alpha: float,
    m: int,
    n: int,
    seed: int,
    distant_cap: Optional[int] = None,
) -> TrainingPlan:
    """m blending epochs with decaying gold fractions, then n distant-only
    epochs. Epoch 1 always contains every gold instance."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidConfigError(f"alpha must be in [0, 1], got {alpha}")
    if m < 1:
        raise InvalidConfigError(f"m must be >= 1, got {m}")
    if n < 0:
        raise InvalidConfigError(f"n must be >= 0, got {n}")
    if not gold or not distant:
        raise InvalidConfigError("blended plan needs non-empty gold and distant pools")
    capped = _apply_cap(distant, distant_cap, seed)
    gold_counts = [
        min(len(gold), round_half_away_from_zero(alpha ** (i - 1) * len(gold))) for i in range(1, m + 1)
    ] + [0] * n
    plan_epochs = [
        _epoch(_rng(seed, "gold", i).sample(list(gold), count), list(capped), seed, i)
        for i, count in enumerate(gold_counts, 1)
    ]
    provenance = {
        "strategy": "blended",
        "alpha": alpha,
        "m": m,
        "n": n,
        "epochs": m + n,
        "seed": seed,
        "cap": distant_cap,
        "schedule": "geometric",
        "gold_counts": gold_counts,
    }
    return TrainingPlan(epochs=tuple(plan_epochs), provenance=provenance)


def export_plan(plan: TrainingPlan, directory: Union[str, Path]) -> list[Path]:
    """Write epoch_000.jsonl ... plus plan.json; byte-identical re-export
    for identical inputs. Each distinct instance is serialized once per
    call, however many epochs repeat it."""
    if not plan.epochs:
        raise InvalidConfigError("cannot export a plan with no epochs")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    lines: dict[int, str] = {}  # the plan keeps each instance alive
    for i, epoch in enumerate(plan.epochs):
        path = directory / f"epoch_{i:03d}.jsonl"
        write_instances(epoch.instances, path, lines)
        written.append(path)
    manifest = dict(plan.provenance)
    manifest["epoch_sizes"] = [len(e.instances) for e in plan.epochs]
    plan_path = directory / "plan.json"
    plan_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    written.append(plan_path)
    return written


def load_plan(directory: Union[str, Path]) -> TrainingPlan:
    """Reconstruct a TrainingPlan from an exported directory.

    plan.json's epoch_sizes name the epoch files that must be there,
    epoch_000.jsonl onwards, and the row count of each; before any epoch
    file is read, each size must be an integer >= 0. A missing, extra or
    mis-sized epoch file, or a row with no label, is an error. Every other
    plan.json key, gold_counts included, is provenance for external
    trainers and is returned unchecked. Instance identity within each epoch
    file is preserved in order. Each distinct line is decoded once per
    call, and every row that repeats it, in any epoch, is the same object.
    """
    directory = Path(directory)
    plan_path = directory / "plan.json"
    if not plan_path.exists():
        raise InvalidConfigError(f"no plan.json under {directory}")
    try:
        manifest = json.loads(plan_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or JSON
        raise InvalidConfigError(f"{plan_path}: not a plan manifest ({exc})") from None
    sizes = manifest.get("epoch_sizes") if isinstance(manifest, dict) else None
    if not isinstance(sizes, list):
        raise InvalidConfigError(f"{plan_path}: no epoch_sizes list")
    if not sizes:
        raise InvalidConfigError(f"{plan_path}: lists no epochs")
    for i, size in enumerate(sizes):
        if type(size) is not int or size < 0:  # bool is not int
            raise InvalidConfigError(f"{plan_path}: epoch_sizes[{i}] must be an integer >= 0, got {size!r}")
    expected = [directory / f"epoch_{i:03d}.jsonl" for i in range(len(sizes))]
    found = set(directory.glob("epoch_*.jsonl"))
    for path in expected:
        if path not in found:
            raise InvalidConfigError(f"{path}: listed in plan.json but missing")
    stray = sorted(found.difference(expected))
    if stray:
        raise InvalidConfigError(f"{stray[0]}: not listed in plan.json")
    epochs = []
    decoded: dict[bytes, QAInstance] = {}
    for path, size in zip(expected, sizes):
        instances = tuple(read_instances(path, decoded, unlabeled="every plan row needs a label"))
        if len(instances) != size:
            raise InvalidConfigError(
                f"{path}: {len(instances)} rows, plan.json lists {size}"
            )
        epochs.append(EpochDataset(instances=instances))
    return TrainingPlan(epochs=tuple(epochs), provenance=manifest)

