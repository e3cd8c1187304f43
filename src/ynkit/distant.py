"""Distant supervision: strict matches -> weakly labeled training instances.

A direct answer whose first sentences contain only yes-polarity keywords
becomes a Yes instance, only no-polarity keywords a No instance; answers
showing both polarities (or neither) are dropped for precision. The polar
keyword is kept verbatim in the answer text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Optional, Union

from .corpus import Corpus, Label, iter_jsonl, parse_label
from .errors import CorpusFormatError, InvalidConfigError
from .qid import QidMatch, answer_polarity


@dataclass(frozen=True)
class QAInstance:
    """A (context, question, answer, label) record for training or evaluation.

    source is "gold" for human-annotated data and "distant" for
    keyword-harvested data; distant instances are never labeled Middle.
    """

    context: tuple[str, ...]
    question: str
    answer: str
    label: Optional[Label]
    source: str
    origin_ids: tuple[str, str, str]  # (dialogue_id, question_turn_id, answer_turn_id)

    def __post_init__(self):
        if not self.question or not self.answer:
            raise ValueError("question and answer must be non-empty")
        if self.source == "distant" and self.label not in (Label.YES, Label.NO):
            raise ValueError("distant instances must be labeled Yes or No")


def label_direct_answer(answer_text: str) -> Optional[Label]:
    """Yes or No when exactly one flag of qid.answer_polarity is set, else None."""
    saw_yes, saw_no = answer_polarity(answer_text)
    if saw_yes == saw_no:
        return None
    return Label.YES if saw_yes else Label.NO


def extract_distant_instances(
    corpus: Corpus,
    matches: Iterable[QidMatch],
    context_window: int = 1,
) -> list[QAInstance]:
    """One distant QAInstance per match whose answer labels Yes or No.

    Context holds up to context_window turns preceding the question, most
    recent last. Matches without an answer turn are rejected.
    """
    if context_window < 0:
        raise InvalidConfigError(f"context_window must be >= 0, got {context_window}")
    by_dialogue = {d.dialogue_id: d for d in corpus}
    instances = []
    for match in matches:
        if match.answer is None:
            raise CorpusFormatError(
                f"match on turn {match.question.turn_id!r} has no answer turn"
            )
        label = label_direct_answer(match.answer.text)
        if label is None:
            continue
        dialogue = by_dialogue[match.question.dialogue_id]
        start = max(0, match.question.ordinal - context_window)
        context = tuple(t.text for t in dialogue.turns[start : match.question.ordinal])
        instances.append(
            QAInstance(
                context=context,
                question=match.question.text,
                answer=match.answer.text,
                label=label,
                source="distant",
                origin_ids=(
                    match.question.dialogue_id,
                    match.question.turn_id,
                    match.answer.turn_id,
                ),
            )
        )
    return instances


def balance_dataset(instances: list[QAInstance], seed: int) -> list[QAInstance]:
    """Downsample every label class to the minority count, then shuffle.

    Instances are put in canonical origin_ids order before any sampling so
    the result depends only on (input multiset, seed).
    """
    if not instances:
        return []
    if any(inst.label is None for inst in instances):
        raise InvalidConfigError("balance_dataset requires labeled instances")
    ordered = sorted(instances, key=lambda inst: inst.origin_ids)
    groups: dict[Label, list[QAInstance]] = {}
    for inst in ordered:
        groups.setdefault(inst.label, []).append(inst)
    minority = min(len(g) for g in groups.values())
    rng = random.Random(seed)
    kept: list[QAInstance] = []
    for label in sorted(groups, key=lambda l: l.value):
        kept.extend(rng.sample(groups[label], minority))
    rng.shuffle(kept)
    return kept


# -- QAInstance interchange format (shared by gold and distant data) --

ORIGIN_KEYS = ("dialogue_id", "question_turn_id", "answer_turn_id")


def origin_to_dict(origin_ids: tuple[str, str, str]) -> dict:
    return dict(zip(ORIGIN_KEYS, origin_ids))


def instance_to_dict(inst: QAInstance) -> dict:
    return {
        "context": list(inst.context),
        "question": inst.question,
        "answer": inst.answer,
        "label": inst.label.value if inst.label is not None else None,
        "source": inst.source,
        "origin": origin_to_dict(inst.origin_ids),
    }


def instance_from_dict(obj: dict) -> QAInstance:
    """Inverse of instance_to_dict; a field of the wrong type raises TypeError."""
    get = obj.get
    context = get("context")
    if context is None:
        context = []
    origin = get("origin")
    if origin is None:
        origin = {}
    if not isinstance(context, list) or not isinstance(origin, dict):
        raise TypeError("context must be a list and origin an object")
    label = get("label")
    context = tuple(context)
    question = obj["question"]
    answer = obj["answer"]
    source = get("source", "gold")
    origin_ids = tuple(map(origin.get, ORIGIN_KEYS, ("", "", "")))
    inst = QAInstance(
        context, question, answer, None if label is None else parse_label(label), source, origin_ids
    )
    # map, not a generator: this runs once per instance line read
    if not all(map(isinstance, (question, answer, source, *context, *origin_ids), repeat(str))):
        raise TypeError("text fields and origin ids must be strings")
    return inst


_encode = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps(..., ensure_ascii=False)


def write_instances(
    instances: Iterable[QAInstance],
    path: Union[str, Path],
    lines: Optional[dict[int, str]] = None,
) -> None:
    """Stream instances to path, one JSON line each.

    lines (id of an instance -> its line), shared by the calls of one run,
    serializes each instance object once; the caller keeps every instance
    alive while lines is in use, so that no id is reused.
    """
    with Path(path).open("w", encoding="utf-8") as handle:
        if lines is None:
            for inst in instances:
                handle.write(_encode(instance_to_dict(inst)) + "\n")
            return
        for inst in instances:
            line = lines.get(id(inst))
            if line is None:
                line = lines[id(inst)] = _encode(instance_to_dict(inst)) + "\n"
            handle.write(line)


def _parse_instance(where: str, obj: dict) -> QAInstance:
    try:
        return instance_from_dict(obj)
    except KeyError as exc:
        raise CorpusFormatError(f"{where}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, CorpusFormatError) as exc:
        raise CorpusFormatError(f"{where}: bad instance record ({exc})") from None


def read_instances(
    path: Union[str, Path], memo: Optional[dict[bytes, QAInstance]] = None
) -> list[QAInstance]:
    """The instances of a JSONL file, in line order. memo (raw line bytes
    -> instance), shared by the calls of one run, decodes each distinct
    line once, and every repeat of it is the same object."""
    return [inst for _, inst in iter_jsonl(path, _parse_instance, memo)]
