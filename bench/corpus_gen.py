"""Seeded dialogue corpus for the corpus_scan workload.

Long conversations (10-40 turns) exercise every path of corpus loading and
of the identification and distillation rules:

- about a third of the conversations are ordered by a ``reply_to`` chain,
  the rest by ``ordinal``; lines within a conversation are shuffled;
- about 10% of turns are yes-no questions that pass the relaxed rules; the
  turn after one is a yes-only, no-only or mixed direct answer, a polar
  keyword outside the two-sentence window, or an indirect answer, and a
  question may close its conversation with no answer at all;
- wh-questions, questions of at most three tokens, questions without an
  auxiliary and statements carrying polar keywords are all rejected;
- some words are written in decomposed Unicode, so NFC normalization runs.

The generator records the facts the pipeline must reproduce: which turns
match in relaxed and in strict mode, and which label each strict match
distills to.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

AUX = (
    "Do", "Does", "Did", "Don't", "Is", "Isn't", "Are", "Was", "Were",
    "Have", "Has", "Can", "Could", "Will", "Would", "Won't", "Might",
)
VERBS = ("reckon", "expect", "suppose", "believe", "fancy", "figure", "trust", "rate")
WORDS = (
    "garden", "kettle", "ferry", "lantern", "meadow", "orchard", "harbor",
    "pepper", "violin", "canvas", "tunnel", "saddle", "quartz", "willow",
    "copper", "ember", "biscuit", "parcel", "ribbon", "marble",
    "cafe\u0301", "re\u0301sume\u0301",  # decomposed: NFC rewrites them
    "glacier", "compass", "thimble", "lagoon", "pebble",
)
YES_WORDS = ("Yes", "Yeah", "Yep", "Yup", "Sure")
NO_WORDS = ("No", "Nope")

# (kind, weight) of one dialogue unit; a yes-no question unit is two turns.
UNITS = (
    ("yes_no", 0.11), ("wh", 0.08), ("short", 0.06), ("no_aux", 0.05),
    ("polar_statement", 0.10), ("statement", 0.60),
)
# (answer kind, weight) of the turn after a yes-no question.
ANSWERS = (
    ("yes", 0.20), ("no", 0.20), ("mixed", 0.10), ("late", 0.10), ("indirect", 0.40),
)
DIRECT_LABELS = {"yes": "yes", "no": "no", "mixed": None}


@dataclass
class CorpusFacts:
    """What scanning and distilling the corpus must find."""

    turns: int = 0
    relaxed_ids: set[str] = field(default_factory=set)
    strict_ids: set[str] = field(default_factory=set)
    distant_labels: dict[str, str] = field(default_factory=dict)  # question id -> label


def _w(rng: random.Random) -> str:
    return rng.choice(WORDS)


def _turn_text(kind: str, rng: random.Random) -> str:
    if kind == "yes_no":
        return f"{rng.choice(AUX)} you {rng.choice(VERBS)} the {_w(rng)} {_w(rng)}?"
    if kind == "wh":
        wh = rng.choice(("What", "Why", "How", "Where", "When", "Which"))
        return f"{wh} {rng.choice(AUX).lower()} you {rng.choice(VERBS)} about the {_w(rng)}?"
    if kind == "short":
        return rng.choice(("Really?", "You sure?", f"The {_w(rng)}?", "Oh?"))
    if kind == "no_aux":
        return f"You {rng.choice(VERBS)} the {_w(rng)} {_w(rng)} then?"
    if kind == "polar_statement":
        keyword = rng.choice(YES_WORDS + NO_WORDS)
        return f"{keyword}, the {_w(rng)} beat the {_w(rng)} again."
    return f"The {_w(rng)} {_w(rng)} kept the {_w(rng)} going."


def _answer_text(kind: str, rng: random.Random) -> str:
    if kind == "yes":
        return rng.choice((
            f"{rng.choice(YES_WORDS)}, the {_w(rng)} is fine.",
            f"Well. {rng.choice(YES_WORDS)}, the {_w(rng)} will do.",
        ))
    if kind == "no":
        return rng.choice((
            f"{rng.choice(NO_WORDS)}, not the {_w(rng)}.",
            f"Hmm. {rng.choice(NO_WORDS)}. The {_w(rng)} left early.",
        ))
    if kind == "mixed":
        return f"{rng.choice(YES_WORDS)} and {rng.choice(NO_WORDS).lower()}, the {_w(rng)} complicates it."
    if kind == "late":
        return f"Hmm. The {_w(rng)} moved. {rng.choice(YES_WORDS + NO_WORDS)}, I guess."
    return f"The {_w(rng)} {_w(rng)} seems likely."


def _pick(table: tuple, rng: random.Random) -> str:
    kinds, weights = zip(*table)
    return rng.choices(kinds, weights=weights, k=1)[0]


def write_corpus(path: Path, seed: int, total_turns: int) -> CorpusFacts:
    """Write exactly ``total_turns`` turns as utterance JSONL and return the facts."""
    rng = random.Random(f"corpus_scan:{seed}")
    facts = CorpusFacts(turns=total_turns)
    with path.open("w", encoding="utf-8") as handle:
        conv = 0
        remaining = total_turns
        while remaining:
            length = min(rng.randint(10, 40), remaining)
            remaining -= length
            conv_id = f"c{conv:05d}"
            conv += 1
            texts: list[str] = []
            while len(texts) < length:
                kind = _pick(UNITS, rng)
                if kind != "yes_no":
                    texts.append(_turn_text(kind, rng))
                    continue
                qid = f"{conv_id}-t{len(texts):02d}"
                texts.append(_turn_text(kind, rng))
                facts.relaxed_ids.add(qid)
                if len(texts) == length:  # the question closes the conversation
                    continue
                answer = _pick(ANSWERS, rng)
                texts.append(_answer_text(answer, rng))
                if answer in DIRECT_LABELS:
                    facts.strict_ids.add(qid)
                    if DIRECT_LABELS[answer]:
                        facts.distant_labels[qid] = DIRECT_LABELS[answer]
            by_reply = rng.random() < 1 / 3
            records = []
            for i, text in enumerate(texts):
                record = {"id": f"{conv_id}-t{i:02d}", "conversation_id": conv_id,
                          "speaker": "AB"[i % 2], "text": text}
                if by_reply:
                    record["reply_to"] = f"{conv_id}-t{i - 1:02d}" if i else None
                else:
                    record["ordinal"] = i
                records.append(record)
            rng.shuffle(records)
            for record in records:
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return facts
