"""Yes-no question identification over dialogue corpora.

Three modes:
  relaxed      question-side lexical rules only
  strict       relaxed rules plus a direct-answer check on the next turn
  dialogue_act gold dialogue-act tags, the SWDA and MRDA sets together

The rule grammar is fixed by module constants: AUXILIARY_VERBS, WH_WORDS,
MIN_TOKENS_EXCLUSIVE and YES_NO_ACTS. Matching is whole-token on
lowercased text; contractions such as "don't" are single tokens, so the
auxiliary list enumerates negated forms explicitly and "no" never fires
inside "nobody".

An answer's sentence ends with a whitespace chunk (of str.split) whose
last character is '.', '?' or '!': "Really?!" and "e.g." each end one.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from . import corpus as _corpus
from .corpus import Corpus, Turn, _require, encode_json, iter_jsonl, line_at, lowered_tokens
from .errors import CorpusFormatError, InvalidConfigError

AUXILIARY_VERBS = frozenset(
    {
        "do", "does", "did", "don't", "doesn't", "didn't",
        "is", "isn't", "are", "aren't", "was", "wasn't", "were", "weren't",
        "have", "haven't", "has", "hasn't",
        "can", "can't", "could", "couldn't",
        "will", "won't", "would", "wouldn't",
        "may", "might",
    }
)

WH_WORDS = frozenset(
    {"what", "when", "where", "which", "who", "whom", "whose", "why", "how"}
)

# a relaxed match has more than this many tokens
MIN_TOKENS_EXCLUSIVE = 3

# Polar keywords of a direct answer, matched as whole lowercased tokens in
# its first ANSWER_SENTENCE_WINDOW sentences. Only answer_polarity reads
# them; the strict rule and distant labeling both call it, so every
# labeled answer is a direct answer.
YES_KEYWORDS = frozenset({"yes", "yea", "yup", "yep", "yeah", "sure"})
NO_KEYWORDS = frozenset({"no", "nope"})
ANSWER_SENTENCE_WINDOW = 2

# Dialogue-act tags marking yes-no questions, matched verbatim.
SWDA_YES_NO_ACTS = frozenset(
    {
        "qh", "qy", "qy^d", "^g", "qy^t", "qy^r", "qy^m", "qy^h", "qy^c",
        "qy^2", "qy(^q)", "qy^g", "qy^g^t", "qy^g^r", "qy^g^c",
        "qy^d^t", "qy^d^r", "qy^d^m", "qy^d^h", "qy^d^c", "qy^d(^q)",
        "qy^c^r",
    }
)

MRDA_YES_NO_ACTS = frozenset({"qy", "g"})
YES_NO_ACTS = SWDA_YES_NO_ACTS | MRDA_YES_NO_ACTS

MODES = ("relaxed", "strict", "dialogue_act")


@dataclass(frozen=True, slots=True)
class QidMatch:
    question: Turn
    answer: Optional[Turn]  # next turn in the same dialogue, when it exists
    mode: str


@dataclass(frozen=True)
class QidStats:
    total_turns: int
    match_count: int
    precision_sample: tuple[QidMatch, ...]


def is_yes_no_question_relaxed(turn: Turn) -> bool:
    """Question-side rules: auxiliary present, no wh-word, more than
    MIN_TOKENS_EXCLUSIVE tokens, and text ends in '?'."""
    stripped = turn.text.rstrip()
    if not stripped.endswith("?"):
        return False
    tokens = lowered_tokens(turn.text)
    if len(tokens) <= MIN_TOKENS_EXCLUSIVE:
        return False
    if not WH_WORDS.isdisjoint(tokens):
        return False
    return not AUXILIARY_VERBS.isdisjoint(tokens)


def answer_window_tokens(text: str) -> list[str]:
    """Lowercased tokens of the first ANSWER_SENTENCE_WINDOW sentences."""
    tokens: list[str] = []
    chunk_tokens = _corpus._CHUNK_TOKENS  # lowered_tokens' table
    ends = 0
    for chunk in text.split():
        tokens += chunk_tokens[chunk]
        ends += chunk[-1] in ".?!"
        if ends == ANSWER_SENTENCE_WINDOW:
            break
    return tokens


def answer_polarity(text: str) -> tuple[bool, bool]:
    """(saw_yes, saw_no) over answer_window_tokens(text): the one reader of the lexicon."""
    tokens = answer_window_tokens(text)
    return not YES_KEYWORDS.isdisjoint(tokens), not NO_KEYWORDS.isdisjoint(tokens)


def has_direct_answer(next_turn: Turn) -> bool:
    """True iff the turn's answer window holds a yes or no keyword."""
    return any(answer_polarity(next_turn.text))


def scan_corpus(
    corpus: Corpus,
    mode: str,
    sample_size: int = 200,
    seed: int = 0,
) -> tuple[list[QidMatch], QidStats]:
    """Scan every turn, in (dialogue_id, ordinal) order, for yes-no questions.

    Strict mode requires a next turn in the same dialogue that passes
    has_direct_answer; the next-turn lookup never crosses dialogue
    boundaries. The precision sample is drawn uniformly without
    replacement, seeded, for manual audit.
    """
    if mode not in MODES:
        raise InvalidConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if sample_size < 0:
        raise InvalidConfigError(f"sample_size must be >= 0, got {sample_size}")
    if mode == "dialogue_act" and all(t.dialogue_act is None for d in corpus for t in d.turns):
        raise CorpusFormatError("corpus carries no dialogue-act annotations")

    matches: list[QidMatch] = []
    for dialogue in corpus:
        for i, turn in enumerate(dialogue.turns):
            next_turn = dialogue.turns[i + 1] if i + 1 < len(dialogue.turns) else None
            if mode == "dialogue_act":
                if turn.dialogue_act not in YES_NO_ACTS:  # an unannotated turn too
                    continue
            elif not is_yes_no_question_relaxed(turn):
                continue
            if mode == "strict" and (next_turn is None or not has_direct_answer(next_turn)):
                continue
            matches.append(QidMatch(question=turn, answer=next_turn, mode=mode))

    k = min(sample_size, len(matches))
    sample = tuple(random.Random(seed).sample(matches, k))
    stats = QidStats(
        total_turns=corpus.total_turns,
        match_count=len(matches),
        precision_sample=sample,
    )
    return matches, stats


def write_matches(matches: list[QidMatch], path: Union[str, Path]) -> None:
    """Write matches as JSONL: {dialogue_id, question_turn_id, answer_turn_id?, mode}."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for m in matches:
            obj = {
                "dialogue_id": m.question.dialogue_id,
                "question_turn_id": m.question.turn_id,
                "mode": m.mode,
            }
            if m.answer is not None:
                obj["answer_turn_id"] = m.answer.turn_id
            handle.write(encode_json(obj) + "\n")


def load_matches(path: Union[str, Path], corpus: Corpus) -> list[QidMatch]:
    """Resolve a matches JSONL file back against its corpus. Each match needs
    an answer turn, the turn right after its question, as scan_corpus pairs them,
    and a mode in MODES if any (relaxed if none). The question is looked for in
    its line's dialogue after the previous line's answer there, as write_matches
    orders them: the peak holds the corpus, a dict of dialogues and the matches.
    From a line without dialogue_id or a lookup that misses on, a whole-corpus
    turn index resolves every line and words its errors."""
    by_dialogue = {d.dialogue_id: d.turns for d in corpus}
    index: Optional[dict[str, Turn]] = None
    turns, start = (), 0  # the last looked-up dialogue, and where to look next

    def turn(turn_id, role: str, lineno: int) -> Turn:
        if not isinstance(turn_id, str) or turn_id not in index:
            raise CorpusFormatError(f"{line_at(path, lineno)}: {role} turn {turn_id!r} not in corpus")
        return index[turn_id]

    matches = []
    for lineno, obj in iter_jsonl(path):
        question_id = _require(obj, "question_turn_id", path, lineno)
        dialogue_id, question = obj.get("dialogue_id"), None
        if index is None and type(dialogue_id) is str:
            named = by_dialogue.get(dialogue_id, ())
            turns, start = named, (start if named is turns else 0)
            i = next((i for i in range(start, len(turns) - 1) if turns[i].turn_id == question_id), None)
            if i is not None and turns[i + 1].turn_id == obj.get("answer_turn_id"):
                question, answer, start = turns[i], turns[i + 1], i + 1
        if question is None:
            index = index or corpus.turn_index()
            question = turn(question_id, "question", lineno)
            if obj.get("dialogue_id", question.dialogue_id) != question.dialogue_id:
                raise CorpusFormatError(
                    f"{line_at(path, lineno)}: dialogue_id {obj['dialogue_id']!r} is not the dialogue of "
                    f"question turn {question.turn_id!r} ({question.dialogue_id!r})"
                )
            if obj.get("answer_turn_id") is None:
                raise CorpusFormatError(
                    f"{line_at(path, lineno)}: match on turn {question.turn_id!r} has no answer turn"
                )
            answer = turn(obj["answer_turn_id"], "answer", lineno)
            if (answer.dialogue_id, answer.ordinal) != (question.dialogue_id, question.ordinal + 1):
                raise CorpusFormatError(
                    f"{line_at(path, lineno)}: answer turn {answer.turn_id!r} is not the turn after "
                    f"question turn {question.turn_id!r} in its dialogue"
                )
        mode = obj.get("mode", "relaxed")
        if mode not in MODES:
            raise CorpusFormatError(f"{line_at(path, lineno)}: mode must be one of {MODES}, got {mode!r}")
        matches.append(QidMatch(question=question, answer=answer, mode=mode))
    return matches


def write_audit_sample(stats: QidStats, path: Union[str, Path]) -> None:
    """Export the precision sample as a reviewable TSV (question, answer,
    dialogue_id); the precision judgment itself stays manual."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
        writer.writerow(["question", "answer", "dialogue_id"])
        for m in stats.precision_sample:
            writer.writerow(
                [m.question.text, m.answer.text if m.answer else "", m.question.dialogue_id]
            )
