"""Dialogue corpus ingestion, tokenization, and the label scheme.

Corpora arrive as one JSON object per line with fields
{id, conversation_id, speaker, text, ordinal? | reply_to?, meta?}, where
ordinal is an integer, reply_to a turn id string and meta an object whose
optional dialogue_act is a string; a null optional field counts as absent.
Turn order within a conversation comes from explicit ordinals when every
turn has one, otherwise from the reply_to chain. Text is NFC-normalized
at load time so downstream keyword rules behave consistently across
corpus encodings, and each distinct text is held once: every turn whose
text equals an earlier turn's holds that turn's string object, whether
the two lines spell it alike or NFC folds their spellings together.
"""

from __future__ import annotations

import enum
import gc
import json
import unicodedata
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .errors import CorpusFormatError

# json.dumps(obj, ensure_ascii=False) for the JSONL writers, with one encoder
# for the process instead of a new JSONEncoder per line
encode_json = json.JSONEncoder(ensure_ascii=False).encode


class Label(str, enum.Enum):
    """Three-way interpretation of an answer to a yes-no question.

    Yes includes what Circa and SWDA-IA call Probably yes, which covers
    "sometimes yes" and "yes under certain conditions"; No includes their
    Probably no; Middle is an answer that leans toward neither.
    """

    YES = "yes"
    NO = "no"
    MIDDLE = "middle"

    def __str__(self) -> str:  # keep "yes" rather than "Label.YES" in output
        return self.value


LABEL_ORDER = tuple(Label)  # the order of every model's weight rows and probabilities


# every accepted spelling, lowercased: the three values, and the Circa and
# SWDA-IA labels folded as Label says. Circa's discard labels ("I am not
# sure how to interpret the answer", "Other", "N/A") are refused. A dict
# lookup costs a fifth of Label(value)'s Enum.__call__.
_LABELS_BY_SPELLING = {
    **{label.value: label for label in Label},
    "probably yes": Label.YES,
    "probably yes / sometimes yes": Label.YES,
    "yes, subject to some conditions": Label.YES,
    "probably no": Label.NO,
    "in the middle, neither yes nor no": Label.MIDDLE,
}


def parse_label(value: str) -> Label:
    """The Label a value spells, in any case; a fine-grained Circa or
    SWDA-IA label reads as the label it folds into."""
    label = _LABELS_BY_SPELLING.get(str(value).lower())
    if label is None:
        raise CorpusFormatError(f"not a valid label: {value!r}")
    return label


class Turn(NamedTuple):
    """One utterance. Ordinal is the 0-based position within its dialogue.

    A named tuple: immutable and hashable like a frozen dataclass, and
    several times cheaper to build, which counts at one Turn per line.
    """

    turn_id: str
    dialogue_id: str
    ordinal: int
    speaker: str
    text: str
    dialogue_act: Optional[str] = None


@dataclass(frozen=True)
class Dialogue:
    dialogue_id: str
    turns: tuple[Turn, ...]


@dataclass(frozen=True)
class Corpus:
    dialogues: tuple[Dialogue, ...]

    def __iter__(self):
        return iter(self.dialogues)

    def __len__(self) -> int:
        return len(self.dialogues)

    @property
    def total_turns(self) -> int:
        return sum(len(d.turns) for d in self.dialogues)

    def turn_index(self) -> dict[str, Turn]:
        return {t.turn_id: t for d in self.dialogues for t in d.turns}


# Punctuation detached from word edges during tokenization. Apostrophes
# stay attached so contractions like "don't" remain single tokens.
_DETACHED_PUNCT = set("?.,!;:\"()[]")


def tokenize(text: str) -> list[str]:
    """Split on whitespace, then detach leading/trailing punctuation.

    "Do you like Mexican food?" -> ["Do","you","like","Mexican","food","?"]
    Case is preserved; callers lowercase when they need to.
    """
    tokens: list[str] = []
    for chunk in text.split():
        lead: list[str] = []
        while chunk and chunk[0] in _DETACHED_PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and chunk[-1] in _DETACHED_PUNCT:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


class _ChunkTokens(dict):
    """Whitespace chunk -> its lowercased tokens, tokenized on the chunk's
    first lookup only. The lists it holds must not be mutated."""

    __slots__ = ()

    def __missing__(self, chunk: str) -> list[str]:
        tokens = self[chunk] = [t.lower() for t in tokenize(chunk)]
        return tokens


# one table for the process: a chunk's tokens depend on the chunk alone,
# since tokenize handles each whitespace chunk on its own, so threads that
# miss on one chunk at once only store equal lists twice
_CHUNK_TOKENS = _ChunkTokens()


def lowered_tokens(text: str) -> list[str]:
    """The lowercased tokens of text, each distinct whitespace chunk
    tokenized once per process."""
    tokens: list[str] = []
    chunk_tokens = _CHUNK_TOKENS
    for chunk in text.split():
        tokens += chunk_tokens[chunk]
    return tokens


def _refusal(line: str) -> str:
    """Why line is not a JSON object, worded by json.loads (a BOM too)."""
    try:
        json.loads(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON ({exc.msg})"
    except ValueError as exc:  # a number too long to convert
        return f"invalid JSON ({exc})"
    except RecursionError:
        return "invalid JSON (nested too deeply)"
    return "expected a JSON object"


def line_at(path: Union[str, Path], lineno: int) -> str:
    """Where line lineno of path is, as every refusal of a line names it."""
    return f"{path}: line {lineno}"


def iter_jsonl(
    path: Union[str, Path],
    parse: Optional[Callable[[dict], object]] = None,
    memo: Optional[dict[bytes, object]] = None,
) -> Iterator[tuple[int, object]]:
    """Yield (lineno, value) for each non-blank line of a JSONL file,
    counting lines from 1.

    A line that is not UTF-8, not JSON, or not a JSON object raises
    CorpusFormatError prefixed by line_at(path, lineno). value is the
    object, or parse(object) when parse is given; a CorpusFormatError that
    parse raises gets the same prefix. A caller that refuses a line itself
    prefixes line_at(path, lineno) to its message, so that no location is
    formatted for a line that passes. memo (raw line bytes -> value),
    shared by the calls of one run, decodes and parses each distinct line
    once: a repeat yields the value of its first copy, whose bytes passed
    every check already.

    Lines go straight to json's C scanner, without JSONDecoder.decode's
    frame and regexes; its refusals are terse, so a line it refuses or
    reads only a prefix of is decoded again by json.loads to word why.
    """
    scan = json.JSONDecoder().scan_once
    with Path(path).open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if memo is not None:
                value = memo.get(raw)
                if value is not None:
                    yield lineno, value
                    continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"{line_at(path, lineno)}: not UTF-8 ({exc.reason})") from None
            if line.isspace():  # a line read from a file is never empty
                continue
            body = line.strip(" \t\n\r")  # JSON's whitespace only, as decode skips
            try:
                obj, end = scan(body, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(body) or type(obj) is not dict:
                raise CorpusFormatError(f"{line_at(path, lineno)}: {_refusal(line)}")
            if parse is None:
                value = obj
            else:
                try:
                    value = parse(obj)
                except CorpusFormatError as exc:
                    raise CorpusFormatError(f"{line_at(path, lineno)}: {exc}") from None
            if memo is not None:
                memo[raw] = value
            yield lineno, value


def _require(obj: dict, key: str, path: Union[str, Path], lineno: int):
    if key not in obj:
        raise CorpusFormatError(f"{line_at(path, lineno)}: missing key {key!r}")
    return obj[key]


def _wrong_type(path: Union[str, Path], lineno: int, key: str, expected: str, value) -> CorpusFormatError:
    return CorpusFormatError(f"{line_at(path, lineno)}: {key!r} must be {expected}, got {value!r}")


_REQUIRED_KEYS = ("id", "conversation_id", "speaker", "text")
_get_required = itemgetter(*_REQUIRED_KEYS)  # raises KeyError on the first missing key


def _order_by_reply_chain(rows: list[tuple], conversation_id: str) -> list[tuple]:
    """Linearize a conversation's rows (turn_id, speaker, text, act, reply_to)."""
    by_id = {row[0]: row for row in rows}
    roots = [row for row in rows if row[-1] in (None, "")]
    if len(roots) != 1:
        raise CorpusFormatError(
            f"conversation {conversation_id!r}: expected exactly one root turn "
            f"(reply_to null), found {len(roots)}"
        )
    children: dict[str, list[str]] = {}
    for row in rows:
        turn_id, parent = row[0], row[-1]
        if parent in (None, ""):
            continue
        if parent not in by_id:
            raise CorpusFormatError(
                f"conversation {conversation_id!r}: turn {turn_id!r} replies to "
                f"unknown turn {parent!r}"
            )
        children.setdefault(parent, []).append(turn_id)
    ordered = [roots[0]]
    while True:
        nxt = children.get(ordered[-1][0], [])
        if not nxt:
            break
        if len(nxt) > 1:
            raise CorpusFormatError(
                f"conversation {conversation_id!r}: turn {ordered[-1][0]!r} "
                f"has multiple replies; chain is not linear"
            )
        ordered.append(by_id[nxt[0]])
    if len(ordered) != len(rows):
        missing = sorted(set(by_id) - {row[0] for row in ordered})
        raise CorpusFormatError(
            f"conversation {conversation_id!r}: turn {missing[0]!r} is not "
            f"reachable from the root reply chain"
        )
    return ordered


def load_corpus(path: Union[str, Path]) -> Corpus:
    """Load an utterance-JSONL file into an immutable Corpus.

    Dialogues are ordered lexicographically by id, turns by ordinal. A line
    with an ordinal is its Turn from the start, a reply_to line a row until
    its chain is ordered: the peak holds each turn once, plus the turn ids
    and a table from each distinct raw text to its checked text. Turns with
    equal texts share one string object. A text already in the table skips
    the NFC normalization (and its isascii test) and the empty-text check,
    which it passed at its first line.
    """
    # the load keeps nearly every object it builds, so a cyclic collection
    # during it would rescan a growing heap and free nothing; pause them
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_corpus(path)
    finally:
        if gc_was_enabled:
            gc.enable()


def _load_corpus(path: Union[str, Path]) -> Corpus:
    # the load peaks as its line loop ends, where seen_ids is the largest
    # transient; CPython's dict holds 6k to 150k keys in less than its set
    seen_ids: dict[str, None] = {}
    texts: dict[str, str] = {}  # raw text -> its checked NFC text, one object per distinct text
    by_ordinal: dict[str, list[Turn]] = {}
    by_reply: defaultdict[str, list[tuple]] = defaultdict(list)
    normalize = unicodedata.normalize
    new_tuple = tuple.__new__  # fills a Turn without its Python-level __new__
    for lineno, obj in iter_jsonl(path):
        try:
            turn_id, conv_id, speaker, text = _get_required(obj)
        except KeyError as exc:
            raise CorpusFormatError(f"{line_at(path, lineno)}: missing key {exc.args[0]!r}") from None
        if not (type(turn_id) is type(conv_id) is type(speaker) is type(text) is str):
            key = next(key for key in _REQUIRED_KEYS if type(obj[key]) is not str)
            raise _wrong_type(path, lineno, key, "a string", obj[key])
        checked = texts.get(text)
        if checked is not None:  # passed the checks below at its first line
            text = checked
        else:
            raw = text
            if not text.isascii():  # NFC leaves ASCII as it is
                # spellings that NFC folds together share the first one's object
                text = normalize("NFC", text)
                text = texts.setdefault(text, text)
            if not text or text.isspace():
                raise CorpusFormatError(f"{line_at(path, lineno)}: turn {turn_id!r} has empty text")
            texts[raw] = text
        if turn_id in seen_ids:
            raise CorpusFormatError(f"{line_at(path, lineno)}: duplicate turn id {turn_id!r}")
        seen_ids[turn_id] = None
        # optional fields, null meaning absent; checked inline since this
        # runs once per line; `type(...) is int` also rejects a boolean
        ordinal = obj.get("ordinal")
        if ordinal is not None and type(ordinal) is not int:
            raise _wrong_type(path, lineno, "ordinal", "an integer", ordinal)
        reply_to = obj.get("reply_to")
        if reply_to is not None and type(reply_to) is not str:
            raise _wrong_type(path, lineno, "reply_to", "a string", reply_to)
        meta = obj.get("meta")
        act = None
        if meta is not None:
            if type(meta) is not dict:
                raise _wrong_type(path, lineno, "meta", "a JSON object", meta)
            act = meta.get("dialogue_act")
            if act is not None and type(act) is not str:
                raise _wrong_type(path, lineno, "meta.dialogue_act", "a string", act)
        if ordinal is None:
            by_reply[conv_id].append((turn_id, speaker, text, act, reply_to))
        elif turns := by_ordinal.get(conv_id):  # a dialogue's Turns share one id string
            turns.append(new_tuple(Turn, (turn_id, turns[0].dialogue_id, ordinal, speaker, text, act)))
        else:
            by_ordinal[conv_id] = [new_tuple(Turn, (turn_id, conv_id, ordinal, speaker, text, act))]
    del seen_ids, texts

    dialogues = []
    for conv_id in sorted(by_ordinal.keys() | by_reply.keys()):
        if conv_id in by_ordinal and conv_id in by_reply:
            raise CorpusFormatError(
                f"conversation {conv_id!r}: mixes explicit ordinals with "
                f"reply_to ordering"
            )
        turns = by_ordinal.pop(conv_id, None)
        if turns is not None:
            turns.sort(key=attrgetter("ordinal"))
            if [t.ordinal for t in turns] != list(range(len(turns))):
                raise CorpusFormatError(
                    f"conversation {conv_id!r}: ordinals must be consecutive "
                    f"from 0, got {[t.ordinal for t in turns]}"
                )
        else:
            ordered = _order_by_reply_chain(by_reply.pop(conv_id), conv_id)
            turns = [new_tuple(Turn, (turn_id, conv_id, i, speaker, text, act))
                     for i, (turn_id, speaker, text, act, _) in enumerate(ordered)]
        dialogues.append(Dialogue(dialogue_id=turns[0].dialogue_id, turns=tuple(turns)))
    return Corpus(dialogues=tuple(dialogues))


def save_corpus(corpus: Corpus, path: Union[str, Path]) -> None:
    """Write a Corpus back to utterance JSONL (the load_corpus schema)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for dialogue in corpus.dialogues:
            for turn in dialogue.turns:
                obj: dict = {
                    "id": turn.turn_id,
                    "conversation_id": turn.dialogue_id,
                    "speaker": turn.speaker,
                    "text": turn.text,
                    "ordinal": turn.ordinal,
                }
                if turn.dialogue_act is not None:
                    obj["meta"] = {"dialogue_act": turn.dialogue_act}
                handle.write(encode_json(obj) + "\n")

