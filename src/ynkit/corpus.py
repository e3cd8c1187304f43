"""Dialogue corpus ingestion, tokenization, and label normalization.

Corpora arrive as one JSON object per line with fields
{id, conversation_id, speaker, text, ordinal? | reply_to?, meta?}, where
ordinal is an integer, reply_to a turn id string and meta an object whose
optional dialogue_act is a string; a null optional field counts as absent.
Turn order within a conversation comes from explicit ordinals when every
turn has one, otherwise from the reply_to chain. Text is NFC-normalized
at load time so downstream keyword rules behave consistently across
corpus encodings.
"""

from __future__ import annotations

import enum
import gc
import json
import unicodedata
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .errors import CorpusFormatError, InvalidConfigError


class Label(str, enum.Enum):
    """Three-way interpretation of an answer to a yes-no question."""

    YES = "yes"
    NO = "no"
    MIDDLE = "middle"

    def __str__(self) -> str:  # keep "yes" rather than "Label.YES" in output
        return self.value


LABEL_ORDER = tuple(Label)  # the order of every model's weight rows and probabilities


# a dict lookup costs a fifth of Label(value)'s Enum.__call__
_LABELS_BY_VALUE = {label.value: label for label in Label}


def parse_label(value: str) -> Label:
    label = _LABELS_BY_VALUE.get(str(value).lower())
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


def iter_jsonl(
    path: Union[str, Path],
    parse: Optional[Callable[[str, dict], object]] = None,
    memo: Optional[dict[bytes, object]] = None,
) -> Iterator[tuple[str, object]]:
    """Yield (where, value) for each non-blank line of a JSONL file.

    where reads "{path}: line N"; a line that is not UTF-8, not JSON, or
    not a JSON object raises CorpusFormatError prefixed by it. value is the
    object, or parse(where, object) when parse is given. memo (raw line
    bytes -> value), shared by the calls of one run, decodes and parses
    each distinct line once: a repeat yields the value of its first copy,
    whose bytes passed every check already.

    Lines go straight to json's C scanner, without JSONDecoder.decode's
    frame and regexes; its refusals are terse, so a line it refuses or
    reads only a prefix of is decoded again by json.loads to word why.
    """
    scan = json.JSONDecoder().scan_once
    prefix = f"{path}: line "
    with Path(path).open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if memo is not None:
                value = memo.get(raw)
                if value is not None:
                    yield prefix + str(lineno), value
                    continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"{prefix}{lineno}: not UTF-8 ({exc.reason})") from None
            if line.isspace():  # a line read from a file is never empty
                continue
            body = line.strip(" \t\n\r")  # JSON's whitespace only, as decode skips
            try:
                obj, end = scan(body, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(body) or type(obj) is not dict:
                raise CorpusFormatError(f"{prefix}{lineno}: {_refusal(line)}")
            where = prefix + str(lineno)
            value = obj if parse is None else parse(where, obj)
            if memo is not None:
                memo[raw] = value
            yield where, value


def first_line_without(path: Union[str, Path], key: str) -> str:
    """The "{path}: line N" of the first record in path whose key is absent
    or null; the readers keep no line numbers, so this reads path again."""
    return next(where for where, obj in iter_jsonl(path) if obj.get(key) is None)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise CorpusFormatError(f"{where}: missing key {key!r}")
    return obj[key]


def _wrong_type(where: str, key: str, expected: str, value) -> CorpusFormatError:
    return CorpusFormatError(f"{where}: {key!r} must be {expected}, got {value!r}")


_REQUIRED_KEYS = ("id", "conversation_id", "speaker", "text")
_get_required = itemgetter(*_REQUIRED_KEYS)  # raises KeyError on the first missing key

# load_corpus keeps each line as a tuple of these fields until its
# conversation is ordered
_ID, _SPEAKER, _TEXT, _ACT, _ORDINAL, _REPLY_TO = range(6)


def _order_by_reply_chain(raw_turns: list[tuple], conversation_id: str) -> list[tuple]:
    """Linearize a conversation whose turns carry reply_to references."""
    by_id = {t[_ID]: t for t in raw_turns}
    roots = [t for t in raw_turns if t[_REPLY_TO] in (None, "")]
    if len(roots) != 1:
        raise CorpusFormatError(
            f"conversation {conversation_id!r}: expected exactly one root turn "
            f"(reply_to null), found {len(roots)}"
        )
    children: dict[str, list[str]] = {}
    for t in raw_turns:
        turn_id, parent = t[_ID], t[_REPLY_TO]
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
        nxt = children.get(ordered[-1][_ID], [])
        if not nxt:
            break
        if len(nxt) > 1:
            raise CorpusFormatError(
                f"conversation {conversation_id!r}: turn {ordered[-1][_ID]!r} "
                f"has multiple replies; chain is not linear"
            )
        ordered.append(by_id[nxt[0]])
    if len(ordered) != len(raw_turns):
        missing = sorted(set(by_id) - {t[_ID] for t in ordered})
        raise CorpusFormatError(
            f"conversation {conversation_id!r}: turn {missing[0]!r} is not "
            f"reachable from the root reply chain"
        )
    return ordered


def load_corpus(path: Union[str, Path]) -> Corpus:
    """Load an utterance-JSONL file into an immutable Corpus.

    Dialogues are ordered lexicographically by id, turns by ordinal.
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
    seen_ids: set[str] = set()
    conversations: defaultdict[str, list[tuple]] = defaultdict(list)
    normalize = unicodedata.normalize
    new_tuple = tuple.__new__
    for where, obj in iter_jsonl(path):
        try:
            turn_id, conv_id, speaker, text = _get_required(obj)
        except KeyError as exc:
            raise CorpusFormatError(f"{where}: missing key {exc.args[0]!r}") from None
        if not (type(turn_id) is type(conv_id) is type(speaker) is type(text) is str):
            key = next(key for key in _REQUIRED_KEYS if type(obj[key]) is not str)
            raise _wrong_type(where, key, "a string", obj[key])
        if not text.isascii():  # NFC leaves ASCII as it is
            text = normalize("NFC", text)
        if not text or text.isspace():
            raise CorpusFormatError(f"{where}: turn {turn_id!r} has empty text")
        if turn_id in seen_ids:
            raise CorpusFormatError(f"{where}: duplicate turn id {turn_id!r}")
        seen_ids.add(turn_id)
        # optional fields, null meaning absent; checked inline since this
        # runs once per line; `type(...) is int` also rejects a boolean
        ordinal = obj.get("ordinal")
        if ordinal is not None and type(ordinal) is not int:
            raise _wrong_type(where, "ordinal", "an integer", ordinal)
        reply_to = obj.get("reply_to")
        if reply_to is not None and type(reply_to) is not str:
            raise _wrong_type(where, "reply_to", "a string", reply_to)
        meta = obj.get("meta")
        act = None
        if meta is not None:
            if type(meta) is not dict:
                raise _wrong_type(where, "meta", "a JSON object", meta)
            act = meta.get("dialogue_act")
            if act is not None and type(act) is not str:
                raise _wrong_type(where, "meta.dialogue_act", "a string", act)
        conversations[conv_id].append((turn_id, speaker, text, act, ordinal, reply_to))

    dialogues = []
    for conv_id in sorted(conversations):
        raw_turns = conversations[conv_id]
        if all(t[_ORDINAL] is not None for t in raw_turns):
            raw_turns.sort(key=itemgetter(_ORDINAL))
            ordinals = [t[_ORDINAL] for t in raw_turns]
            if ordinals != list(range(len(raw_turns))):
                raise CorpusFormatError(
                    f"conversation {conv_id!r}: ordinals must be consecutive "
                    f"from 0, got {ordinals}"
                )
        elif all(t[_ORDINAL] is None for t in raw_turns):
            raw_turns = _order_by_reply_chain(raw_turns, conv_id)
        else:
            raise CorpusFormatError(
                f"conversation {conv_id!r}: mixes explicit ordinals with "
                f"reply_to ordering"
            )
        # tuple.__new__ fills a Turn without its Python-level __new__
        turns = tuple(
            [
                new_tuple(Turn, (turn_id, conv_id, i, speaker, text, act))
                for i, (turn_id, speaker, text, act, _, _) in enumerate(raw_turns)
            ]
        )
        dialogues.append(Dialogue(dialogue_id=conv_id, turns=turns))
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
                handle.write(json.dumps(obj, ensure_ascii=False) + "\n")


# -- fine-grained label normalization --

_MAP_TARGETS = {"yes": Label.YES, "no": Label.NO, "middle": Label.MIDDLE, "discard": None}


def read_label_map(path: Union[str, Path]) -> dict[str, Optional[Label]]:
    """Read a two-column TSV, source_label TAB yes|no|middle|discard, into
    a dict from source label to Label, or to None for discard."""
    mapping: dict[str, Optional[Label]] = {}
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: expected 2 tab-separated columns"
                )
            source, target = parts
            key = target.strip().lower()
            if key not in _MAP_TARGETS:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: label map target must be "
                    f"yes/no/middle/discard, got {target!r}"
                )
            mapping[source] = _MAP_TARGETS[key]
    return mapping


def normalize_label(source_label: str, label_map: dict[str, Optional[Label]]) -> Optional[Label]:
    """Map a fine-grained source label to Label, or None for Discard."""
    if source_label not in label_map:
        raise CorpusFormatError(f"no mapping for source label {source_label!r}")
    return label_map[source_label]


def bundled_label_map(name: str) -> dict[str, Optional[Label]]:
    """Load one of the label maps shipped with the package ("circa", "swda_ia")."""
    data_dir = Path(__file__).parent / "data"
    path = data_dir / f"{name}_label_map.tsv"
    if not path.exists():
        available = sorted(p.stem.replace("_label_map", "") for p in data_dir.glob("*_label_map.tsv"))
        raise InvalidConfigError(f"no bundled label map {name!r}; available: {available}")
    return read_label_map(path)
