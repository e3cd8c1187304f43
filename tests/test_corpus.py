import gc
import json
import random
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ynkit.corpus import (
    Label,
    Turn,
    iter_jsonl,
    load_corpus,
    lowered_tokens,
    parse_label,
    save_corpus,
    tokenize,
)
from ynkit.errors import CorpusFormatError

from oracles import naive_load_corpus, naive_split_sentences


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def test_load_minimal_two_turn_conversation(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "t1", "conversation_id": "c1", "speaker": "A", "text": "Hi there.", "ordinal": 0},
            {"id": "t2", "conversation_id": "c1", "speaker": "B", "text": "Hello.", "ordinal": 1},
        ],
    )
    corpus = load_corpus(path)
    assert len(corpus) == 1
    assert [t.turn_id for t in corpus.dialogues[0].turns] == ["t1", "t2"]


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert len(load_corpus(path)) == 0


def test_missing_text_key_reports_line(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "t1", "conversation_id": "c1", "speaker": "A", "text": "ok", "ordinal": 0},
            {"id": "t2", "conversation_id": "c1", "speaker": "B", "ordinal": 1},
        ],
    )
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "t1"\nnot json\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 1"):
        load_corpus(path)


def test_iter_jsonl_names_file_and_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"a": 1}\n\n  \n{"b": 2}\n')
    assert list(iter_jsonl(path)) == [(1, {"a": 1}), (4, {"b": 2})]
    cases = [
        (b'{"a": 1}\n[1, 2]\n', "expected a JSON object"),
        (b'{"a": 1}\n{"a": \n', "invalid JSON"),
        (b'{"a": 1}\n{"a": "\xff"}\n', "not UTF-8"),
        (b'{"a": 1}\n\xef\xbb\xbf{"a": 2}\n', re.escape("invalid JSON (Unexpected UTF-8 BOM")),
    ]
    if hasattr(sys, "get_int_max_str_digits"):  # json raises ValueError past this cap
        cases.append((b'{"a": 1}\n{"a": ' + b"7" * 5000 + b"}\n",
                      re.escape("invalid JSON (Exceeds the limit")))
    for body, reason in cases:
        path.write_bytes(body)
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: line 2: {reason}"):
            list(iter_jsonl(path))
    # lines json's scanner alone would read otherwise: trailing data, whitespace
    # JSON does not skip, CRLF ends and values json reads its own way; each
    # gives json.loads's value or its message
    lines = ['{"a": 1} {"b": 2}', '{"a": 1}x', '\x0b{"a": 1}', '{"a": 1}\x0b', '\xa0{"a": 1}',
             '{"a": 1}\u2028', '{"a": NaN, "b": -Infinity}', '{"a": 1e400}', '{"a": "\\ud800"}',
             '{"a": 1, "a": 2}']
    for line in lines:
        for end in ("\n", "\r\n"):
            path.write_bytes(f'{{"z": 0}}{end}{line}{end}'.encode("utf-8"))
            try:
                expected = (2, repr(json.loads(line + end)))
            except json.JSONDecodeError as exc:
                expected = f"{path}: line 2: invalid JSON ({exc.msg})"
            try:
                lineno, obj = list(iter_jsonl(path))[1]
                got = (lineno, repr(obj))  # by repr, since nan != nan
            except CorpusFormatError as exc:
                got = str(exc)
            assert got == expected, (line, end)


def test_duplicate_turn_id_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "t1", "conversation_id": "c1", "speaker": "A", "text": "a", "ordinal": 0},
            {"id": "t1", "conversation_id": "c1", "speaker": "B", "text": "b", "ordinal": 1},
        ],
    )
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_corpus(path)


def test_empty_text_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [{"id": "t1", "conversation_id": "c1", "speaker": "A", "text": "   ", "ordinal": 0}],
    )
    with pytest.raises(CorpusFormatError, match="empty text"):
        load_corpus(path)


def test_non_consecutive_ordinals_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "t1", "conversation_id": "c1", "speaker": "A", "text": "a", "ordinal": 0},
            {"id": "t2", "conversation_id": "c1", "speaker": "B", "text": "b", "ordinal": 2},
        ],
    )
    with pytest.raises(CorpusFormatError, match="consecutive"):
        load_corpus(path)


def test_reply_chain_ordering(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "t3", "conversation_id": "c1", "speaker": "A", "text": "third", "reply_to": "t2"},
            {"id": "t1", "conversation_id": "c1", "speaker": "A", "text": "first", "reply_to": None},
            {"id": "t2", "conversation_id": "c1", "speaker": "B", "text": "second", "reply_to": "t1"},
        ],
    )
    corpus = load_corpus(path)
    turns = corpus.dialogues[0].turns
    assert [t.text for t in turns] == ["first", "second", "third"]
    assert [t.ordinal for t in turns] == [0, 1, 2]


def test_broken_reply_chain_names_turn(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "t1", "conversation_id": "c1", "speaker": "A", "text": "a", "reply_to": None},
            {"id": "t2", "conversation_id": "c1", "speaker": "B", "text": "b", "reply_to": "missing"},
        ],
    )
    with pytest.raises(CorpusFormatError, match="t2"):
        load_corpus(path)


def test_mixed_ordering_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "t1", "conversation_id": "c1", "speaker": "A", "text": "a", "ordinal": 0},
            {"id": "t2", "conversation_id": "c1", "speaker": "B", "text": "b", "reply_to": "t1"},
        ],
    )
    with pytest.raises(CorpusFormatError, match="mixes"):
        load_corpus(path)


def _two_turns(second: dict) -> list[dict]:
    return [
        {"id": "t1", "conversation_id": "c1", "speaker": "A", "text": "a", "ordinal": 0},
        {"id": "t2", "conversation_id": "c1", "speaker": "B", "text": "b", "ordinal": 1, **second},
    ]


@pytest.mark.parametrize(
    "second, needle",
    [
        ({"ordinal": "x"}, "'ordinal' must be an integer, got 'x'"),
        ({"ordinal": True}, "'ordinal' must be an integer, got True"),
        ({"ordinal": 0.5}, "'ordinal' must be an integer, got 0.5"),
        ({"meta": "qy"}, "'meta' must be a JSON object, got 'qy'"),
        ({"meta": []}, "'meta' must be a JSON object, got []"),
        ({"meta": {"dialogue_act": ["qy"]}}, "'meta.dialogue_act' must be a string, got ['qy']"),
        ({"reply_to": ["t1"]}, "'reply_to' must be a string, got ['t1']"),
    ],
)
def test_wrong_typed_optional_field_names_line(tmp_path, second, needle):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, _two_turns(second))
    with pytest.raises(CorpusFormatError) as excinfo:
        load_corpus(path)
    assert str(excinfo.value) == f"{path}: line 2: {needle}"


@pytest.mark.parametrize("key", ["id", "conversation_id", "speaker", "text"])
@pytest.mark.parametrize("value", [None, 7, True, ["a"], {"k": "v"}])
def test_required_field_must_be_a_string(tmp_path, key, value):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, _two_turns({key: value}))
    with pytest.raises(CorpusFormatError) as excinfo:
        load_corpus(path)
    assert str(excinfo.value) == f"{path}: line 2: {key!r} must be a string, got {value!r}"


def test_first_wrong_typed_required_field_is_named(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, _two_turns({"text": None, "speaker": 1, "ordinal": "x"}))
    with pytest.raises(CorpusFormatError, match="^.*line 2: 'speaker' must be a string, got 1$"):
        load_corpus(path)


def test_null_optional_fields_count_as_absent(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, _two_turns({"meta": {"dialogue_act": None}, "reply_to": None}))
    second = load_corpus(path).dialogues[0].turns[1]
    assert second.dialogue_act is None and second.ordinal == 1
    _write_jsonl(path, _two_turns({"meta": None}))
    assert load_corpus(path).dialogues[0].turns[1].dialogue_act is None


def test_turn_is_an_immutable_hashable_record():
    turn = Turn("t1", "c1", 0, "A", "Hi?")
    assert turn == Turn(turn_id="t1", dialogue_id="c1", ordinal=0, speaker="A", text="Hi?")
    assert turn.dialogue_act is None and hash(turn) == hash(Turn("t1", "c1", 0, "A", "Hi?"))
    assert repr(turn) == (
        "Turn(turn_id='t1', dialogue_id='c1', ordinal=0, speaker='A', text='Hi?', dialogue_act=None)"
    )
    with pytest.raises(AttributeError):
        turn.text = "Bye."


# -- the loader against the line-by-line oracle --

# decomposed and composed Unicode, punctuation, polar and auxiliary words
_TURN_TEXTS = st.lists(
    st.sampled_from(["Do", "you", "cafe\u0301", "caf\u00e9", "re\u0301sume\u0301", "yes?", "No.",
                     "(ok)", "don't", "no\u00a0way", "?"]),
    min_size=1, max_size=5,
).map(" ".join)
_ABSENT = object()
_DEFECTS = ("duplicate_id", "broken_chain", "mixed_ordering", "ordinal_gap", "wrong_type",
            "missing_key", "empty_text", "bad_json")
_TYPED_KEYS = {"id": str, "conversation_id": str, "speaker": str, "text": str,
               "ordinal": int, "reply_to": str, "meta": dict, "meta.dialogue_act": str}
_ANY_VALUES = (None, True, 0, 3, 1.5, "x", [], ["a"], {}, {"k": 1})


def _respelled(text: str) -> str:
    """text with each composed word of _TURN_TEXTS decomposed and each
    decomposed one composed: another spelling of the same NFC text."""
    swaps = {"cafe\u0301": "caf\u00e9", "caf\u00e9": "cafe\u0301", "re\u0301sume\u0301": "r\u00e9sum\u00e9"}
    return " ".join(swaps.get(word, word) for word in text.split(" "))


def _conversation(draw, conv_id: str, texts) -> list[dict]:
    by_reply = draw(st.booleans())
    records = []
    for i in range(draw(st.integers(1, 5))):
        record = {"id": f"{conv_id}-{i}", "conversation_id": conv_id,
                  "speaker": draw(st.sampled_from("AB")), "text": draw(texts)}
        if by_reply:
            parent = f"{conv_id}-{i - 1}" if i else draw(st.sampled_from([None, "", _ABSENT]))
            optional = {"reply_to": parent, "ordinal": draw(st.sampled_from([None, _ABSENT]))}
        else:
            optional = {"ordinal": i, "reply_to": draw(st.sampled_from([None, _ABSENT, "x"]))}
        optional["meta"] = draw(st.sampled_from(
            [_ABSENT, None, {}, {"dialogue_act": None}, {"dialogue_act": "qy"}, {"dialogue_act": "sd"}]))
        record.update((key, value) for key, value in optional.items() if value is not _ABSENT)
        records.append(record)
    return records


def _inject(draw, records: list[dict], defect: str) -> None:
    """Damage one record in place the way `defect` names."""
    if defect == "broken_chain":  # damage a reply_to conversation where there is one
        records = [r for r in records if r.get("ordinal") is None] or records
    record = draw(st.sampled_from(records), label="damaged record")
    if defect == "duplicate_id":
        record["id"] = draw(st.sampled_from(records))["id"]
    elif defect == "broken_chain":
        record.pop("ordinal", None)
        record["reply_to"] = draw(st.sampled_from([None, "missing", *(r["id"] for r in records)]))
    elif defect == "mixed_ordering":
        if record.get("ordinal") is None:
            record["ordinal"] = 0
        else:
            del record["ordinal"]
    elif defect == "ordinal_gap":
        record["ordinal"] = record.get("ordinal") or 0
        record["ordinal"] += draw(st.sampled_from([-1, 1, 2]))
    elif defect == "wrong_type":  # one or two fields of the record
        for name in draw(st.lists(st.sampled_from(sorted(_TYPED_KEYS)), min_size=1, max_size=2,
                                  unique=True)):
            kind = _TYPED_KEYS[name]
            value = draw(st.sampled_from(
                [v for v in _ANY_VALUES if isinstance(v, bool) or not isinstance(v, kind)]))
            *parents, key = name.split(".")
            target = record
            for parent in parents:
                if not isinstance(target.get(parent), dict):
                    target[parent] = {}
                target = target[parent]
            target[key] = value
    elif defect == "missing_key":
        del record[draw(st.sampled_from(["id", "conversation_id", "speaker", "text"]))]
    elif defect == "empty_text":  # on one line, or on two that repeat it
        record["text"] = draw(st.sampled_from(["", " ", "\t\u00a0"]))
        if draw(st.booleans()):
            draw(st.sampled_from(records), label="second empty record")["text"] = record["text"]


@st.composite
def _corpus_files(draw) -> bytes:
    conv_ids = draw(st.lists(st.sampled_from(["a", "b", "c10", "c2", "Z", "\u00e9"]),
                             min_size=1, max_size=4, unique=True))
    # most texts come from a small pool, so that lines repeat a text, in
    # its own spelling or in another that NFC folds into it
    pool = draw(st.lists(_TURN_TEXTS, min_size=1, max_size=3))
    texts = st.one_of(st.sampled_from(pool), st.sampled_from(pool).map(_respelled), _TURN_TEXTS)
    records = [r for conv_id in conv_ids for r in _conversation(draw, conv_id, texts)]
    defect = draw(st.sampled_from((None,) + _DEFECTS))
    if defect is not None and defect != "bad_json":
        _inject(draw, records, defect)
    lines = [json.dumps(r, ensure_ascii=draw(st.booleans())) for r in records]
    lines = draw(st.permutations(lines))
    if defect == "bad_json":
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from([lines[i][:-1], "\ufeff" + lines[i], "[1]", "nul", "{} {}",
                                         lines[i] + "x", "\x0b" + lines[i]]))
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=1))  # blank lines
        out.append(line)
    return ("\n".join(out) + "\n").encode("utf-8")


def _load_outcome(load, path):
    try:
        return load(path)
    except CorpusFormatError as exc:
        return f"error: {exc}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(body=_corpus_files())
def test_load_corpus_matches_line_by_line_oracle(body):
    """The same Corpus, or the same error on the same line, as the oracle."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_bytes(body)
        loaded = _load_outcome(load_corpus, path)
        assert loaded == _load_outcome(naive_load_corpus, path)
    if not isinstance(loaded, str):
        _assert_equal_texts_are_one_object(loaded)


def _assert_equal_texts_are_one_object(corpus) -> None:
    first = {}
    for dialogue in corpus:
        for turn in dialogue.turns:
            assert first.setdefault(turn.text, turn.text) is turn.text, turn


def test_load_corpus_holds_each_distinct_text_once(tmp_path):
    """Turns with equal texts share one string object, across dialogues,
    both ordering paths, and spellings that NFC folds into one text."""
    decomposed, composed = "Cafe\u0301 later?", "Caf\u00e9 later?"
    texts = ["Do you want to go?", decomposed, "Yes, I do.", composed, "Do you want to go?",
             composed, "Yes, I do.", decomposed]
    records = []
    for c, conv_id in enumerate(["a", "b"]):  # a by ordinal, b by reply_to
        for i, text in enumerate(texts[4 * c:4 * c + 4]):
            record = {"id": f"{conv_id}{i}", "conversation_id": conv_id, "speaker": "AB"[i % 2], "text": text}
            record.update({"ordinal": i} if conv_id == "a" else {"reply_to": f"{conv_id}{i - 1}" if i else None})
            records.append(record)
    records.reverse()  # each conversation's lines out of order
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, records)
    corpus = load_corpus(path)
    assert corpus == naive_load_corpus(path)
    turns = [t for d in corpus for t in d.turns]
    assert len({t.text for t in turns}) == 3
    _assert_equal_texts_are_one_object(corpus)


# -- what the loader holds while it reads --

_GATE_WORDS = ("do", "you", "think", "the", "game", "was", "fine", "yes", "no", "really",
               "we", "could", "go", "later", "maybe", "lunch", "is", "it", "still", "on")


def _gate_corpus_lines() -> list[str]:
    """About 6,000 short turns in conversations of 10 to 40, every third
    ordered by reply_to and the rest by ordinal, each one's lines shuffled."""
    rng = random.Random(3)
    lines = []
    for c in range(240):
        conv_id = f"c{c:05d}"
        records = []
        for i in range(rng.randint(10, 40)):
            record = {"id": f"{conv_id}-t{i:02d}", "conversation_id": conv_id, "speaker": "AB"[i % 2],
                      "text": " ".join(rng.choices(_GATE_WORDS, k=rng.randint(3, 7))) + rng.choice("?.!")}
            if c % 3 == 0:
                record["reply_to"] = f"{conv_id}-t{i - 1:02d}" if i else None
            else:
                record["ordinal"] = i
            records.append(record)
        rng.shuffle(records)
        lines += [json.dumps(r) for r in records]
    return lines


def test_load_corpus_peak_memory_stays_near_what_it_keeps(tmp_path):
    """Each turn is held once while loading: tracemalloc's peak during
    load_corpus is at most 1.4 times what the returned Corpus retains. A
    loader that keeps every line as a tuple until its Turn is built reads
    about 1.65 here."""
    lines = _gate_corpus_lines()
    assert len(lines) >= 5000
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        corpus = load_corpus(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert corpus.total_turns == len(lines)
    assert peak <= 1.4 * retained, (peak, retained, peak / retained)


def test_fixture_corpus_shape(fixture_corpus):
    assert len(fixture_corpus) == 12
    assert fixture_corpus.total_turns == 60
    ids = [d.dialogue_id for d in fixture_corpus]
    assert ids == sorted(ids)


def test_nfc_normalization_applied(tmp_path):
    path = tmp_path / "c.jsonl"
    decomposed = "Café time?"  # e + combining acute
    _write_jsonl(
        path,
        [{"id": "t1", "conversation_id": "c1", "speaker": "A", "text": decomposed, "ordinal": 0}],
    )
    corpus = load_corpus(path)
    assert corpus.dialogues[0].turns[0].text == "Café time?"


def test_round_trip_identical(fixture_corpus, tmp_path):
    out = tmp_path / "copy.jsonl"
    save_corpus(fixture_corpus, out)
    assert load_corpus(out) == fixture_corpus


# -- tokenize --


def test_tokenize_examples():
    assert tokenize("Do you like Mexican food?") == ["Do", "you", "like", "Mexican", "food", "?"]
    assert tokenize("Did it?") == ["Did", "it", "?"]
    assert tokenize("") == []


def test_tokenize_contractions_and_traps():
    assert tokenize("Don't you trust the plan?") == ["Don't", "you", "trust", "the", "plan", "?"]
    assert "nobody" in tokenize("Honestly nobody knows.")
    assert tokenize("Yeah, love it.") == ["Yeah", ",", "love", "it", "."]
    assert tokenize("???") == ["?", "?", "?"]


_WORD = st.text(alphabet="abcdefghij'", min_size=1, max_size=8).filter(
    lambda w: w.strip("?.,!;:\"()[]") == w
)
_PUNCT = st.sampled_from(["?", ".", ",", "!", ""])


@given(st.lists(st.tuples(_WORD, _PUNCT), min_size=1, max_size=12))
def test_tokenize_reconstructs_normalized_input(pairs):
    text = " ".join(word + punct for word, punct in pairs)
    tokens = tokenize(text)
    rebuilt = ""
    for token in tokens:
        if rebuilt and all(ch in "?.,!;:\"()[]" for ch in token):
            rebuilt += token
        elif rebuilt:
            rebuilt += " " + token
        else:
            rebuilt = token
    assert rebuilt == " ".join(text.split())


def test_lowered_tokens_tokenize_each_chunk_once(monkeypatch):
    import ynkit.corpus as corpus_module

    calls = []
    real = corpus_module.tokenize
    monkeypatch.setattr(corpus_module, "tokenize", lambda text: calls.append(text) or real(text))
    monkeypatch.setattr(corpus_module, "_CHUNK_TOKENS", corpus_module._ChunkTokens())
    texts = ["Do you?", "do  YOU (really)?", "Yes, you do."]
    for text in texts + texts:
        assert lowered_tokens(text) == [t.lower() for t in real(text)]
    assert sorted(calls) == sorted({chunk for text in texts for chunk in text.split()})
    assert sorted(calls) == sorted(corpus_module._CHUNK_TOKENS)


# -- the reference sentence splitter of tests/oracles.py --


def test_split_sentences_examples():
    assert naive_split_sentences("Well. Maybe. Yes.") == ["Well.", "Maybe.", "Yes."]
    assert naive_split_sentences("Yeah, I think so. We had fun.") == [
        "Yeah, I think so.",
        "We had fun.",
    ]
    assert naive_split_sentences("no punctuation here") == ["no punctuation here"]
    assert naive_split_sentences("") == []
    assert naive_split_sentences("Really?! Done.") == ["Really?!", "Done."]


@given(st.text(alphabet="abc .?!", max_size=60))
def test_split_sentences_concat_is_normalized_input(text):
    sentences = naive_split_sentences(text)
    assert all(sentences)
    assert " ".join(sentences) == " ".join(text.split())


# -- label spellings --

# each spelling Circa or SWDA-IA gives a label in the three-way scheme,
# and the label the paper folds it into
_FOLDED_SPELLINGS = {
    "Yes": Label.YES,
    "No": Label.NO,
    "Middle": Label.MIDDLE,
    "Probably yes": Label.YES,
    "Probably yes / sometimes yes": Label.YES,
    "Yes, subject to some conditions": Label.YES,
    "Probably no": Label.NO,
    "In the middle, neither yes nor no": Label.MIDDLE,
}


@pytest.mark.parametrize("spelling, label", _FOLDED_SPELLINGS.items())
def test_parse_label_folds_fine_grained_spellings_in_any_case(spelling, label):
    for variant in (spelling, spelling.lower(), spelling.upper(), spelling.title(), spelling.swapcase()):
        assert parse_label(variant) is label, variant


@pytest.mark.parametrize(
    "spelling", ["I am not sure how to interpret the answer", "Other", "N/A", "Banana", "probably", ""]
)
def test_parse_label_refuses_discard_and_unknown_spellings(spelling):
    with pytest.raises(CorpusFormatError, match=f"^not a valid label: {re.escape(repr(spelling))}$"):
        parse_label(spelling)
