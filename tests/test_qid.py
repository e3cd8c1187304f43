import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import ynkit.corpus as corpus_module
import ynkit.qid as qid
from ynkit.corpus import Corpus, Dialogue, Turn, tokenize
from ynkit.errors import CorpusFormatError
from ynkit.qid import (
    AUXILIARY_VERBS,
    NO_KEYWORDS,
    WH_WORDS,
    YES_KEYWORDS,
    answer_window_tokens,
    has_direct_answer,
    is_yes_no_question_relaxed,
    load_matches,
    scan_corpus,
    write_audit_sample,
    write_matches,
)
from oracles import naive_scan_corpus, naive_window_tokens
from util import random_corpus

# hand-marked expectations for the bundled 60-turn fixture
FIXTURE_RELAXED = {
    "d01-t1", "d02-t0", "d02-t3", "d03-t2", "d04-t1", "d04-t3", "d04-t5",
    "d06-t0", "d07-t0", "d08-t0", "d08-t2", "d09-t2", "d10-t1", "d10-t3",
    "d11-t0", "d11-t3", "d12-t0", "d12-t2",
}
FIXTURE_STRICT = {
    "d01-t1", "d03-t2", "d04-t3", "d06-t0", "d07-t0", "d08-t0", "d09-t2",
    "d10-t1", "d10-t3", "d11-t0", "d12-t0",
}
FIXTURE_ACTS = {"d05-t1", "d05-t3", "d10-t1", "d10-t3"}


def _turn(text, act=None, turn_id="t0", ordinal=0):
    return Turn(
        turn_id=turn_id,
        dialogue_id="d",
        ordinal=ordinal,
        speaker="A",
        text=text,
        dialogue_act=act,
    )


def test_relaxed_rule_examples():
    assert is_yes_no_question_relaxed(_turn("Do you like Mexican food?"))
    assert not is_yes_no_question_relaxed(_turn("How are you doing today?"))
    assert not is_yes_no_question_relaxed(_turn("Did it?"))  # 3 tokens, not > 3


def test_relaxed_rule_edges():
    assert is_yes_no_question_relaxed(_turn("Are you worried about it?   "))
    assert not is_yes_no_question_relaxed(_turn("Did they cancel the match?!"))
    assert not is_yes_no_question_relaxed(_turn("Nobody said anything about it?"))
    assert is_yes_no_question_relaxed(_turn("WOULD you believe he finished early?"))
    assert is_yes_no_question_relaxed(_turn("Don't you trust the plan?"))


def test_direct_answer_examples():
    assert has_direct_answer(_turn("Yeah, I think so. We had fun."))
    assert not has_direct_answer(_turn("Well. Maybe. Yes."))  # window is 2 sentences
    assert not has_direct_answer(_turn("I am fine with tacos if my friends suggest Mexican"))


def test_direct_answer_whole_token_only():
    assert not has_direct_answer(_turn("Honestly nobody knows."))
    assert has_direct_answer(_turn("No!"))
    assert has_direct_answer(_turn("Hmm, let me think. Yes, the late one. It ran long."))


# texts that probe the window: words glued from sentence ends, brackets,
# abbreviations and polar words, after runs of the whitespace characters
# that str.split and regex \s must agree on
_WHITESPACE = "\x1c\x85\xa0\u2028\u3000 \t\n"
_WORD_PIECES = [*'.?!"()[]', "e.g.", "ab", "Yes", "NO", *sorted(YES_KEYWORDS | NO_KEYWORDS)]
_WINDOW_TEXTS = st.lists(
    st.tuples(
        st.text(alphabet=_WHITESPACE, max_size=2),
        st.lists(st.sampled_from(_WORD_PIECES), min_size=1, max_size=3).map("".join),
    ),
    max_size=8,
).map(lambda parts: "".join(space + word for space, word in parts))


@settings(max_examples=500)
@given(_WINDOW_TEXTS)
def test_answer_window_matches_sentence_split_oracle(text):
    assert answer_window_tokens(text) == naive_window_tokens(text)


def test_dialogue_act_examples():
    acts = ["qy", "qy^d", "^g", "sd", None]
    turns = tuple(
        _turn("x?", act=act, turn_id=f"t{i}", ordinal=i) for i, act in enumerate(acts)
    )
    matches, _ = scan_corpus(
        Corpus(dialogues=(Dialogue(dialogue_id="d", turns=turns),)), "dialogue_act", sample_size=0
    )
    assert [m.question.dialogue_act for m in matches] == ["qy", "qy^d", "^g"]


def test_auxiliary_verbs_and_wh_words_are_disjoint():
    # a word in both would make every question carrying it fail the rules
    assert AUXILIARY_VERBS.isdisjoint(WH_WORDS)


def test_fixture_scan_matches_hand_marks(fixture_corpus):
    relaxed, stats = scan_corpus(fixture_corpus, "relaxed", sample_size=200, seed=0)
    assert {m.question.turn_id for m in relaxed} == FIXTURE_RELAXED
    assert stats.match_count == len(FIXTURE_RELAXED)
    assert stats.total_turns == 60
    strict, _ = scan_corpus(fixture_corpus, "strict", sample_size=200, seed=0)
    assert {m.question.turn_id for m in strict} == FIXTURE_STRICT
    acts, _ = scan_corpus(fixture_corpus, "dialogue_act", sample_size=200, seed=0)
    assert {m.question.turn_id for m in acts} == FIXTURE_ACTS


def test_strict_rejects_non_polar_next_turn():
    from ynkit.corpus import Corpus, Dialogue

    turns = (
        _turn("We were planning the weekend.", turn_id="m0", ordinal=0),
        _turn("Do you want to join the hike?", turn_id="m1", ordinal=1),
        _turn("Maybe later.", turn_id="m2", ordinal=2),
        _turn("Suit yourself.", turn_id="m3", ordinal=3),
    )
    corpus = Corpus(dialogues=(Dialogue(dialogue_id="d", turns=turns),))
    relaxed, _ = scan_corpus(corpus, "relaxed", sample_size=0, seed=0)
    assert [m.question.turn_id for m in relaxed] == ["m1"]
    strict, stats = scan_corpus(corpus, "strict", sample_size=0, seed=0)
    assert stats.match_count == 0
    assert strict == []


def test_strict_mode_invariants(fixture_corpus):
    strict, _ = scan_corpus(fixture_corpus, "strict", sample_size=0, seed=0)
    for match in strict:
        assert match.answer is not None
        assert has_direct_answer(match.answer)
        assert match.answer.dialogue_id == match.question.dialogue_id
        assert match.answer.ordinal == match.question.ordinal + 1


def test_final_turn_never_strict(fixture_corpus):
    # d04-t5 is a relaxed question at the end of its dialogue
    relaxed, _ = scan_corpus(fixture_corpus, "relaxed", sample_size=0, seed=0)
    assert any(m.question.turn_id == "d04-t5" and m.answer is None for m in relaxed)
    strict, _ = scan_corpus(fixture_corpus, "strict", sample_size=0, seed=0)
    assert all(m.question.turn_id != "d04-t5" for m in strict)


def test_relaxed_match_shape_properties():
    for seed in range(100):
        corpus = random_corpus(seed)
        relaxed, _ = scan_corpus(corpus, "relaxed", sample_size=0, seed=seed)
        for match in relaxed:
            assert match.question.text.rstrip().endswith("?")
            assert len(tokenize(match.question.text)) >= 4


def test_strict_subset_of_relaxed_on_random_corpora():
    for seed in range(200):
        corpus = random_corpus(seed)
        relaxed, _ = scan_corpus(corpus, "relaxed", sample_size=0, seed=seed)
        strict, _ = scan_corpus(corpus, "strict", sample_size=0, seed=seed)
        relaxed_ids = {m.question.turn_id for m in relaxed}
        strict_ids = {m.question.turn_id for m in strict}
        assert strict_ids <= relaxed_ids


def test_rule_monotonicity_on_random_corpora(monkeypatch):
    def count(corpus, wh_words=WH_WORDS, auxiliary_verbs=AUXILIARY_VERBS):
        monkeypatch.setattr(qid, "WH_WORDS", wh_words)
        monkeypatch.setattr(qid, "AUXILIARY_VERBS", auxiliary_verbs)
        return len(scan_corpus(corpus, "relaxed", sample_size=0, seed=0)[0])

    for seed in range(60):
        corpus = random_corpus(seed)
        base = count(corpus)
        assert count(corpus, wh_words=WH_WORDS - {"how"}) >= base
        assert count(corpus, auxiliary_verbs=AUXILIARY_VERBS - {"do"}) <= base


# chunks that repeat across turns with different punctuation and case,
# split across sentences, and whitespace other than a space
_SCAN_CHUNKS = st.sampled_from([
    "Do", "do", "DON'T", "is", "Is", "you", "it", "what", "How", "yes", "Yes,", "(yes)", "YEAH!",
    "no", "No.", "nope?", "nobody", "noon", "sure.", "maybe.", "Well.", "?", "?!", "...", "plan",
])
_SCAN_TEXTS = st.tuples(
    st.lists(st.tuples(_SCAN_CHUNKS, st.sampled_from([" ", " ", "  ", "\t", "\u00a0"])),
             min_size=1, max_size=9),
    st.sampled_from(["", "?", " ?", "? "]),
).map(lambda text: "".join(chunk + gap for chunk, gap in text[0]).rstrip() + text[1])


@st.composite
def _scan_corpora(draw) -> Corpus:
    dialogues = []
    for d in range(draw(st.integers(1, 4))):
        texts = draw(st.lists(st.tuples(_SCAN_TEXTS, st.sampled_from([None, "qy", "sd", "^g"])),
                              min_size=1, max_size=6))
        turns = tuple(Turn(f"d{d}-t{i}", f"d{d}", i, "AB"[i % 2], text, act)
                      for i, (text, act) in enumerate(texts))
        dialogues.append(Dialogue(dialogue_id=f"d{d}", turns=turns))
    return Corpus(dialogues=tuple(dialogues))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(corpus=_scan_corpora())
def test_scan_matches_memo_free_oracle(corpus):
    for mode in ("relaxed", "strict", "dialogue_act"):
        try:
            matches, _ = scan_corpus(corpus, mode, sample_size=0)
        except CorpusFormatError as exc:
            assert "carries no dialogue-act annotations" in str(exc)
            assert mode == "dialogue_act"
            assert all(t.dialogue_act is None for d in corpus for t in d.turns)
            continue
        assert matches == naive_scan_corpus(corpus, mode)


def test_scan_tokenizes_each_distinct_chunk_once(fixture_corpus, monkeypatch):
    corpus = Corpus(dialogues=fixture_corpus.dialogues + random_corpus(3, n_dialogues=40).dialogues)
    expected = {mode: scan_corpus(corpus, mode, sample_size=0)[0] for mode in ("relaxed", "strict")}
    calls = []
    real = corpus_module.tokenize
    monkeypatch.setattr(corpus_module, "tokenize", lambda text: calls.append(text) or real(text))
    chunks = {chunk for d in corpus for t in d.turns for chunk in t.text.split()}
    for mode in ("relaxed", "strict"):
        calls.clear()
        monkeypatch.setattr(corpus_module, "_CHUNK_TOKENS", corpus_module._ChunkTokens())
        assert scan_corpus(corpus, mode, sample_size=0)[0] == expected[mode]
        assert calls and len(calls) == len(set(calls)) and set(calls) <= chunks


def test_scan_determinism(fixture_corpus):
    a, stats_a = scan_corpus(fixture_corpus, "relaxed", sample_size=5, seed=42)
    b, stats_b = scan_corpus(fixture_corpus, "relaxed", sample_size=5, seed=42)
    assert a == b
    assert stats_a.precision_sample == stats_b.precision_sample
    assert len(stats_a.precision_sample) == 5


def test_sample_capped_at_match_count(fixture_corpus):
    _, stats = scan_corpus(fixture_corpus, "strict", sample_size=500, seed=1)
    assert len(stats.precision_sample) == stats.match_count == len(FIXTURE_STRICT)


def test_acts_mode_requires_annotations():
    corpus = random_corpus(7)  # no acts anywhere
    with pytest.raises(CorpusFormatError, match="corpus carries no dialogue-act annotations"):
        scan_corpus(corpus, "dialogue_act", sample_size=0, seed=0)


def test_matches_round_trip(fixture_corpus, tmp_path):
    strict, _ = scan_corpus(fixture_corpus, "strict", sample_size=0, seed=0)
    path = tmp_path / "matches.jsonl"
    write_matches(strict, path)
    loaded = load_matches(path, fixture_corpus)
    assert [(m.question.turn_id, m.answer.turn_id, m.mode) for m in loaded] == [
        (m.question.turn_id, m.answer.turn_id, m.mode) for m in strict
    ]
    assert all(has_direct_answer(m.answer) for m in loaded)


def test_load_matches_names_file_and_line(fixture_corpus, tmp_path):
    path = tmp_path / "matches.jsonl"
    path.write_text(
        '{"question_turn_id": "d01-t1", "mode": "strict"}\n{"mode": "strict"}\n', encoding="utf-8"
    )
    with pytest.raises(CorpusFormatError, match=f"{path}: line 2: missing key 'question_turn_id'"):
        load_matches(path, fixture_corpus)
    path.write_text('{"question_turn_id": ["d01-t1"]}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"{path}: line 1: question turn .* not in corpus"):
        load_matches(path, fixture_corpus)


def test_load_matches_refuses_answer_or_dialogue_that_does_not_fit_the_question(fixture_corpus, tmp_path):
    strict, _ = scan_corpus(fixture_corpus, "strict", sample_size=0, seed=0)
    path = tmp_path / "matches.jsonl"
    write_matches(strict, path)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    question = records[0]["question_turn_id"]
    for key, value, needle in [
        ("answer_turn_id", "d03-t3", f"answer turn 'd03-t3' is not the turn after question turn '{question}'"),
        ("answer_turn_id", question, f"answer turn '{question}' is not the turn after"),  # same dialogue
        ("dialogue_id", "zzz", f"dialogue_id 'zzz' is not the dialogue of question turn '{question}'"),
    ]:
        damaged = [dict(records[0], **{key: value})] + records[1:]
        path.write_text("".join(json.dumps(r) + "\n" for r in damaged), encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: line 1: {re.escape(needle)}"):
            load_matches(path, fixture_corpus)


def test_audit_tsv_columns(fixture_corpus, tmp_path):
    _, stats = scan_corpus(fixture_corpus, "strict", sample_size=3, seed=9)
    path = tmp_path / "audit.tsv"
    write_audit_sample(stats, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "question\tanswer\tdialogue_id"
    assert len(lines) == 4
