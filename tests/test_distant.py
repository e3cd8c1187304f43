import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ynkit.corpus import Label
from ynkit.distant import (
    QAInstance,
    balance_dataset,
    extract_distant_instances,
    instance_from_dict,
    instance_to_dict,
    label_direct_answer,
    read_instances,
    write_instances,
)
from ynkit.errors import CorpusFormatError, InvalidConfigError
from ynkit.qid import QidMatch, has_direct_answer, scan_corpus
from oracles import naive_read_instances
from util import random_corpus


def test_label_direct_answer_examples():
    assert label_direct_answer("Nope, never.") is Label.NO
    assert (
        label_direct_answer("Sure, if I run out of everything else I will eat it.")
        is Label.YES
    )
    assert label_direct_answer("Yes and no, honestly.") is None  # both polarities


def test_label_direct_answer_window_and_tokens():
    assert label_direct_answer("Well. Maybe. Yes.") is None  # third sentence
    assert label_direct_answer("Hmm, let me think. Yes, the late one.") is Label.YES
    assert label_direct_answer("Honestly nobody knows.") is None
    assert label_direct_answer("It goes out on Friday.") is None


def test_labeling_implies_direct_answer_on_random_text():
    # both read qid's one polar lexicon through the same answer window
    from util import _WORDS
    import random

    rng = random.Random(5)
    from ynkit.corpus import Turn

    for _ in range(300):
        text = " ".join(rng.choices(_WORDS, k=rng.randint(1, 10))) + rng.choice([".", "?", ""])
        if label_direct_answer(text) is not None:
            turn = Turn("t", "d", 0, "A", text)
            assert has_direct_answer(turn)


def test_extract_from_fixture(fixture_corpus):
    strict, _ = scan_corpus(fixture_corpus, "strict", sample_size=0, seed=0)
    instances = extract_distant_instances(fixture_corpus, strict)
    assert len(instances) <= len(strict)
    index = fixture_corpus.turn_index()
    for inst in instances:
        assert inst.source == "distant"
        assert inst.label in (Label.YES, Label.NO)
        dialogue_id, question_id, answer_id = inst.origin_ids
        assert index[question_id].text == inst.question
        assert index[answer_id].text == inst.answer  # keyword kept verbatim
        assert index[question_id].dialogue_id == dialogue_id
    # d01-t1's answer is "Yeah, I think so. We had fun." -> Yes, context is t0
    d01 = next(i for i in instances if i.origin_ids[1] == "d01-t1")
    assert d01.label is Label.YES
    assert d01.context == ("I finally tried that new taco place downtown.",)


def test_extract_context_window(fixture_corpus):
    strict, _ = scan_corpus(fixture_corpus, "strict", sample_size=0, seed=0)
    wide = extract_distant_instances(fixture_corpus, strict, context_window=3)
    d04 = next(i for i in wide if i.origin_ids[1] == "d04-t3")
    assert len(d04.context) == 3  # three turns precede d04-t3
    first_question = next(i for i in wide if i.origin_ids[1] == "d06-t0")
    assert first_question.context == ()  # dialogue-initial question


def test_extract_requires_answer_turn(fixture_corpus):
    question = fixture_corpus.dialogues[0].turns[1]
    bad = QidMatch(question=question, answer=None, mode="relaxed")
    with pytest.raises(CorpusFormatError, match="match on turn 'd01-t1' has no answer turn"):
        extract_distant_instances(fixture_corpus, [bad])


def test_extract_drops_unlabelable_answers(fixture_corpus):
    # d04-t3 -> "Sure, a little." labels Yes; d02-t3 -> "Well. Maybe. Yes." is
    # not even a strict match, so craft a match whose answer is ambiguous
    index = fixture_corpus.turn_index()
    match = QidMatch(question=index["d02-t3"], answer=index["d02-t4"], mode="relaxed")
    assert extract_distant_instances(fixture_corpus, [match]) == []


def _mk(label, i, source="distant"):
    return QAInstance(
        context=(),
        question=f"q{i}?",
        answer=f"a{i}",
        label=label,
        source=source,
        origin_ids=(f"d{i}", f"q{i}", f"a{i}"),
    )


def test_balance_downsamples_to_minority():
    instances = [_mk(Label.YES, i) for i in range(100)] + [
        _mk(Label.NO, 100 + i) for i in range(40)
    ]
    balanced = balance_dataset(instances, seed=3)
    counts = Counter(inst.label for inst in balanced)
    assert counts == {Label.YES: 40, Label.NO: 40}


def test_balance_already_balanced_keeps_multiset():
    instances = [_mk(Label.YES, i) for i in range(7)] + [
        _mk(Label.NO, 10 + i) for i in range(7)
    ]
    balanced = balance_dataset(instances, seed=1)
    assert Counter(i.origin_ids for i in balanced) == Counter(i.origin_ids for i in instances)


def test_balance_deterministic_and_submultiset():
    instances = [_mk(Label.YES, i) for i in range(30)] + [
        _mk(Label.NO, 50 + i) for i in range(11)
    ]
    a = balance_dataset(instances, seed=9)
    b = balance_dataset(instances, seed=9)
    assert a == b
    pool = Counter(i.origin_ids for i in instances)
    kept = Counter(i.origin_ids for i in a)
    assert all(kept[k] <= pool[k] for k in kept)


def test_balance_empty_and_unlabeled():
    assert balance_dataset([], seed=0) == []
    with pytest.raises(InvalidConfigError, match="balance_dataset requires labeled instances"):
        balance_dataset([_mk(None, 0, source="gold")], seed=0)


def test_instance_interchange_round_trip(tmp_path):
    instances = [
        _mk(Label.YES, 0),
        _mk(Label.NO, 1),
        QAInstance(
            context=("earlier turn", "another turn"),
            question="Gold q?",
            answer="gold answer",
            label=Label.MIDDLE,
            source="gold",
            origin_ids=("g", "gq", "ga"),
        ),
    ]
    path = tmp_path / "instances.jsonl"
    write_instances(instances, path)
    assert read_instances(path) == instances
    for inst in instances:
        assert instance_from_dict(instance_to_dict(inst)) == inst


@pytest.mark.parametrize(
    "field, value",
    [("context", 5), ("context", "one turn"), ("question", 5), ("label", 1),
     ("label", "maybe"), ("origin", ["d", "q", "a"]), ("source", None)],
)
def test_read_instances_rejects_wrong_field_types(tmp_path, field, value):
    record = instance_to_dict(_mk(Label.YES, 0))
    record[field] = value
    path = tmp_path / "instances.jsonl"
    path.write_text(json.dumps(instance_to_dict(_mk(Label.NO, 1))) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(CorpusFormatError, match=f"{path}: line 2: bad instance record"):
        read_instances(path)


_ABSENT = object()
# each field's values as (readable, refused); a distant record labeled middle
# or unlabeled is drawn from readable values alone
_FIELD_VALUES = {
    "context": ([["earlier turn"], [], ["a", "b"], None, _ABSENT], [["a", 5], "one turn", 5, {}]),
    "question": (["Do you?"], ["", None, 5, ["Do you?"], _ABSENT]),
    "answer": (["Sure."], ["", 0, True, _ABSENT]),
    "label": (["yes", "no", "middle", "No", None, _ABSENT], ["maybe", 1, []]),
    "source": (["gold", "distant", _ABSENT], [None, 5, ["gold"]]),
    "origin": ([{"dialogue_id": "d", "question_turn_id": "q", "answer_turn_id": "a"},
                {"dialogue_id": "d"}, {}, None, _ABSENT],
               [{"dialogue_id": 5}, {"answer_turn_id": None}, ["d", "q", "a"], "d"]),
}


@st.composite
def _instance_records(draw) -> dict:
    record = {}
    for key, (readable, refused) in _FIELD_VALUES.items():
        values = refused if draw(st.integers(0, 5), label=f"{key} damaged?") == 0 else readable
        value = draw(st.sampled_from(values), label=key)
        if value is not _ABSENT:
            record[key] = value
    return record


def _read_outcome(read, path):
    try:
        return read(path)
    except CorpusFormatError as exc:
        return f"error: {exc}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(records=st.lists(_instance_records(), min_size=1, max_size=3))
def test_read_instances_matches_the_naive_builder(records):
    """The same instances, or the same error on the same line, as the oracle."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instances.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
        assert _read_outcome(read_instances, path) == _read_outcome(naive_read_instances, path)


def test_distant_instances_never_middle():
    with pytest.raises(ValueError):
        _mk(Label.MIDDLE, 0)
    with pytest.raises(ValueError):
        _mk(None, 1)


def test_extract_output_bounded_by_matches_on_random_corpora():
    for seed in range(50):
        corpus = random_corpus(seed, n_dialogues=4)
        strict, _ = scan_corpus(corpus, "strict", sample_size=0, seed=seed)
        instances = extract_distant_instances(corpus, strict)
        assert len(instances) <= len(strict)
        index = corpus.turn_index()
        for inst in instances:
            assert inst.origin_ids[1] in index
            assert inst.origin_ids[2] in index
