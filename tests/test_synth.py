import hashlib
from collections import Counter

from ynkit.corpus import Label, save_corpus
from ynkit.distant import balance_dataset, extract_distant_instances, label_direct_answer, write_instances
from ynkit.qid import (
    AUXILIARY_VERBS,
    NO_KEYWORDS,
    WH_WORDS,
    YES_KEYWORDS,
    has_direct_answer,
    is_yes_no_question_relaxed,
    scan_corpus,
)
from ynkit.synth import (
    FLIP_SOURCE_NO,
    FLIP_SOURCE_YES,
    HEDGE_FILLERS,
    MIDDLE_CUES,
    SOURCE_FILLERS,
    SOURCE_NO_CUES,
    SOURCE_YES_CUES,
    SynthConfig,
    TARGET_FILLERS,
    TARGET_NO_CUES,
    TARGET_YES_CUES,
    make_distant_corpus,
    make_gold_instances,
    make_test_instances,
    make_trend_bundle,
)

SMALL = SynthConfig(seed=5, n_gold=120, n_distant_questions=300, n_test=90)


def test_vocabulary_avoids_rule_words():
    vocab = set(
        SOURCE_FILLERS + TARGET_FILLERS + HEDGE_FILLERS
        + SOURCE_YES_CUES + SOURCE_NO_CUES + TARGET_YES_CUES + TARGET_NO_CUES
        + MIDDLE_CUES + FLIP_SOURCE_YES + FLIP_SOURCE_NO
    )
    reserved = (
        set(AUXILIARY_VERBS)
        | set(WH_WORDS)
        | set(YES_KEYWORDS)
        | set(NO_KEYWORDS)
    )
    assert not vocab & reserved


def test_flip_vocab_disjoint_from_cues():
    flips = set(FLIP_SOURCE_YES + FLIP_SOURCE_NO)
    cues = set(SOURCE_YES_CUES + SOURCE_NO_CUES + TARGET_YES_CUES + TARGET_NO_CUES + MIDDLE_CUES)
    assert not flips & cues


def test_generated_questions_pass_relaxed_rules():
    corpus, _ = make_distant_corpus(SMALL)
    for dialogue in corpus:
        question = dialogue.turns[1]
        assert is_yes_no_question_relaxed(question), question.text


def test_direct_answers_carry_the_planted_polarity():
    corpus, latent = make_distant_corpus(SMALL)
    for dialogue in corpus:
        question, answer = dialogue.turns[1], dialogue.turns[2]
        if question.turn_id in latent:
            assert has_direct_answer(answer), answer.text
            assert label_direct_answer(answer.text) is latent[question.turn_id]
        else:
            assert label_direct_answer(answer.text) is None  # decoy


def test_pipeline_agreement_with_latent_labels():
    corpus, latent = make_distant_corpus(SMALL)
    matches, _ = scan_corpus(corpus, "strict", sample_size=0, seed=0)
    instances = extract_distant_instances(corpus, matches)
    assert len(instances) == len(latent)
    agree = sum(1 for inst in instances if latent[inst.origin_ids[1]] is inst.label)
    assert agree == len(instances)
    balanced = balance_dataset(instances, seed=0)
    counts = Counter(inst.label for inst in balanced)
    assert counts[Label.YES] == counts[Label.NO]


def test_generator_deterministic():
    a = make_trend_bundle(SMALL)
    b = make_trend_bundle(SMALL)
    assert a.gold == b.gold
    assert a.test == b.test
    assert a.corpus == b.corpus
    assert a.latent == b.latent


# sha256 of the files save_corpus and write_instances write from
# make_trend_bundle(SMALL); any change to a rate, a vocabulary or the
# order of the RNG draws moves them
SMALL_DIGESTS = {
    "corpus.jsonl": "3a39b7bddc5bd8171b9a87bbdbd0a7b956df11f43bc08bebb009860d631b7a2d",
    "gold.jsonl": "895fe1f562eb07e569fc0a3dda6d29bed024dccea9031624fefab20999d5efaf",
    "test.jsonl": "bda187c293bb6864a5a40467a9d9bbd05ecbd911640d31ce682f618292a7475a",
}


def test_generator_output_is_pinned(tmp_path):
    bundle = make_trend_bundle(SMALL)
    save_corpus(bundle.corpus, tmp_path / "corpus.jsonl")
    write_instances(bundle.gold, tmp_path / "gold.jsonl")
    write_instances(bundle.test, tmp_path / "test.jsonl")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SMALL_DIGESTS}
    assert digests == SMALL_DIGESTS


def test_gold_and_test_label_mix():
    gold = make_gold_instances(SynthConfig(seed=1, n_gold=600))
    counts = Counter(i.label for i in gold)
    assert set(counts) == {Label.YES, Label.NO, Label.MIDDLE}
    assert counts[Label.YES] > counts[Label.MIDDLE]
    test = make_test_instances(SynthConfig(seed=1, n_test=300))
    assert set(Counter(i.label for i in test)) == {Label.YES, Label.NO, Label.MIDDLE}
    assert all(i.source == "gold" for i in gold + test)


def test_test_answers_are_indirect():
    test = make_test_instances(SynthConfig(seed=2, n_test=200))
    for inst in test:
        assert label_direct_answer(inst.answer) is None, inst.answer
