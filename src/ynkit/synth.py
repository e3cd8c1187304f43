"""Synthetic two-domain benchmark generator for end-to-end trend tests.

Builds a source-domain gold set, a target-domain corpus of yes-no
questions with direct answers (for distant supervision), and a
target-domain test set with indirect answers. Yes/no cue vocabulary is
domain-specific; "middle" hedging cues are shared across domains; a small
set of flip words carries opposite polarity in the two domains. Direct
answers plant exactly one unambiguous polar keyword, so extraction
agreement with the latent labels is exact by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .corpus import Corpus, Dialogue, Label, Turn
from .distant import QAInstance

SOURCE_FILLERS = (
    "ledger", "invoice", "quarter", "budget", "meeting", "deck", "memo",
    "client", "vendor", "forecast", "roadmap", "sprint", "ticket", "standup",
    "handoff", "review", "draft", "pipeline", "quota", "margin", "rollout",
    "audit", "backlog", "briefing",
)

TARGET_FILLERS = (
    "rally", "baseline", "serve", "court", "umpire", "tiebreak", "volley",
    "footwork", "racket", "season", "coach", "drill", "bracket", "warmup",
    "crowd", "stadium", "lineup", "scoreboard", "spin", "grip", "pace",
    "stamina", "topspin", "crosscourt",
)

SOURCE_YES_CUES = (
    "definitely", "absolutely", "certainly", "gladly", "happily", "totally",
    "indeed", "eagerly",
)

SOURCE_NO_CUES = (
    "never", "hardly", "refuse", "unfortunately", "regrettably", "sadly",
    "declined", "impossible",
)

TARGET_YES_CUES = (
    "keen", "thrilled", "pumped", "confident", "ready", "delighted",
    "counting", "committed",
)

TARGET_NO_CUES = (
    "doubtful", "skipping", "sitting", "withdrawn", "benched", "injured",
    "hesitant", "retired",
)

# Hedging language is domain-general, so middle cues and the filler words
# around them are shared across domains.
MIDDLE_CUES = (
    "maybe", "perhaps", "possibly", "depends", "unsure", "undecided",
    "unclear", "complicated", "partly", "somewhat",
)

HEDGE_FILLERS = (
    "honestly", "frankly", "mostly", "roughly", "lately", "generally",
    "currently", "apparently", "supposedly", "eventually", "occasionally",
    "presumably", "arguably", "broadly", "loosely", "vaguely",
)

# Domain-ambiguous vocabulary. Gold (source) answers anchor these words to
# a source polarity; target direct answers lean the other way, so models
# that phase out the source data flip them to the target reading.
FLIP_SOURCE_YES = ("locked", "slated", "booked", "wired")  # yes in source
FLIP_SOURCE_NO = ("loose", "open", "free", "clear")  # no in source

QUESTION_VERBS = (
    "reckon", "expect", "suppose", "believe", "fancy", "figure", "trust",
    "rate",
)

QUESTION_AUX = ("do", "did", "would", "will", "can", "could", "are", "were")

YES_PLANT_KEYWORDS = ("yes", "yeah", "yep", "yup", "yea")
NO_PLANT_KEYWORDS = ("no", "nope")


def _cue_inventory(domain: str, label: Label) -> tuple[str, ...]:
    if label is Label.MIDDLE:
        return MIDDLE_CUES
    if domain == "source":
        return SOURCE_YES_CUES if label is Label.YES else SOURCE_NO_CUES
    return TARGET_YES_CUES if label is Label.YES else TARGET_NO_CUES


def _fillers(domain: str) -> tuple[str, ...]:
    return SOURCE_FILLERS if domain == "source" else TARGET_FILLERS


GOLD_LABEL_WEIGHTS = (0.40, 0.32, 0.28)  # yes, no, middle
TEST_LABEL_WEIGHTS = (0.40, 0.30, 0.30)
WEAK_CUE_RATE = 0.25  # answers carrying a single cue word
DISTRACTOR_RATE = 0.10  # answers carrying one opposite-polarity cue
# flip-word machinery (domain-ambiguous vocabulary):
FLIP_ANCHOR_RATE = 0.8  # polar gold answers also carry a same-polarity flip word
FLIP_LEAK_RATE = 0.06  # polar distant answers carry some flip word
FLIP_LEAK_REVERSAL = 0.7  # ... drawn target-polarity-consistent this often
FLIP_ONLY_RATE = 0.3  # polar test answers whose only cue is a flip word
LABEL_NOISE_RATE = 0.03  # gold-only label corruption
DECOY_RATE = 0.01  # extra ambiguous direct answers in the corpus


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 13
    n_gold: int = 2000
    n_distant_questions: int = 8000
    n_test: int = 600


def _rng(config: SynthConfig, scope: str) -> random.Random:
    return random.Random(f"{config.seed}:{scope}")


def _question_text(domain: str, rng: random.Random) -> str:
    aux = rng.choice(QUESTION_AUX)
    verb = rng.choice(QUESTION_VERBS)
    fillers = rng.sample(_fillers(domain), 2)
    return f"{aux.capitalize()} you {verb} the {fillers[0]} {fillers[1]}?"


def _context_text(domain: str, rng: random.Random) -> str:
    fillers = rng.sample(_fillers(domain), 3)
    return f"The {fillers[0]} {fillers[1]} kept the {fillers[2]} going."


def _opposite_inventory(domain: str, label: Label, rng: random.Random) -> tuple[str, ...]:
    if label is Label.YES:
        return _cue_inventory(domain, Label.NO)
    if label is Label.NO:
        return _cue_inventory(domain, Label.YES)
    return _cue_inventory(domain, rng.choice((Label.YES, Label.NO)))


def _flip_word(label: Label, source_polarity: bool, rng: random.Random) -> str:
    """Flip word consistent with the label under the source reading
    (source_polarity=True) or the target reading (False)."""
    if source_polarity:
        pool = FLIP_SOURCE_YES if label is Label.YES else FLIP_SOURCE_NO
    else:
        pool = FLIP_SOURCE_NO if label is Label.YES else FLIP_SOURCE_YES
    return rng.choice(pool)


def _answer_words(domain: str, label: Label, rng: random.Random, role: str) -> list[str]:
    """Word multiset for one answer; role is gold, distant, or test."""
    inventory = _cue_inventory(domain, label)
    polar = label is not Label.MIDDLE
    if polar and role == "test" and rng.random() < FLIP_ONLY_RATE:
        # the only evidence is a flip word carrying its target reading
        cues = [_flip_word(label, source_polarity=False, rng=rng)]
        words = cues + rng.sample(_fillers(domain), rng.randint(3, 5))
        rng.shuffle(words)
        return words
    first = rng.choice(inventory)
    cues = [first]
    if rng.random() >= WEAK_CUE_RATE:
        cues.append(rng.choice([w for w in inventory if w != first]))
    if polar and role == "gold" and rng.random() < FLIP_ANCHOR_RATE:
        cues.append(_flip_word(label, source_polarity=True, rng=rng))
    if polar and role == "distant" and rng.random() < FLIP_LEAK_RATE:
        consistent = rng.random() < FLIP_LEAK_REVERSAL
        cues.append(_flip_word(label, source_polarity=not consistent, rng=rng))
    filler_pool = HEDGE_FILLERS if label is Label.MIDDLE else _fillers(domain)
    words = cues + rng.sample(filler_pool, rng.randint(3, 5))
    if rng.random() < DISTRACTOR_RATE:
        words.append(rng.choice(_opposite_inventory(domain, label, rng)))
    rng.shuffle(words)
    return words


def _indirect_answer(domain: str, label: Label, rng: random.Random, role: str) -> str:
    words = _answer_words(domain, label, rng, role)
    return f"{words[0].capitalize()} {' '.join(words[1:])}.".replace("  ", " ")


def _direct_answer(label: Label, rng: random.Random) -> str:
    keyword = rng.choice(YES_PLANT_KEYWORDS if label is Label.YES else NO_PLANT_KEYWORDS)
    words = _answer_words("target", label, rng, role="distant")
    return f"{keyword.capitalize()}, {' '.join(words)}."


def _sample_label(weights: tuple[float, float, float], rng: random.Random) -> Label:
    return rng.choices((Label.YES, Label.NO, Label.MIDDLE), weights=weights, k=1)[0]


def _make_instances(config: SynthConfig, role: str) -> list[QAInstance]:
    """Indirect-answer instances for role "gold" (source domain, with label
    noise) or "test" (target domain); role also names the RNG scope."""
    gold = role == "gold"
    domain = "source" if gold else "target"
    count = config.n_gold if gold else config.n_test
    weights = GOLD_LABEL_WEIGHTS if gold else TEST_LABEL_WEIGHTS
    rng = _rng(config, role)
    instances = []
    for i in range(count):
        label = _sample_label(weights, rng)
        answer = _indirect_answer(domain, label, rng, role)
        if gold and rng.random() < LABEL_NOISE_RATE:
            label = rng.choice([l for l in Label if l is not label])
        base = f"{domain}-{role}-{i:05d}"
        instances.append(
            QAInstance(
                context=(_context_text(domain, rng),),
                question=_question_text(domain, rng),
                answer=answer,
                label=label,
                source="gold",
                origin_ids=(base, f"{base}-q", f"{base}-a"),
            )
        )
    return instances


def make_gold_instances(config: SynthConfig = SynthConfig()) -> list[QAInstance]:
    """Source-domain annotated training set (includes Middle)."""
    return _make_instances(config, "gold")


def make_test_instances(config: SynthConfig = SynthConfig()) -> list[QAInstance]:
    """Target-domain evaluation set with indirect answers (includes Middle)."""
    return _make_instances(config, "test")


def make_distant_corpus(config: SynthConfig = SynthConfig()) -> tuple[Corpus, dict[str, Label]]:
    """Target-domain dialogues whose questions pass the strict rules.

    Returns the corpus and the latent label per question turn id. Half the
    questions get Yes direct answers, half No; a small decoy fraction gets
    ambiguous both-polarity answers that extraction must drop (decoys do
    not appear in the latent map).
    """
    rng = _rng(config, "distant")
    n = config.n_distant_questions
    labels = [Label.YES] * (n // 2) + [Label.NO] * (n - n // 2)
    rng.shuffle(labels)
    n_decoys = int(round(n * DECOY_RATE))
    slots: list[Optional[Label]] = list(labels) + [None] * n_decoys
    rng.shuffle(slots)

    dialogues = []
    latent: dict[str, Label] = {}
    for i, label in enumerate(slots):
        dialogue_id = f"tgt-{i:05d}"
        question_id = f"{dialogue_id}-t1"
        if label is None:
            fillers = rng.sample(TARGET_FILLERS, 2)
            answer_text = f"Yes and no, the {fillers[0]} {fillers[1]} complicates it."
        else:
            answer_text = _direct_answer(label, rng)
            latent[question_id] = label
        turns = (
            Turn(f"{dialogue_id}-t0", dialogue_id, 0, "A", _context_text("target", rng)),
            Turn(question_id, dialogue_id, 1, "B", _question_text("target", rng)),
            Turn(f"{dialogue_id}-t2", dialogue_id, 2, "A", answer_text),
        )
        dialogues.append(Dialogue(dialogue_id=dialogue_id, turns=turns))
    return Corpus(dialogues=tuple(dialogues)), latent


@dataclass(frozen=True)
class TrendBundle:
    gold: list[QAInstance]
    test: list[QAInstance]
    corpus: Corpus
    latent: dict[str, Label]


def make_trend_bundle(config: SynthConfig = SynthConfig()) -> TrendBundle:
    corpus, latent = make_distant_corpus(config)
    return TrendBundle(
        gold=make_gold_instances(config),
        test=make_test_instances(config),
        corpus=corpus,
        latent=latent,
    )
