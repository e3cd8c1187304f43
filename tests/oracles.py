"""Brute-force implementations used only as test oracles.

Written as plain loops, independent of the package code paths they check.
"""

import hashlib
import json
import math
import random
import re
import unicodedata
from pathlib import Path

import numpy as np

from ynkit import model as model_module
from ynkit.blend import EpochDataset, TrainingPlan
from ynkit.corpus import LABEL_ORDER, Corpus, Dialogue, Turn, parse_label, tokenize
from ynkit.distant import ORIGIN_KEYS, QAInstance, instance_to_dict
from ynkit.errors import CorpusFormatError
from ynkit.model import FIELD_PREFIXES, LinearModel, fnv1a_64, train
from ynkit.qid import (
    ANSWER_SENTENCE_WINDOW,
    AUXILIARY_VERBS,
    MIN_TOKENS_EXCLUSIVE,
    NO_KEYWORDS,
    WH_WORDS,
    YES_KEYWORDS,
    YES_NO_ACTS,
    QidMatch,
)


def naive_per_label_f1(gold, predicted):
    """Precision/recall/F1 per label by direct counting; 0/0 -> 0."""
    out = {}
    for label in LABEL_ORDER:
        tp = fp = fn = 0
        for g, p in zip(gold, predicted):
            if p == label and g == label:
                tp += 1
            elif p == label:
                fp += 1
            elif g == label:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        out[label] = (precision, recall, f1)
    return out


def naive_macro_f1(gold, predicted):
    per_label = naive_per_label_f1(gold, predicted)
    return sum(f for _, _, f in per_label.values()) / len(LABEL_ORDER)


def naive_kappa(gold_a, gold_b):
    n = len(gold_a)
    agree = 0
    for a, b in zip(gold_a, gold_b):
        if a == b:
            agree += 1
    po = agree / n
    pe = 0.0
    for label in LABEL_ORDER:
        count_a = sum(1 for a in gold_a if a == label)
        count_b = sum(1 for b in gold_b if b == label)
        pe += (count_a / n) * (count_b / n)
    return (po - pe) / (1 - pe)


def naive_featurize(instance, config):
    """The hashed n-gram features by one plain loop per n-gram: no memo,
    float counts accumulated in place, numpy square root."""
    counts = {}
    mask = config.num_buckets - 1
    for field_name in config.fields_used:
        if field_name == "context":
            text = " ".join(instance.context)
        elif field_name == "question":
            text = instance.question
        else:
            text = instance.answer
        tokens = [t.lower() for t in tokenize(text)][: model_module.MAX_TOKENS_PER_FIELD]
        prefix = FIELD_PREFIXES[field_name]
        for order in sorted(config.ngram_orders):
            for i in range(len(tokens) - order + 1):
                key = prefix + ":" + "_".join(tokens[i : i + order])
                bucket = fnv1a_64(key) & mask
                counts[bucket] = counts.get(bucket, 0.0) + 1.0
    norm = float(np.sqrt(sum(v * v for v in counts.values())))
    if norm > 0:
        counts = {k: v / norm for k, v in counts.items()}
    return counts


def _as_arrays(features):
    """A bucket -> value map as (indices, values) arrays, in bucket order."""
    buckets = sorted(features)
    indices = np.array(buckets, dtype=np.int64)
    values = np.array([features[b] for b in buckets], dtype=np.float64)
    return indices, values


def naive_predict(model, instance):
    """(label, probabilities) of one instance scored alone: the sorted
    oracle features, one gathered dot product, bias, softmax and the first
    argmax."""
    indices, values = _as_arrays(naive_featurize(instance, model.feature_config))
    if len(indices) == 0:
        scores = model.bias.copy()
    else:
        scores = model.weights[:, indices] @ values + model.bias
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    probs = exp / exp.sum()
    return LABEL_ORDER[int(np.argmax(probs))], probs


# -- the update train applies, against finite differences of the log-loss --

_PROBE_WORDS = ("yes", "no", "maybe", "sure", "never", "guess", "think", "so", "not", "really", "well", "okay")


def _probe_rows(size, seed):
    """size labeled instances whose answers are 2 to 6 words, seeded."""
    rng = random.Random(seed)
    return [
        QAInstance(
            context=(),
            question="Is it?",
            answer=" ".join(rng.choices(_PROBE_WORDS, k=rng.randint(2, 6))),
            label=rng.choice(LABEL_ORDER),
            source="gold",
            origin_ids=("probe", f"q{i}", f"a{i}"),
        )
        for i in range(size)
    ]


def _central_difference(params, where, loss, step):
    saved = params[where]
    params[where] = saved + step
    up = loss()
    params[where] = saved - step
    down = loss()
    params[where] = saved
    return (up - down) / (2 * step)


def train_step_gradients(config, probe_size, seed=0, step=1e-5):
    """Each probe row's log-loss gradient as train applies it, and by
    central finite differences, as two flat vectors, row after row.

    train runs one epoch over rows[:k] and one over rows[:k + 1]; their
    weights W_k and W_k+1 give row k's gradient at W_k as
    ((1 - lr * l2) * W_k - W_k+1) / lr, the bias's as (b_k - b_k+1) / lr.
    The finite differences of -log p[label] come from naive_predict at W_k,
    over every bucket the row touches, in every class, and the bias; every
    other weight's gradient is 0, so a weight train moves without cause
    counts as an error too.
    """
    rows = _probe_rows(probe_size, seed)
    lr, decay = config.learning_rate, 1.0 - config.learning_rate * config.l2
    classes = len(LABEL_ORDER)
    before = LinearModel(np.zeros((classes, config.num_buckets)), np.zeros(classes), config)
    applied, numeric = [], []
    for k, row in enumerate(rows):
        epoch = EpochDataset(gold_count=k + 1, instances=tuple(rows[: k + 1]))
        after = train(TrainingPlan(epochs=(epoch,), provenance={}), config)
        target = LABEL_ORDER.index(row.label)

        def loss():
            return -math.log(naive_predict(before, row)[1][target])

        fd_weights = np.zeros_like(before.weights)
        for bucket in naive_featurize(row, config):
            for c in range(classes):
                fd_weights[c, bucket] = _central_difference(before.weights, (c, bucket), loss, step)
        fd_bias = [_central_difference(before.bias, c, loss, step) for c in range(classes)]
        applied += [((decay * before.weights - after.weights) / lr).ravel(), (before.bias - after.bias) / lr]
        numeric += [fd_weights.ravel(), fd_bias]
        before = after
    return np.concatenate(applied), np.concatenate(numeric)


def max_relative_error(a, b):
    """The largest coordinate-wise |a - b| / max(1, |a|, |b|); the unit
    floor keeps tiny gradients from inflating the ratio."""
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


# -- corpus loading: one dict per line, one check at a time --


def _naive_lines(path):
    """(where, obj) per non-blank line, through json.loads."""
    with Path(path).open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            where = f"{path}: line {lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"{where}: not UTF-8 ({exc.reason})") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{where}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise CorpusFormatError(f"{where}: expected a JSON object")
            yield where, obj


def _naive_wrong_type(where, key, expected, value):
    return CorpusFormatError(f"{where}: {key!r} must be {expected}, got {value!r}")


def _naive_string(obj, key, where):
    if key not in obj:
        raise CorpusFormatError(f"{where}: missing key {key!r}")
    if not isinstance(obj[key], str):
        raise _naive_wrong_type(where, key, "a string", obj[key])
    return obj[key]


def _naive_reply_chain(raw_turns, conversation_id):
    by_id = {t["id"]: t for t in raw_turns}
    roots = [t for t in raw_turns if t.get("reply_to") in (None, "")]
    if len(roots) != 1:
        raise CorpusFormatError(
            f"conversation {conversation_id!r}: expected exactly one root turn "
            f"(reply_to null), found {len(roots)}"
        )
    children = {}
    for t in raw_turns:
        parent = t.get("reply_to")
        if parent in (None, ""):
            continue
        if parent not in by_id:
            raise CorpusFormatError(
                f"conversation {conversation_id!r}: turn {t['id']!r} replies to "
                f"unknown turn {parent!r}"
            )
        children.setdefault(parent, []).append(t["id"])
    ordered = [roots[0]]
    while True:
        nxt = children.get(ordered[-1]["id"], [])
        if not nxt:
            break
        if len(nxt) > 1:
            raise CorpusFormatError(
                f"conversation {conversation_id!r}: turn {ordered[-1]['id']!r} "
                f"has multiple replies; chain is not linear"
            )
        ordered.append(by_id[nxt[0]])
    if len(ordered) != len(raw_turns):
        missing = sorted(set(by_id) - {t["id"] for t in ordered})
        raise CorpusFormatError(
            f"conversation {conversation_id!r}: turn {missing[0]!r} is not "
            f"reachable from the root reply chain"
        )
    return ordered


def naive_load_corpus(path):
    """load_corpus as written before its one-pass loader: a six-key dict per
    line, each required field fetched and checked on its own (they must be
    strings), each Turn built by keyword."""
    seen_ids = set()
    conversations = {}
    for where, obj in _naive_lines(path):
        turn_id = _naive_string(obj, "id", where)
        conv_id = _naive_string(obj, "conversation_id", where)
        speaker = _naive_string(obj, "speaker", where)
        text = unicodedata.normalize("NFC", _naive_string(obj, "text", where))
        if not text.strip():
            raise CorpusFormatError(f"{where}: turn {turn_id!r} has empty text")
        if turn_id in seen_ids:
            raise CorpusFormatError(f"{where}: duplicate turn id {turn_id!r}")
        seen_ids.add(turn_id)
        ordinal = obj.get("ordinal")
        if ordinal is not None and (isinstance(ordinal, bool) or not isinstance(ordinal, int)):
            raise _naive_wrong_type(where, "ordinal", "an integer", ordinal)
        reply_to = obj.get("reply_to")
        if reply_to is not None and not isinstance(reply_to, str):
            raise _naive_wrong_type(where, "reply_to", "a string", reply_to)
        meta = obj.get("meta")
        if meta is None:
            meta = {}
        elif not isinstance(meta, dict):
            raise _naive_wrong_type(where, "meta", "a JSON object", meta)
        act = meta.get("dialogue_act")
        if act is not None and not isinstance(act, str):
            raise _naive_wrong_type(where, "meta.dialogue_act", "a string", act)
        conversations.setdefault(conv_id, []).append(
            {"id": turn_id, "speaker": speaker, "text": text, "ordinal": ordinal,
             "reply_to": reply_to, "dialogue_act": act}
        )

    dialogues = []
    for conv_id in sorted(conversations):
        raw_turns = conversations[conv_id]
        if all(t["ordinal"] is not None for t in raw_turns):
            raw_turns = sorted(raw_turns, key=lambda t: t["ordinal"])
            ordinals = [t["ordinal"] for t in raw_turns]
            if ordinals != list(range(len(raw_turns))):
                raise CorpusFormatError(
                    f"conversation {conv_id!r}: ordinals must be consecutive "
                    f"from 0, got {ordinals}"
                )
        elif all(t["ordinal"] is None for t in raw_turns):
            raw_turns = _naive_reply_chain(raw_turns, conv_id)
        else:
            raise CorpusFormatError(
                f"conversation {conv_id!r}: mixes explicit ordinals with "
                f"reply_to ordering"
            )
        turns = tuple(
            Turn(turn_id=t["id"], dialogue_id=conv_id, ordinal=i, speaker=t["speaker"],
                 text=t["text"], dialogue_act=t["dialogue_act"])
            for i, t in enumerate(raw_turns)
        )
        dialogues.append(Dialogue(dialogue_id=conv_id, turns=turns))
    return Corpus(dialogues=tuple(dialogues))


# -- instance records: one generator-checked dict per line --


def naive_instance_from_dict(obj):
    """distant.instance_from_dict as written before its lean happy path."""
    context = [] if obj.get("context") is None else obj["context"]
    origin = {} if obj.get("origin") is None else obj["origin"]
    if not isinstance(context, list) or not isinstance(origin, dict):
        raise TypeError("context must be a list and origin an object")
    label = obj.get("label")
    inst = QAInstance(
        context=tuple(context),
        question=obj["question"],
        answer=obj["answer"],
        label=parse_label(label) if label is not None else None,
        source=obj.get("source", "gold"),
        origin_ids=tuple(origin.get(key, "") for key in ORIGIN_KEYS),
    )
    texts = (inst.question, inst.answer, inst.source, *inst.context, *inst.origin_ids)
    if not all(isinstance(text, str) for text in texts):
        raise TypeError("text fields and origin ids must be strings")
    return inst


def naive_read_instances(path):
    """distant.read_instances through json.loads and naive_instance_from_dict."""
    instances = []
    for where, obj in _naive_lines(path):
        try:
            instances.append(naive_instance_from_dict(obj))
        except KeyError as exc:
            raise CorpusFormatError(f"{where}: missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError, CorpusFormatError) as exc:
            raise CorpusFormatError(f"{where}: bad instance record ({exc})") from None
    return instances


# -- question identification: every turn tokenized afresh --

_WS_RE = re.compile(r"\s+")
_SENT_SPLIT_RE = re.compile(r"(?<=[.?!]) ")


def naive_split_sentences(text: str) -> list[str]:
    """Split at '.', '?', or '!' followed by whitespace or end of string.

    Whitespace is normalized first, so joining the result with single
    spaces reproduces the whitespace-normalized input. Terminators stay
    with their sentence; empty sentences are never returned.
    """
    normalized = _WS_RE.sub(" ", text).strip()
    if not normalized:
        return []
    return [part for part in _SENT_SPLIT_RE.split(normalized) if part]


def naive_window_tokens(text):
    """qid.answer_window_tokens, by regex sentence splitting and tokenize."""
    return [t.lower() for s in naive_split_sentences(text)[:ANSWER_SENTENCE_WINDOW] for t in tokenize(s)]


def naive_scan_corpus(corpus, mode):
    """The matches of qid.scan_corpus, by plain loops without a memo."""
    matches = []
    for dialogue in corpus.dialogues:
        for i, turn in enumerate(dialogue.turns):
            answer = dialogue.turns[i + 1] if i + 1 < len(dialogue.turns) else None
            if mode == "dialogue_act":
                if turn.dialogue_act not in YES_NO_ACTS:
                    continue
            else:
                tokens = [t.lower() for t in tokenize(turn.text)]
                if not (
                    turn.text.rstrip().endswith("?")
                    and len(tokens) > MIN_TOKENS_EXCLUSIVE
                    and not any(t in WH_WORDS for t in tokens)
                    and any(t in AUXILIARY_VERBS for t in tokens)
                ):
                    continue
            direct = answer is not None and any(
                t in YES_KEYWORDS or t in NO_KEYWORDS for t in naive_window_tokens(answer.text)
            )
            if mode == "strict" and not direct:
                continue
            matches.append(QidMatch(question=turn, answer=answer, mode=mode))
    return matches


def plan_instances_digest(plan):
    """Stable content digest of a plan's instances, epoch by epoch."""
    h = hashlib.sha256()
    for epoch in plan.epochs:
        for inst in epoch.instances:
            h.update(json.dumps(instance_to_dict(inst), sort_keys=True).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()
