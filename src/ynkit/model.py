"""Deterministic linear classifier over hashed n-gram features.

Features are lowercased token n-grams of the selected instance fields,
each cut to its first MAX_TOKENS_PER_FIELD (512) tokens and prefixed by
field ("q:do_you"), hashed with 64-bit FNV-1a into a power-of-two bucket
space, count-accumulated, and L2-normalized. Training is plain SGD on
the multinomial logistic loss with multiplicative L2 decay, one pass per
epoch dataset in plan order; everything is a pure function of (plan,
config), so retraining reproduces bitwise-identical weights. Weight rows,
bias entries and probability columns follow corpus.LABEL_ORDER.

Featurization runs in batches. `featurize_many` looks up each instance's
n-gram buckets in Python, then counts, normalizes and sorts the whole
batch with array operations, into CSR rows bitwise equal to `featurize`.
`train` featurizes each distinct tuple of field texts once, in one batch,
and every plan row that repeats it uses views into that batch.
`predict_proba` featurizes its instances as one batch, and adds the bias
and takes the softmax (its callers, the argmax) over the whole batch, but
scores each row with its own gathered (classes, k) @ (k,) product: BLAS
sums that product in an order of its own, and summing the rows any other
way changes the last bits of the scores, and so the predictions file.

A process tokenizes each distinct whitespace chunk once
(`corpus.lowered_tokens`) and hashes each distinct n-gram once, through
one table per (field, order, num_buckets) that lives as long as the
process. A table is keyed by the n-gram's tokens, so a repeated n-gram
builds no key string. Each SGD row gathers its weight rows once, from a
(buckets, classes) array.
"""

from __future__ import annotations

import base64
import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .blend import TrainingPlan
from .corpus import LABEL_ORDER, Label, lowered_tokens
from .distant import QAInstance
from .errors import InvalidConfigError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

FIELD_PREFIXES = {"context": "c", "question": "q", "answer": "a"}

MAX_TOKENS_PER_FIELD = 512


def fnv1a_64(text: str) -> int:
    """64-bit FNV-1a over UTF-8 bytes; stable across runs and platforms."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    l2: float = 1e-6
    num_buckets: int = 2**18
    ngram_orders: tuple[int, ...] = (1, 2)
    fields_used: tuple[str, ...] = ("context", "question", "answer")

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise InvalidConfigError(f"l2 must be finite and non-negative, got {self.l2}")
        if self.learning_rate * self.l2 >= 1:  # the per-step decay 1 - lr * l2 would not shrink
            raise InvalidConfigError(f"learning_rate * l2 must be < 1, got {self.learning_rate * self.l2}")
        if self.num_buckets < 2 or self.num_buckets & (self.num_buckets - 1):
            raise InvalidConfigError("num_buckets must be a power of two >= 2")
        for f in self.fields_used:
            if f not in FIELD_PREFIXES:
                raise InvalidConfigError(f"unknown field {f!r}")
        if len(set(self.fields_used)) != len(self.fields_used):
            raise InvalidConfigError("fields_used must not repeat a field")
        # type(...) is int also rejects a boolean, which would alias order 1
        if not self.ngram_orders or any(type(n) is not int or n < 1 for n in self.ngram_orders):
            raise InvalidConfigError(
                f"ngram_orders must be integers >= 1, got {list(self.ngram_orders)!r}"
            )
        if len(set(self.ngram_orders)) != len(self.ngram_orders):
            raise InvalidConfigError("ngram_orders must not repeat an order")
        # no field keeps more tokens, so a higher order yields no n-gram, yet
        # _ngram_buckets would build that many token slices to find it out
        if max(self.ngram_orders) > MAX_TOKENS_PER_FIELD:
            raise InvalidConfigError(
                f"ngram_orders must be at most MAX_TOKENS_PER_FIELD ({MAX_TOKENS_PER_FIELD}), "
                f"got {list(self.ngram_orders)!r}"
            )

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "l2": self.l2,
            "num_buckets": self.num_buckets,
            "ngram_orders": list(self.ngram_orders),
            "fields_used": list(self.fields_used),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        if type(obj) is not dict:
            raise TypeError(f"config must be a JSON object, got {obj!r}")
        # model files written before the cap was fixed record it; one with
        # another cap would be featurized here unlike in its training
        cap = obj.get("max_tokens_per_field", MAX_TOKENS_PER_FIELD)
        if cap != MAX_TOKENS_PER_FIELD:
            raise InvalidConfigError(f"max_tokens_per_field must be {MAX_TOKENS_PER_FIELD}, got {cap!r}")
        return cls(
            learning_rate=obj["learning_rate"],
            l2=obj["l2"],
            num_buckets=obj["num_buckets"],
            ngram_orders=tuple(obj["ngram_orders"]),
            fields_used=tuple(obj["fields_used"]),
        )


def _field_texts(instance: QAInstance, fields: tuple[str, ...]) -> tuple[str, ...]:
    """The text of each field in use; instances with equal texts have equal
    features."""
    texts = []
    for field_name in fields:
        if field_name == "context":
            texts.append(" ".join(instance.context))
        elif field_name == "question":
            texts.append(instance.question)
        else:
            texts.append(instance.answer)
    return tuple(texts)


class _Unigrams(dict):
    """One field's unigram -> bucket table: a token is hashed, as the field
    prefix plus the token, on its first lookup only."""

    __slots__ = ("prefix", "mask")

    def __init__(self, prefix: str, mask: int) -> None:
        super().__init__()
        self.prefix = prefix
        self.mask = mask

    def __missing__(self, token: str) -> int:
        bucket = self[token] = fnv1a_64(self.prefix + token) & self.mask
        return bucket


class _Ngrams(_Unigrams):
    """One field's table for n-grams of one order above 1, each a tuple of
    tokens, whose key string joins the tokens with "_"."""

    __slots__ = ()

    def __missing__(self, gram: tuple[str, ...]) -> int:
        bucket = self[gram] = fnv1a_64(self.prefix + "_".join(gram)) & self.mask
        return bucket


# one table per (field, order, num_buckets) for the process: an n-gram's
# bucket depends only on its field prefix, its tokens and the bucket count,
# so a race between threads at worst stores an equal table or bucket twice
_NGRAM_TABLES: dict[tuple[str, int, int], _Unigrams] = {}


def _ngram_buckets(instance: QAInstance, config: TrainConfig) -> list[int]:
    """The bucket of each n-gram of instance, field by field and order by
    order, through the process's n-gram tables (made on first use)."""
    orders = sorted(config.ngram_orders)
    buckets: list[int] = []
    for field_name, text in zip(config.fields_used, _field_texts(instance, config.fields_used)):
        tokens = lowered_tokens(text)
        del tokens[MAX_TOKENS_PER_FIELD:]
        for order in orders:
            key = (field_name, order, config.num_buckets)
            table = _NGRAM_TABLES.get(key)
            if table is None:
                kind = _Unigrams if order == 1 else _Ngrams
                table = _NGRAM_TABLES[key] = kind(FIELD_PREFIXES[field_name] + ":", config.num_buckets - 1)
            grams = tokens if order == 1 else zip(*(tokens[i:] for i in range(order)))
            buckets += map(table.__getitem__, grams)
    return buckets


def featurize(instance: QAInstance, config: TrainConfig = TrainConfig()) -> dict[int, float]:
    """Sparse L2-normalized bucket->weight map for one instance."""
    # buckets in first-seen order; the counts are exact integers, so the
    # norm does not depend on how they were accumulated
    counts = Counter(_ngram_buckets(instance, config))
    norm = math.sqrt(sum(c * c for c in counts.values()))
    return {bucket: c / norm for bucket, c in counts.items()}


def featurize_many(
    instances: Sequence[QAInstance], config: TrainConfig = TrainConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The features of every instance as CSR rows (indptr, indices, values).

    Row i holds buckets indices[indptr[i]:indptr[i + 1]] in increasing
    order with their L2-normalized counts, bitwise equal to featurize's
    values; a row with no n-gram is empty. Only the n-gram lookups run per
    instance: counting, norms and sorting run once over the batch, on
    (row << log2(buckets)) | bucket keys.
    """
    flat, lengths = array("q"), array("q")
    for inst in instances:
        buckets = _ngram_buckets(inst, config)
        flat.extend(buckets)
        lengths.append(len(buckets))
    n = len(lengths)
    # row << shift fits in int64 for any batch and weight matrix that fit in memory
    shift = config.num_buckets.bit_length() - 1
    keys = np.repeat(np.arange(n, dtype=np.int64) << shift, lengths)
    keys |= np.frombuffer(flat, dtype=np.int64)
    del flat
    # each distinct key once, with the length of its run: np.unique's
    # return_counts would hold several more key-sized copies at its peak
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    keys = keys[starts]
    values = np.empty(len(starts), dtype=np.float64)  # the counts, exact below 2**53
    np.subtract(starts[1:], starts[:-1], out=values[:-1])
    values[-1:] = len(first) - starts[-1:]
    del first, starts
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) << shift)
    row_sizes = np.diff(indptr)
    # integer sums of squares, so exact whatever the order, as in featurize
    row_of = np.repeat(np.arange(n), row_sizes)
    norms = np.sqrt(np.bincount(row_of, weights=values * values, minlength=n))
    del row_of
    values /= np.repeat(norms, row_sizes)
    keys &= config.num_buckets - 1
    return indptr, keys, values


@dataclass
class LinearModel:
    weights: np.ndarray  # (classes, feature_config.num_buckets) float64, rows in LABEL_ORDER
    bias: np.ndarray  # (classes,) float64
    feature_config: TrainConfig


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def predict_proba(model: LinearModel, instances: Sequence[QAInstance]) -> np.ndarray:
    """(instances, classes) probabilities, featurized as one batch."""
    features = featurize_many(instances, model.feature_config)
    return _csr_proba(model, *features)


def _csr_proba(model: LinearModel, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Softmax of each CSR row's scores. Every row keeps its own gathered
    dot product: BLAS sums a (classes, k) @ (k,) product in an order of its
    own, and any other way of summing, batched or not, changes the last bits
    of the scores. A row with no features scores the bias."""
    weights = model.weights
    scores = np.zeros((len(indptr) - 1, len(model.bias)), dtype=np.float64)
    for row, (lo, hi) in enumerate(zip(indptr[:-1].tolist(), indptr[1:].tolist())):
        scores[row] = weights[:, indices[lo:hi]] @ values[lo:hi]
    scores += model.bias
    return softmax(scores)


def predict(model: LinearModel, instance: QAInstance) -> tuple[Label, dict[Label, float]]:
    """Argmax label and per-class probabilities; ties break by class order."""
    probs = predict_proba(model, [instance])[0]
    return LABEL_ORDER[int(np.argmax(probs))], dict(zip(LABEL_ORDER, probs.tolist()))


@np.errstate(over="ignore", invalid="ignore")  # weights that diverge raise below instead
def train(plan: TrainingPlan, config: TrainConfig = TrainConfig()) -> LinearModel:
    """SGD over the plan's epochs in order, instance order as given.

    L2 is applied as per-step multiplicative decay, tracked lazily through
    a scalar so updates stay sparse. Rows with equal field texts share one
    featurization, whether or not they are the same object. The weights
    are kept as (buckets, classes), so that each row gathers its weights
    from contiguous memory, once.
    """
    if not plan.epochs or all(len(e.instances) == 0 for e in plan.epochs):
        raise InvalidConfigError("training plan contains no instances")
    label_index = {label: i for i, label in enumerate(LABEL_ORDER)}
    try:
        stored = np.zeros((config.num_buckets, len(LABEL_ORDER)), dtype=np.float64)
    except (ValueError, MemoryError) as exc:  # num_buckets too large to allocate
        raise InvalidConfigError(f"num_buckets {config.num_buckets} cannot be allocated: {exc}") from None
    bias = np.zeros(len(LABEL_ORDER), dtype=np.float64)
    scale = 1.0
    decay = 1.0 - config.learning_rate * config.l2
    lr = config.learning_rate

    # each row's (indices, values, label index) by instance identity (the
    # plan keeps every instance alive, so no id is reused); rows with equal
    # field texts share one featurization, and so one view of the batch
    by_object: dict[int, tuple[int, int]] = {}
    slot_of_texts: dict[tuple[str, ...], int] = {}
    distinct: list[QAInstance] = []
    for epoch in plan.epochs:
        for inst in epoch.instances:
            if id(inst) not in by_object:
                if inst.label is None:
                    raise InvalidConfigError(
                        f"unlabeled instance with origin {inst.origin_ids}"
                    )
                slot = slot_of_texts.setdefault(_field_texts(inst, config.fields_used), len(distinct))
                if slot == len(distinct):
                    distinct.append(inst)
                by_object[id(inst)] = (slot, label_index[inst.label])
    indptr, all_indices, all_values = featurize_many(distinct, config)
    features = [
        (all_indices[lo:hi], all_values[lo:hi])
        for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist())
    ]
    rows_of = {key: (*features[slot], target) for key, (slot, target) in by_object.items()}

    for epoch in plan.epochs:
        for inst in epoch.instances:
            indices, values, target = rows_of[id(inst)]
            if len(indices) == 0:
                rows = None
                scores = bias.copy()
            else:
                rows = stored.take(indices, axis=0)
                scores = scale * (rows.T @ values) + bias
            probs = softmax(scores)
            probs[target] -= 1.0  # now the gradient wrt scores
            scale *= decay
            if scale < 1e-12:  # fold the lazy decay back in before underflow
                stored *= scale
                if rows is not None:
                    rows *= scale
                scale = 1.0
            if rows is not None:
                stored[indices] = rows - (lr / scale) * (values[:, None] * probs)
            bias -= lr * probs

    weights = np.ascontiguousarray((stored * scale).T)
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise InvalidConfigError(
            f"training diverged to weights that are not finite (learning_rate {lr}, l2 {config.l2})"
        )
    return LinearModel(weights=weights, bias=bias, feature_config=config)


# -- serialization: one JSON container, exact round-trip --
#
# Only the weight columns with a set bit are stored (columns_b64 lists
# them in increasing order); every other column loads as zeros. The file
# also records the label order, which must be LABEL_ORDER's.

_FORMAT = "ynkit-linear-model"
_VERSION = 2
_CLASS_LABELS = [label.value for label in LABEL_ORDER]


def _b64(array: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(array, dtype=dtype).tobytes()).decode("ascii")


def _unb64(text: str, dtype: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype)


def save_model(model: LinearModel, path: Union[str, Path]) -> None:
    weights = np.ascontiguousarray(model.weights, dtype="<f8")
    columns = np.flatnonzero(weights.view("<u8").any(axis=0))  # keeps -0.0 too
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "config": model.feature_config.to_dict(),
        "class_labels": _CLASS_LABELS,
        "bias_b64": _b64(model.bias, "<f8"),
        "columns_b64": _b64(columns, "<i8"),
        "weights_b64": _b64(weights[:, columns], "<f8"),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path: Union[str, Path]) -> LinearModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or JSON
        raise InvalidConfigError(f"{path}: not a {_FORMAT} file: {exc}") from None
    if not (
        isinstance(payload, dict)
        and payload.get("format") == _FORMAT
        and payload.get("version") == _VERSION
    ):
        raise InvalidConfigError(f"{path}: not a {_FORMAT} v{_VERSION} file")
    try:
        config = TrainConfig.from_dict(payload["config"])
        if payload["class_labels"] != _CLASS_LABELS:
            raise ValueError(f"class_labels must be {_CLASS_LABELS}, got {payload['class_labels']!r}")
        bias = _unb64(payload["bias_b64"], "<f8").astype(np.float64)
        columns = _unb64(payload["columns_b64"], "<i8")
        values = _unb64(payload["weights_b64"], "<f8").reshape(len(LABEL_ORDER), len(columns))
    except (KeyError, TypeError, ValueError, InvalidConfigError) as exc:
        raise InvalidConfigError(f"{path}: damaged {_FORMAT} file: {exc!r}") from None
    if bias.shape != (len(LABEL_ORDER),) or np.any(np.diff(columns) <= 0) or (
        len(columns) and not 0 <= columns[0] <= columns[-1] < config.num_buckets
    ):
        raise InvalidConfigError(f"{path}: damaged {_FORMAT} file: inconsistent shapes")
    if not (np.isfinite(values).all() and np.isfinite(bias).all()):
        raise InvalidConfigError(f"{path}: damaged {_FORMAT} file: weights or bias not finite")
    try:
        weights = np.zeros((len(LABEL_ORDER), config.num_buckets), dtype=np.float64)
    except (ValueError, MemoryError) as exc:  # num_buckets too large to allocate
        raise InvalidConfigError(f"{path}: damaged {_FORMAT} file: {exc!r}") from None
    weights[:, columns] = values
    return LinearModel(weights=weights, bias=bias, feature_config=config)
