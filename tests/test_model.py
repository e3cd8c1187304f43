import base64
import hashlib
import json
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ynkit import corpus as corpus_module, model as model_module
from ynkit.blend import (
    build_blended_plan,
    build_gold_plan,
    build_merged_plan,
    export_plan,
    load_plan,
)
from ynkit.corpus import LABEL_ORDER, Label, tokenize
from ynkit.distant import QAInstance
from ynkit.errors import InvalidConfigError
from ynkit.model import (
    FIELD_PREFIXES,
    LinearModel,
    TrainConfig,
    _csr_proba,
    featurize,
    featurize_many,
    fnv1a_64,
    load_model,
    predict,
    predict_proba,
    save_model,
    train,
)
from ynkit.synth import SynthConfig, make_gold_instances, make_test_instances

from oracles import _as_arrays, max_relative_error, naive_featurize, naive_predict, train_step_gradients


def _inst(question, answer, label, i=0, context=()):
    return QAInstance(
        context=tuple(context),
        question=question,
        answer=answer,
        label=label,
        source="gold",
        origin_ids=(f"d{i}", f"q{i}", f"a{i}"),
    )


def test_fnv1a_64_published_vectors():
    assert fnv1a_64("") == 0xCBF29CE484222325
    assert fnv1a_64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64("foobar") == 0x85944171F73967E8


def test_train_config_validation():
    with pytest.raises(InvalidConfigError):
        TrainConfig(num_buckets=1000)  # not a power of two
    with pytest.raises(InvalidConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(InvalidConfigError):
        TrainConfig(fields_used=("question", "paragraph"))
    with pytest.raises(InvalidConfigError):
        TrainConfig(ngram_orders=())
    with pytest.raises(InvalidConfigError, match="repeat"):
        TrainConfig(ngram_orders=(1, 2, 1))
    with pytest.raises(InvalidConfigError, match="repeat"):
        TrainConfig(fields_used=("question", "question"))
    for bad in ((1.5,), (True, 2), (1, 2.0), ("2",), (0,)):
        with pytest.raises(InvalidConfigError, match="ngram_orders must be integers >= 1"):
            TrainConfig(ngram_orders=bad)


def test_featurize_deterministic_and_field_masked():
    config = TrainConfig(fields_used=("question", "answer"))
    a = _inst("Do you agree?", "Mostly.", Label.YES, context=("earlier text",))
    b = _inst("Do you agree?", "Mostly.", Label.YES, context=("different context",))
    assert featurize(a, config) == featurize(b, config)
    assert featurize(a, config) == featurize(a, config)


def test_featurize_unigram_counts():
    config = TrainConfig(fields_used=("question",), ngram_orders=(1,))
    features = featurize(_inst("hi ?", "x", Label.YES), config)
    assert len(features) == 2
    norm = np.sqrt(sum(v * v for v in features.values()))
    assert abs(norm - 1.0) < 1e-12


@pytest.mark.parametrize(
    "config, max_tokens",
    [
        (TrainConfig(), model_module.MAX_TOKENS_PER_FIELD),
        (TrainConfig(num_buckets=2**4, ngram_orders=(3, 1, 2)), model_module.MAX_TOKENS_PER_FIELD),  # colliding
        (TrainConfig(fields_used=("answer", "context"), ngram_orders=(2,)), 3),  # the cap cuts most fields
    ],
    ids=["config0", "config1", "config2"],
)
def test_featurize_matches_plain_loop(config, max_tokens):
    instances = make_test_instances(SynthConfig(seed=3, n_test=60)) + [
        _inst("?!", "Yes , yes , yes ...", Label.YES, context=("", "(a) [b]")),
        _inst("Is it?", "x", Label.NO, context=()),
    ]
    with patch.object(model_module, "MAX_TOKENS_PER_FIELD", max_tokens):
        for inst in instances + instances:  # the second pass finds every n-gram cached
            expected = naive_featurize(inst, config)
            assert list(featurize(inst, config).items()) == list(expected.items())


def _fresh_caches(monkeypatch):
    """Empty chunk-token and n-gram tables for the rest of a test."""
    monkeypatch.setattr(corpus_module, "_CHUNK_TOKENS", corpus_module._ChunkTokens())
    monkeypatch.setattr(model_module, "_NGRAM_TABLES", {})


def test_featurize_under_several_configs_in_one_process(monkeypatch):
    """Configs that differ in num_buckets or ngram_orders, one after the
    other and back, each get the oracle's features from the shared tables."""
    _fresh_caches(monkeypatch)
    instances = make_test_instances(SynthConfig(seed=4, n_test=30))
    small, large = 2**6, 2**12
    configs = [
        TrainConfig(num_buckets=small, ngram_orders=(1, 2)),
        TrainConfig(num_buckets=large, ngram_orders=(1, 2)),
        TrainConfig(num_buckets=large, ngram_orders=(2, 3)),
        TrainConfig(num_buckets=small, ngram_orders=(2, 3)),
        TrainConfig(num_buckets=small, ngram_orders=(1, 2)),
    ]
    for config in configs:
        indptr, indices, values = featurize_many(instances, config)
        for i, inst in enumerate(instances):
            expected = naive_featurize(inst, config)
            assert list(featurize(inst, config).items()) == list(expected.items())
            expected_indices, expected_values = _as_arrays(expected)
            assert indices[indptr[i] : indptr[i + 1]].tobytes() == expected_indices.tobytes()
            assert values[indptr[i] : indptr[i + 1]].tobytes() == expected_values.tobytes()
    assert {key[1:] for key in model_module._NGRAM_TABLES} == {
        (order, buckets) for order in (1, 2, 3) for buckets in (small, large)
    }


# chunks of punctuation only, apostrophes, mixed and Unicode case; drawn
# from a small set so that chunks repeat within and across instances
_CHUNKS = st.one_of(
    st.sampled_from(["?!", '"(Yes).', "don't", "DON'T?", "Don't.", "ΣΑΣ", "ΣΑΣ.", "İ", "(İyi)",
                     "...", "yes", "Yes,", "YES", "x"]),
    st.text(alphabet="aZ'?.,(\"Σİ", min_size=1, max_size=4),
)
_TEXTS = st.lists(
    st.tuples(_CHUNKS, st.sampled_from([" ", "  ", "\t", "\n", "\u00a0"])), min_size=1, max_size=8
).map(lambda parts: "".join(chunk + gap for chunk, gap in parts))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    texts=st.lists(st.tuples(st.lists(_TEXTS, max_size=2), _TEXTS, _TEXTS), min_size=1, max_size=4),
    max_tokens=st.integers(1, 9),
)
def test_shared_chunk_memo_matches_plain_loop(texts, max_tokens):
    """The process caches, shared by many instances, give the oracle's
    features, also where the token cap cuts through a chunk's tokens."""
    config = TrainConfig(num_buckets=2**6, ngram_orders=(1, 2, 3))
    instances = [_inst(q, a, Label.YES, context=context) for context, q, a in texts]
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(model_module, "MAX_TOKENS_PER_FIELD", max_tokens)
        _fresh_caches(monkeypatch)
        for inst in instances + instances:
            assert list(featurize(inst, config).items()) == list(naive_featurize(inst, config).items())
        chunk_tokens = corpus_module._CHUNK_TOKENS.items()
        assert all(tokens == [t.lower() for t in tokenize(chunk)] for chunk, tokens in chunk_tokens)
        assert all(bucket == fnv1a_64(key) % 2**6 for key, bucket in _memo_entries())


_MAYBE_EMPTY = st.one_of(st.sampled_from([" ", " \t "]), _TEXTS)  # blank: no tokens
_INSTANCE_TEXTS = st.lists(
    st.tuples(st.lists(_MAYBE_EMPTY, max_size=2), _MAYBE_EMPTY, _MAYBE_EMPTY), min_size=1, max_size=5
)
_ORDERS = st.sampled_from([(1,), (1, 2), (1, 2, 3)])
_FIELDS = st.lists(st.sampled_from(list(FIELD_PREFIXES)), min_size=1, max_size=3, unique=True).map(tuple)


def _batch(texts):
    """Instances of the drawn texts, between two with no tokens at all."""
    empty = _inst(" ", "\n", Label.NO, context=("", " "))
    return [empty] + [_inst(q, a, Label.YES, context=context) for context, q, a in texts] + [empty]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    texts=_INSTANCE_TEXTS,
    orders=_ORDERS,
    fields=_FIELDS,
    max_tokens=st.integers(1, 9),
    buckets=st.sampled_from([2**4, 2**6, 2**18]),
)
def test_featurize_many_rows_equal_featurize_and_oracle(texts, orders, fields, max_tokens, buckets):
    """Each CSR row is bitwise the sorted featurize map and the oracle's,
    rows with no n-gram included."""
    config = TrainConfig(num_buckets=buckets, ngram_orders=orders, fields_used=fields)
    instances = _batch(texts)
    with patch.object(model_module, "MAX_TOKENS_PER_FIELD", max_tokens):
        indptr, indices, values = featurize_many(instances, config)
        assert indptr[0] == 0 and indptr[-1] == len(indices) == len(values)
        assert indptr[1] == 0  # the first instance has no text
        for i, inst in enumerate(instances):
            lo, hi = indptr[i], indptr[i + 1]
            for expected in (_as_arrays(featurize(inst, config)), _as_arrays(naive_featurize(inst, config))):
                assert indices[lo:hi].tobytes() == expected[0].tobytes()
                assert values[lo:hi].tobytes() == expected[1].tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    texts=_INSTANCE_TEXTS,
    orders=_ORDERS,
    fields=_FIELDS,
    weight_scale=st.sampled_from([0.0, 1.0, 40.0]),  # ties, typical, saturated
    seed=st.integers(0, 2**32 - 1),
)
def test_predict_proba_rows_equal_naive_predict(texts, orders, fields, weight_scale, seed):
    config = TrainConfig(num_buckets=2**6, ngram_orders=orders, fields_used=fields)
    rng = np.random.default_rng(seed)
    model = LinearModel(
        weight_scale * rng.normal(size=(3, config.num_buckets)),
        weight_scale * rng.normal(size=3),
        config,
    )
    instances = _batch(texts)
    probs = predict_proba(model, instances)
    assert probs.shape == (len(instances), len(LABEL_ORDER))
    for inst, row in zip(instances, probs):
        label, expected = naive_predict(model, inst)
        assert row.tobytes() == expected.tobytes()
        assert LABEL_ORDER[int(np.argmax(row))] is label
        assert predict(model, inst) == (label, dict(zip(LABEL_ORDER, expected.tolist())))


def _memo_entries():
    """(key string, bucket) for each n-gram in the process's n-gram tables:
    the field prefix plus the n-gram's tokens joined by "_"."""
    entries = []
    for (field_name, order, _), table in model_module._NGRAM_TABLES.items():
        prefix = FIELD_PREFIXES[field_name] + ":"
        for gram, bucket in table.items():
            assert (type(gram) is str) == (order == 1)
            assert order == 1 or len(gram) == order
            entries.append((prefix + (gram if order == 1 else "_".join(gram)), bucket))
    return entries


def test_featurize_l2_normalized():
    config = TrainConfig()
    features = featurize(
        _inst("Do you like Mexican food?", "Yeah, I think so.", Label.YES,
              context=("We were talking about dinner.",)),
        config,
    )
    norm = np.sqrt(sum(v * v for v in features.values()))
    assert abs(norm - 1.0) < 1e-12


def _toy_separable(per_class=10):
    # disjoint vocabularies guarantee linear separability
    yes_words = ["alpha", "bravo", "charlie", "delta"]
    no_words = ["golf", "hotel", "india", "juliet"]
    instances = []
    for i in range(per_class):
        instances.append(
            _inst(
                f"is it {yes_words[i % 4]} {yes_words[(i + 1) % 4]}?",
                f"{yes_words[(i + 2) % 4]} {yes_words[i % 4]}",
                Label.YES,
                i,
            )
        )
        instances.append(
            _inst(
                f"is it {no_words[i % 4]} {no_words[(i + 1) % 4]}?",
                f"{no_words[(i + 2) % 4]} {no_words[i % 4]}",
                Label.NO,
                100 + i,
            )
        )
    return instances


def test_training_fits_separable_toy_set():
    instances = _toy_separable()
    plan = build_gold_plan(instances, epochs=5, seed=0)
    model = train(plan, TrainConfig())
    correct = sum(predict(model, inst)[0] is inst.label for inst in instances)
    assert correct == len(instances)


def test_training_bitwise_deterministic():
    instances = _toy_separable()
    plan = build_merged_plan(instances, [], epochs=3, seed=1)
    config = TrainConfig()
    a = train(plan, config)
    b = train(plan, config)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_singleton_memorization():
    inst = _inst("Do you like it?", "Yeah totally.", Label.YES)
    plan = build_gold_plan([inst], epochs=1, seed=0)
    model = train(plan, TrainConfig())
    assert predict(model, inst)[0] is Label.YES


def test_unlabeled_instance_rejected():
    good = _inst("Is it fine?", "Sure.", Label.YES, 0)
    bad = QAInstance(
        context=(),
        question="Is it bad?",
        answer="Hmm.",
        label=None,
        source="gold",
        origin_ids=("dx", "qx", "ax"),
    )
    plan = build_gold_plan([good, bad], epochs=1, seed=0)
    with pytest.raises(InvalidConfigError, match="unlabeled instance with origin .*qx"):
        train(plan, TrainConfig())


def test_predict_probabilities_sum_to_one():
    instances = _toy_separable(4)
    model = train(build_gold_plan(instances, 2, 0), TrainConfig())
    for inst in instances:
        _, probs = predict(model, inst)
        assert abs(sum(probs.values()) - 1.0) < 1e-9
        assert all(0.0 < p < 1.0 for p in probs.values())


def test_zero_weights_uniform_and_tie_break():
    config = TrainConfig()
    model = LinearModel(
        weights=np.zeros((3, config.num_buckets)),
        bias=np.zeros(3),
        feature_config=config,
    )
    label, probs = predict(model, _inst("Anything here?", "Whatever.", None))
    assert label is LABEL_ORDER[0]  # ties break by class order
    assert all(abs(p - 1 / 3) < 1e-9 for p in probs.values())


def test_scaling_weights_preserves_argmax():
    instances = _toy_separable(5)
    model = train(build_gold_plan(instances, 3, 0), TrainConfig())
    scaled = LinearModel(
        weights=model.weights * 3.7,
        bias=model.bias * 3.7,
        feature_config=model.feature_config,
    )
    for inst in instances:
        assert predict(model, inst)[0] is predict(scaled, inst)[0]


def test_bucket_permutation_invariance():
    instances = _toy_separable(5)
    config = TrainConfig(num_buckets=2**10)
    model = train(build_gold_plan(instances, 3, 0), config)
    rng = np.random.default_rng(0)
    perm = rng.permutation(config.num_buckets)
    permuted = LinearModel(
        weights=model.weights[:, np.argsort(perm)],
        bias=model.bias,
        feature_config=config,
    )
    indptr, indices, values = featurize_many(instances, config)
    original = _csr_proba(model, indptr, indices, values)
    renamed = _csr_proba(permuted, indptr, perm[indices], values)
    # the renamed rows gather the same weights in the same order
    assert renamed.tobytes() == original.tobytes()


def test_l2_keeps_weights_bounded():
    inst = _inst("Is it on?", "Yeah definitely on.", Label.YES)
    plan = build_gold_plan([inst] * 5, epochs=100, seed=0)
    model = train(plan, TrainConfig(l2=1e-3))
    norm = float(np.linalg.norm(model.weights))
    assert np.isfinite(norm)
    # multiplicative decay bounds any weight by lr/(lr*l2) = 1/l2
    assert norm < 1.0 / 1e-3


_PROBE_CONFIG = TrainConfig(num_buckets=2**6, ngram_orders=(1,), fields_used=("answer",))


def test_gradient_check_passes():
    assert max_relative_error(*train_step_gradients(_PROBE_CONFIG, probe_size=5, seed=3)) < 1e-4


def test_gradient_check_detects_sign_flip():
    applied, numeric = train_step_gradients(_PROBE_CONFIG, probe_size=5, seed=3)
    assert max_relative_error(-applied, numeric) > 1e-1


def test_model_serialization_round_trip(tmp_path):
    instances = _toy_separable(6)
    model = train(build_gold_plan(instances, 2, 0), TrainConfig(num_buckets=2**12))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.bias, model.bias)
    assert loaded.feature_config == model.feature_config
    # byte-identical re-save
    path2 = tmp_path / "model2.json"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    # a model file whose config still carries the old "seed" entry loads as before
    payload = json.loads(path.read_text())
    payload["config"]["seed"] = 5
    path.write_text(json.dumps(payload))
    assert load_model(path).feature_config == model.feature_config


def test_non_finite_weights_are_refused_by_train_and_load_model(tmp_path):
    plan = build_gold_plan(_toy_separable(3), 5, 0)
    with pytest.raises(InvalidConfigError, match="learning_rate \\* l2 must be < 1, got 1.5"):
        TrainConfig(learning_rate=1.0, l2=1.5)  # the decay 1 - lr * l2 would flip every weight's sign
    for lr, l2 in ((1e300, 5e-301), (1.7e308, 0.0)):  # lr * l2 < 1, yet the steps overflow
        with pytest.raises(InvalidConfigError, match="not finite"):
            train(plan, TrainConfig(learning_rate=lr, l2=l2, num_buckets=2**10))
    model = train(plan, TrainConfig(num_buckets=2**10))
    path = tmp_path / "model.json"
    save_model(replace(model, bias=np.array([np.nan, 0.0, 0.0])), path)
    with pytest.raises(InvalidConfigError, match="model.json: damaged .* not finite"):
        load_model(path)
    model.weights[1, 3] = np.inf
    save_model(model, path)
    with pytest.raises(InvalidConfigError, match="model.json: damaged .* not finite"):
        load_model(path)


def test_load_model_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(InvalidConfigError):
        load_model(path)


def test_model_file_stores_only_set_columns(tmp_path):
    config = TrainConfig(num_buckets=2**10)
    weights = np.zeros((3, config.num_buckets))
    weights[:, 7] = [0.5, -1.25, 3.0]
    weights[1, 900] = -0.0  # a set sign bit is kept
    model = LinearModel(weights, np.array([0.1, 0.2, -0.3]), config)
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    assert payload["version"] == 2 and "num_buckets" not in payload
    assert np.frombuffer(base64.b64decode(payload["columns_b64"]), "<i8").tolist() == [7, 900]
    loaded = load_model(path)
    assert loaded.weights.shape == (3, config.num_buckets)
    assert np.array_equal(loaded.weights, weights)
    assert loaded.weights.tobytes() == weights.tobytes()
    assert loaded.bias.tobytes() == model.bias.tobytes()


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data[: len(data) // 2],
        lambda data: data.replace(b'"weights_b64": "', b'"weights_b64": "!!'),
        lambda data: data.replace(b'"columns_b64": "', b'"columns_b64": "AAAAAAAAAAAA'),
        lambda data: data.replace(b'"bias_b64"', b'"bias"'),
        lambda data: b"\xff\xfe" + data,
        lambda data: data.replace(b'"num_buckets": 1024', b'"num_buckets": 4611686018427387904'),
        lambda data: data.replace(b'["yes", "no", "middle"]', b'["yes", "yes", "middle"]'),
        lambda data: data.replace(b'["yes", "no", "middle"]', b'["no", "yes", "middle"]'),
    ],
    ids=["truncated", "bad_base64", "columns_mismatch", "missing_key", "not_utf8", "huge_num_buckets",
         "duplicate_labels", "permuted_labels"],
)
def test_load_model_damaged_file_names_path(tmp_path, damage):
    model = train(build_gold_plan(_toy_separable(3), 1, 0), TrainConfig(num_buckets=2**10))
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(InvalidConfigError, match="model.json"):
        load_model(path)


def test_shared_memo_gives_same_features(monkeypatch):
    _fresh_caches(monkeypatch)
    config = TrainConfig(num_buckets=2**12)
    instances = _toy_separable(4)
    for inst in instances + instances:
        assert featurize(inst, config) == naive_featurize(inst, config)
    entries = _memo_entries()
    assert entries and all(bucket == fnv1a_64(key) % 2**12 for key, bucket in entries)


# -- invariants of training on an exported blended plan --


def _blended_plan():
    """A small blended plan whose distant pool repeats texts under new ids,
    as a distilled pool does."""
    config = SynthConfig(seed=5, n_gold=40, n_test=120)
    gold = make_gold_instances(config)
    distant = [
        replace(inst, source="distant")
        for inst in make_test_instances(config)
        if inst.label in (Label.YES, Label.NO)
    ]
    distant += [
        replace(inst, context=("another context",), origin_ids=tuple(i + "-dup" for i in inst.origin_ids))
        for inst in distant[:15]
    ]
    return build_blended_plan(gold, distant, alpha=0.5, m=3, n=1, seed=2)


_PLAN_CONFIG = TrainConfig(num_buckets=2**12, fields_used=("question", "answer"))


def _weights_digest(model):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(model.bias, dtype="<f8").tobytes())
    return h.hexdigest()


def test_training_on_loaded_plan_pinned_digest(tmp_path):
    export_plan(_blended_plan(), tmp_path / "plan")
    model = train(load_plan(tmp_path / "plan"), _PLAN_CONFIG)
    assert _weights_digest(model) == "a059ff2304395f9d486c160a39168193a68b15b75900014491829ac2f07f6371"


def test_training_with_frequent_decay_folds_pinned_digest(tmp_path):
    """learning_rate 0.5 with l2 1.0 halves the lazy decay scale on every
    row, so it folds back into the weights about every 40 rows."""
    export_plan(_blended_plan(), tmp_path / "plan")
    model = train(load_plan(tmp_path / "plan"), TrainConfig(learning_rate=0.5, l2=1.0, num_buckets=2**12))
    assert _weights_digest(model) == "419292bf978596712981139850bc55581dd2ff1e3c57a13cf64d46879fd39a59"


def test_loaded_and_in_memory_plans_train_identically(tmp_path):
    plan = _blended_plan()
    export_plan(plan, tmp_path / "plan")
    in_memory = train(plan, _PLAN_CONFIG)
    from_disk = train(load_plan(tmp_path / "plan"), _PLAN_CONFIG)
    assert np.array_equal(in_memory.weights, from_disk.weights)
    assert np.array_equal(in_memory.bias, from_disk.bias)


def test_predictions_on_loaded_plan_pinned_digest(tmp_path):
    plan = _blended_plan()
    export_plan(plan, tmp_path / "plan")
    model = train(load_plan(tmp_path / "plan"), _PLAN_CONFIG)
    h = hashlib.sha256()
    for inst in plan.epochs[0].instances:
        label, probs = predict(model, inst)
        h.update(repr((label.value, sorted((k.value, v) for k, v in probs.items()))).encode())
    assert h.hexdigest() == "294eb86f9eb9e868ab0af0f64ec61a23783d06ea3496f3454627c900139419a4"


def test_train_featurizes_each_distinct_text_once(tmp_path, monkeypatch):
    export_plan(_blended_plan(), tmp_path / "plan")
    plan = load_plan(tmp_path / "plan")
    calls = []
    real = model_module.featurize_many

    def counting(instances, config):
        calls.extend((inst.question, inst.answer) for inst in instances)
        return real(instances, config)

    monkeypatch.setattr(model_module, "featurize_many", counting)
    train(plan, _PLAN_CONFIG)
    rows = [inst for epoch in plan.epochs for inst in epoch.instances]
    keys = {(inst.question, inst.answer) for inst in rows}
    assert len(calls) == len(set(calls)) == len(keys)
    assert len(keys) < len(set(rows)) < len(rows)


def test_predict_hashes_each_distinct_ngram_once(monkeypatch):
    instances = _toy_separable(4)
    model = train(build_gold_plan(instances, 1, 0), TrainConfig(num_buckets=2**12))
    _fresh_caches(monkeypatch)
    calls = []
    real = model_module.fnv1a_64
    monkeypatch.setattr(model_module, "fnv1a_64", lambda key: calls.append(key) or real(key))
    for inst in instances + instances:
        predict(model, inst)
    # one hash per distinct (field, order, n-gram), each of its own key
    entries = _memo_entries()
    assert calls and len(calls) == len(set(calls)) == len(entries)
    assert sorted(calls) == sorted(key for key, _ in entries)


def test_unigram_and_bigram_with_one_key_string_hash_once_each(monkeypatch):
    """The unigram "a_b" and the bigram ("a", "b") share a key string and
    so a bucket; each is hashed once, in its own table."""
    config = TrainConfig(fields_used=("answer",), num_buckets=2**12)
    calls = []
    real = model_module.fnv1a_64
    monkeypatch.setattr(model_module, "fnv1a_64", lambda key: calls.append(key) or real(key))
    _fresh_caches(monkeypatch)
    inst = _inst("Is it?", "a_b a b", Label.YES)
    for _ in range(3):
        assert list(featurize(inst, config).items()) == list(naive_featurize(inst, config).items())
    assert sorted(calls) == ["a:a", "a:a_b", "a:a_b", "a:a_b_a", "a:b"]
    tables = model_module._NGRAM_TABLES
    assert tables["answer", 1, 2**12]["a_b"] == tables["answer", 2, 2**12]["a", "b"]
