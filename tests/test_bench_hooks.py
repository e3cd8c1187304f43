"""The benchmark's hooks into ynkit still resolve.

bench/tracing.py wraps each function in its TRACED table by module and
attribute name, and bench/measure.py times `model.featurize(inst, config)`
without a memo. A rename or signature change in ynkit would otherwise show
only when a traced benchmark run fails.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from ynkit import cli, model, read_instances  # noqa: F401  (the names bench/measure.py imports)
from ynkit.blend import build_gold_plan
from ynkit.synth import SynthConfig, make_gold_instances

from oracles import naive_featurize

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolve(module_name, attr):
    owner = importlib.import_module(f"ynkit.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_function_resolves_and_is_wrapped():
    tracing = _tracing()
    originals = {(m, a): _resolve(m, a) for m, a, *_ in tracing.TRACED}
    assert all(callable(f) for f in originals.values())
    with tracing.install(tracing.Tracer()):
        assert [key for key, f in originals.items() if _resolve(*key) is f] == []
    assert all(_resolve(*key) is f for key, f in originals.items())


def test_featurize_as_the_benchmark_times_it(tmp_path):
    """bench/measure.py::_featurize_us: a loaded model's config, no memo."""
    instances = make_gold_instances(SynthConfig(seed=3, n_gold=20))
    trained = model.train(build_gold_plan(instances, 1, 0), model.TrainConfig(num_buckets=2**10))
    model.save_model(trained, tmp_path / "model.json")
    config = model.load_model(tmp_path / "model.json").feature_config
    for inst in instances:
        assert model.featurize(inst, config) == naive_featurize(inst, config)
