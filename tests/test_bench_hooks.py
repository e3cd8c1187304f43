"""The benchmark's hooks into ynkit still resolve.

bench/tracing.py wraps each function in its TRACED table by module and
attribute name, bench/measure.py times `model.featurize(inst, config)`,
and bench/workloads.py builds prompts and scores reports
itself. A rename or signature change in ynkit would otherwise show only
when a benchmark run fails.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ynkit import model
from ynkit.blend import build_gold_plan
from ynkit.evaluation import score
from ynkit.llm_probe import PromptTemplate, build_prompt
from ynkit.synth import SynthConfig, make_gold_instances, make_test_instances

from oracles import naive_featurize

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


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


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "bench").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_every_ynkit_name_the_benchmark_imports_resolves(path):
    missing = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ynkit":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ynkit":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(owner, alias.name):
                    try:  # a submodule, as in `from ynkit import cli`
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        missing.append(f"{node.module}.{alias.name}")
    assert missing == []


def test_prompt_and_score_as_the_benchmark_calls_them():
    """bench/workloads.py: PromptTemplate(shot_examples=...), then
    build_prompt(inst, template, shots) and score(gold, predicted)."""
    shots = make_gold_instances(SynthConfig(seed=3, n_gold=4))
    template = PromptTemplate(shot_examples=tuple((s.question, s.answer, s.label) for s in shots))
    test = make_test_instances(SynthConfig(seed=3, n_test=6))
    for inst in test:
        prompt = build_prompt(inst, template, len(shots))
        assert prompt.count("### Input:") == len(shots) + 1
        assert prompt.endswith(f'Answer: "{inst.answer}"\n\n'
                               "Does the answer mean Yes, No or Middle?\n\n### Response:")
    gold = [inst.label for inst in test]
    report = score(gold, gold)
    assert report.n == len(gold) and report.accuracy == 1.0


def test_featurize_as_the_benchmark_times_it(tmp_path):
    """bench/measure.py::_featurize_us: an instance and a loaded model's config."""
    instances = make_gold_instances(SynthConfig(seed=3, n_gold=20))
    trained = model.train(build_gold_plan(instances, 1, 0), model.TrainConfig(num_buckets=2**10))
    model.save_model(trained, tmp_path / "model.json")
    config = model.load_model(tmp_path / "model.json").feature_config
    for inst in instances:
        assert model.featurize(inst, config) == naive_featurize(inst, config)
