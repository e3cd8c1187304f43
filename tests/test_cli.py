import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import shlex
import shutil
import string
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ynkit import cli
from ynkit.cli import main
from ynkit.corpus import load_corpus
from ynkit.errors import InvalidConfigError
from ynkit.synth import SynthConfig, make_distant_corpus

from util import random_corpus

ROOT = Path(__file__).parent.parent


def _hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_pipeline(corpus_path: Path, workdir: Path, seed: int = 7) -> dict:
    """identify -> distill -> plan -> train -> predict -> evaluate."""
    workdir.mkdir(parents=True, exist_ok=True)
    matches = workdir / "matches.jsonl"
    distant = workdir / "distant.jsonl"
    plandir = workdir / "plan"
    model = workdir / "model.json"
    preds = workdir / "preds.jsonl"
    report = workdir / "report.json"
    steps = [
        ["identify", "--corpus", str(corpus_path), "--mode", "strict",
         "--sample", "5", "--seed", str(seed), "--out", str(matches)],
        ["distill", "--corpus", str(corpus_path), "--matches", str(matches),
         "--balance", "--seed", str(seed), "--out", str(distant)],
        ["plan", "--gold", str(distant), "--strategy", "merged", "--epochs", "2",
         "--seed", str(seed), "--out", str(plandir)],
        ["train", "--plan", str(plandir), "--out", str(model),
         "--buckets", str(2**14), "--seed", str(seed)],
        ["predict", "--model", str(model), "--in", str(distant), "--out", str(preds)],
        ["evaluate", "--gold", str(distant), "--pred", str(preds), "--out", str(report)],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return {
        "matches": matches,
        "distant": distant,
        "plandir": plandir,
        "model": model,
        "preds": preds,
        "report": report,
    }


_COMMANDS = ("identify", "distill", "plan", "train", "predict", "evaluate", "probe")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert all(f"\n    {name}  " in out for name in _COMMANDS)


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, usage, message",
    [
        ([], "ynkit", "the following arguments are required: command"),
        (["frobnicate", "--out", "x"], "ynkit", "argument command: invalid choice: 'frobnicate'"),
        (["--seed", "3", "train"], "ynkit", "argument command: invalid choice: '3'"),
        (["train", "--out", "m.json"], "ynkit train", "the following arguments are required: --plan"),
        (["predict", "--model", "m", "--in", "i", "--out", "o", "--plan", "p"], "ynkit",
         "unrecognized arguments: --plan p"),
    ],
)
def test_usage_errors_exit_2_with_usage(argv, usage, message, capsys):
    """The parser gets only the named subcommand's arguments; usage errors
    read as when every subcommand's are there."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    if usage == "ynkit":
        assert err.startswith("usage: ynkit [-h] {" + ",".join(_COMMANDS) + "} ...\n")
    else:
        assert err.startswith(f"usage: {usage} [-h] ")
    assert f": error: {message}" in err


def test_missing_input_is_domain_error(tmp_path, capsys):
    rc = main(
        ["identify", "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "m.jsonl")]
    )
    assert rc == 1
    assert "absent.jsonl" in capsys.readouterr().err


def test_directory_as_input_is_domain_error(tmp_path, capsys):
    rc = main(["identify", "--corpus", str(tmp_path), "--out", str(tmp_path / "m.jsonl")])
    _assert_one_line_error(rc, capsys.readouterr().err, f"error: {tmp_path}: ")


def test_full_pipeline_smoke(fixture_corpus_path, tmp_path, capsys):
    outputs = _run_pipeline(fixture_corpus_path, tmp_path)
    report = json.loads(outputs["report"].read_text())
    assert report["n"] > 0
    assert 0.0 <= report["macro_f1"] <= 1.0
    assert (tmp_path / "plan" / "plan.json").exists()


def test_pipeline_outputs_deterministic(fixture_corpus_path, tmp_path):
    run_a = _run_pipeline(fixture_corpus_path, tmp_path / "a")
    run_b = _run_pipeline(fixture_corpus_path, tmp_path / "b")
    for key in ("matches", "distant", "model", "preds", "report"):
        assert _hash(run_a[key]) == _hash(run_b[key]), key
    for epoch in sorted(p.name for p in run_a["plandir"].iterdir()):
        assert _hash(run_a["plandir"] / epoch) == _hash(run_b["plandir"] / epoch)


def test_pipeline_does_not_mutate_inputs(fixture_corpus_path, tmp_path):
    before = _hash(fixture_corpus_path)
    _run_pipeline(fixture_corpus_path, tmp_path)
    assert _hash(fixture_corpus_path) == before


def test_config_file_sets_defaults_flags_win(fixture_corpus_path, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("sample = 3\nseed = 99\n", encoding="utf-8")
    out = tmp_path / "m.jsonl"
    rc = main(
        ["identify", "--corpus", str(fixture_corpus_path), "--config", str(config),
         "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "'sample': 3" in err  # from config file
    assert "'seed': 1" in err  # explicit flag beats config


def test_config_file_unknown_key_is_error(fixture_corpus_path, tmp_path, capsys):
    config = tmp_path / "run.conf"
    # help is the name of argparse's help action, not a flag with a value,
    # and a config file cannot name another config file
    for line, key in (("alhpa = 0.9", "alhpa"), ("help = whatever", "help"), ("config = other.conf", "config")):
        config.write_text(f"seed = 3\n{line}\n", encoding="utf-8")
        rc = main(["identify", "--corpus", str(fixture_corpus_path), "--config", str(config),
                   "--out", str(tmp_path / "m.jsonl")])
        _assert_one_line_error(rc, capsys.readouterr().err, f"{config}: unknown key '{key}'")
        assert not (tmp_path / "m.jsonl").exists()


def test_config_file_keys_of_other_subcommands_are_valid(fixture_corpus_path, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("seed = 3\nalpha = 0.9\nlr = 0.5\ncontext-window = 2\n", encoding="utf-8")
    rc = main(["identify", "--corpus", str(fixture_corpus_path), "--config", str(config),
               "--out", str(tmp_path / "m.jsonl")])
    assert rc == 0


@pytest.mark.parametrize(
    "command, line, needle",
    [
        ("plan", "strategy = blend", "strategy: invalid choice: 'blend' (choose from merged, blended)"),
        ("train", "lr = true", "lr: invalid float value: 'true'"),
        ("evaluate", "unmapped = drop", "unmapped: invalid choice: 'drop' (choose from exclude, wrong)"),
        ("plan", "epochs = 2.0", "epochs: invalid int value: '2.0'"),
        ("identify", "sample = 2.5", "sample: invalid int value: '2.5'"),
        ("distill", "balance = 1", "balance: invalid value: '1' (choose from true, false)"),
    ],
)
def test_config_file_value_gets_the_flags_own_checks(command, line, needle, step_inputs, tmp_path, capsys):
    out, config = tmp_path / "out", tmp_path / "run.conf"
    config.write_text(line + "\n", encoding="utf-8")
    rc = main([command, *step_inputs[command], "--config", str(config), "--out", str(out)])
    _assert_one_line_error(rc, capsys.readouterr().err, f"error: {config}: {needle}")
    assert not out.exists()


@pytest.mark.parametrize("value, balanced", [("false", False), ("TRUE", True)])
def test_config_file_sets_an_on_off_flag(value, balanced, step_inputs, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(f"balance = {value}\n", encoding="utf-8")
    assert main(["distill", *step_inputs["distill"], "--config", str(config), "--out", str(tmp_path / "d")]) == 0
    assert json.loads(capsys.readouterr().out)["balanced"] is balanced


def test_config_file_missing(tmp_path, capsys):
    rc = main(
        ["identify", "--corpus", "x.jsonl", "--config", str(tmp_path / "nope.conf"),
         "--out", "m.jsonl"]
    )
    assert rc == 1
    assert "config file not found" in capsys.readouterr().err


def test_config_that_is_a_directory_is_one_error_line(tmp_path, capsys):
    rc = main(["identify", "--corpus", "x.jsonl", "--config", str(tmp_path), "--out", "m.jsonl"])
    _assert_one_line_error(rc, capsys.readouterr().err, f"error: {tmp_path}: Is a directory")


def test_evaluate_with_two_systems(fixture_corpus_path, tmp_path):
    outputs = _run_pipeline(fixture_corpus_path, tmp_path)
    report2 = tmp_path / "report2.json"
    rc = main(
        ["evaluate", "--gold", str(outputs["distant"]), "--pred", str(outputs["preds"]),
         "--pred2", str(outputs["preds"]), "--mcnemar", "exact", "--out", str(report2)]
    )
    assert rc == 0
    report = json.loads(report2.read_text())
    assert report["mcnemar"]["p_value"] == 1.0
    assert report["mcnemar"]["method"] == "exact_binomial"


def test_evaluate_refuses_predictions_out_of_gold_order(trained_pipeline, tmp_path, capsys):
    lines = trained_pipeline["preds"].read_text().splitlines(keepends=True)
    reversed_preds = tmp_path / "preds.jsonl"
    reversed_preds.write_text("".join(reversed(lines)))
    report = tmp_path / "report.json"
    for pred, pred2 in ((reversed_preds, trained_pipeline["preds"]), (trained_pipeline["preds"], reversed_preds)):
        rc = main(["evaluate", "--gold", str(trained_pipeline["distant"]), "--pred", str(pred),
                   "--pred2", str(pred2), "--out", str(report)])
        _assert_one_line_error(rc, capsys.readouterr().err, f"error: {reversed_preds}: line 1: origin ")
    assert not report.exists()


@pytest.mark.parametrize("flag", ["--pred", "--pred2"])
@pytest.mark.parametrize("length", ["truncated", "extended"])
def test_evaluate_names_a_predictions_file_of_the_wrong_length(trained_pipeline, tmp_path, capsys, flag, length):
    gold = trained_pipeline["distant"]
    lines = trained_pipeline["preds"].read_text().splitlines(keepends=True)
    n = len(lines)
    damaged = tmp_path / "preds.jsonl"
    damaged.write_text("".join(lines[:3] if length == "truncated" else lines + lines[:1]))
    inputs = {"--pred": str(trained_pipeline["preds"]), "--pred2": str(trained_pipeline["preds"]),
              flag: str(damaged)}
    rc = main(["evaluate", "--gold", str(gold), "--pred", inputs["--pred"], "--pred2", inputs["--pred2"],
               "--out", str(tmp_path / "report.json")])
    needle = (
        f"error: {damaged}: 3 predictions for the {n} instances of {gold}"
        if length == "truncated"
        else f"error: {damaged}: line {n + 1}: more predictions than the {n} instances of {gold}"
    )
    _assert_one_line_error(rc, capsys.readouterr().err, needle)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("damaged", [["--pred"], ["--pred2"], ["--pred2", "--pred"]])
def test_evaluate_names_the_line_of_an_unmapped_prediction_for_mcnemar(trained_pipeline, tmp_path, capsys, damaged):
    """Each damaged file has a null label on line 2, 3, ... in the listed
    order; the error names --pred's when both are damaged."""
    lines = trained_pipeline["preds"].read_text().splitlines(keepends=True)
    inputs = {"--pred": str(trained_pipeline["preds"]), "--pred2": str(trained_pipeline["preds"])}
    where = {}
    for n, flag in enumerate(damaged, start=2):
        unmapped = lines[:]
        unmapped[n - 1] = json.dumps({**json.loads(lines[n - 1]), "label": None}) + "\n"
        path = tmp_path / f"unmapped{flag}.jsonl"
        path.write_text("".join(unmapped))
        inputs[flag] = str(path)
        where[flag] = f"{path}: line {n}"
    rc = main(["evaluate", "--gold", str(trained_pipeline["distant"]), "--pred", inputs["--pred"],
               "--pred2", inputs["--pred2"], "--out", str(tmp_path / "report.json")])
    named = where.get("--pred", where.get("--pred2"))
    _assert_one_line_error(
        rc, capsys.readouterr().err, f"error: {named}: mcnemar comparison requires fully mapped predictions"
    )
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("field", ["question", "answer"])
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_missing_instance_field_is_named_as_a_missing_key(trained_pipeline, tmp_path, capsys, field, command):
    first, second, *rest = trained_pipeline["distant"].read_text().splitlines(keepends=True)
    record = json.loads(second)
    del record[field]
    damaged = tmp_path / "instances.jsonl"
    damaged.write_text(first + json.dumps(record) + "\n" + "".join(rest))
    out = tmp_path / "out.jsonl"
    argv = {
        "predict": ["predict", "--model", str(trained_pipeline["model"]), "--in", str(damaged)],
        "evaluate": ["evaluate", "--gold", str(damaged), "--pred", str(trained_pipeline["preds"])],
    }[command]
    rc = main([*argv, "--out", str(out)])
    _assert_one_line_error(rc, capsys.readouterr().err, f"error: {damaged}: line 2: missing key '{field}'")
    assert not out.exists()


def test_probe_replay_subcommand(data_dir, tmp_path, capsys):
    out = tmp_path / "probe_preds.jsonl"
    rc = main(
        ["probe", "--in", str(data_dir / "probe_demo.jsonl"), "--client", "replay",
         "--store", str(data_dir / "replay_store.json"), "--out", str(out)]
    )
    assert rc == 0
    labels = [json.loads(line)["label"] for line in out.read_text().splitlines()]
    assert labels == ["yes", "no", "middle"]
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["unmapped"] == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"probed": 3, "unmapped": 0}


def test_probe_replay_at_concurrency_zero_and_one_is_byte_identical(data_dir, tmp_path):
    outputs = []
    for concurrency in ("0", "1"):
        out = tmp_path / f"probe_{concurrency}.jsonl"
        rc = main(["probe", "--in", str(data_dir / "probe_demo.jsonl"), "--client", "replay",
                   "--store", str(data_dir / "replay_store.json"), "--concurrency", concurrency,
                   "--out", str(out)])
        assert rc == 0
        outputs.append((out.read_bytes(), out.with_suffix(".manifest.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_probe_with_shots_replay(data_dir, tmp_path):
    from ynkit.corpus import Label
    from ynkit.distant import QAInstance, read_instances, write_instances
    from ynkit.llm_probe import PromptTemplate, build_prompt, recording_key

    shots_path = tmp_path / "shots.jsonl"
    shots = [
        QAInstance(context=(), question="Was it sold out?", answer="Every seat was gone.",
                   label=Label.YES, source="gold", origin_ids=("s0", "s0q", "s0a")),
        QAInstance(context=(), question="Did the rain stop?", answer="We are still soaked.",
                   label=Label.NO, source="gold", origin_ids=("s1", "s1q", "s1a")),
    ]
    write_instances(shots, shots_path)

    template = PromptTemplate(
        shot_examples=tuple((s.question, s.answer, s.label) for s in shots)
    )
    instances = read_instances(data_dir / "probe_demo.jsonl")
    store = tmp_path / "store.json"
    store.write_text(json.dumps({recording_key(build_prompt(inst, template, 2)): "Middle" for inst in instances}))

    out = tmp_path / "preds.jsonl"
    rc = main(
        ["probe", "--in", str(data_dir / "probe_demo.jsonl"), "--shots", "2",
         "--shot-examples", str(shots_path), "--client", "replay",
         "--store", str(store), "--out", str(out)]
    )
    assert rc == 0
    labels = [json.loads(line)["label"] for line in out.read_text().splitlines()]
    assert labels == ["middle", "middle", "middle"]


def test_probe_shots_require_examples(data_dir, tmp_path, capsys):
    rc = main(
        ["probe", "--in", str(data_dir / "probe_demo.jsonl"), "--shots", "2",
         "--client", "replay", "--store", str(data_dir / "replay_store.json"),
         "--out", str(tmp_path / "p.jsonl")]
    )
    assert rc == 1
    assert "--shot-examples" in capsys.readouterr().err


def test_probe_negative_shots_without_examples_names_the_count(data_dir, tmp_path, capsys):
    rc = main(
        ["probe", "--in", str(data_dir / "probe_demo.jsonl"), "--shots", "-1",
         "--client", "replay", "--store", str(data_dir / "replay_store.json"),
         "--out", str(tmp_path / "p.jsonl")]
    )
    _assert_one_line_error(rc, capsys.readouterr().err, "error: shots must be >= 0, got -1")
    assert not (tmp_path / "p.jsonl").exists()


def test_probe_replay_miss_is_domain_error(data_dir, tmp_path, capsys):
    bad_store = tmp_path / "store.json"
    bad_store.write_text("{}")
    rc = main(
        ["probe", "--in", str(data_dir / "probe_demo.jsonl"), "--client", "replay",
         "--store", str(bad_store), "--out", str(tmp_path / "p.jsonl")]
    )
    assert rc == 1
    assert "no recording" in capsys.readouterr().err


def test_probe_replay_requires_a_store(data_dir, tmp_path, capsys):
    rc = main(["probe", "--in", str(data_dir / "probe_demo.jsonl"), "--client", "replay",
               "--out", str(tmp_path / "p.jsonl")])
    _assert_one_line_error(rc, capsys.readouterr().err, "error: --client replay requires --store")


@pytest.mark.parametrize("store", ["{not json", "[]", '{"digest": 3}'])
def test_probe_replay_store_must_be_an_object_of_strings(data_dir, tmp_path, capsys, store):
    path = tmp_path / "store.json"
    path.write_text(store)
    rc = main(
        ["probe", "--in", str(data_dir / "probe_demo.jsonl"), "--client", "replay",
         "--store", str(path), "--out", str(tmp_path / "p.jsonl")]
    )
    _assert_one_line_error(rc, capsys.readouterr().err, f"error: {path}: not a replay store")


def test_probe_names_the_line_of_an_unlabeled_shot(data_dir, tmp_path, capsys):
    shots = tmp_path / "shots.jsonl"
    shots.write_text(
        '{"question": "Was it sold out?", "answer": "Every seat.", "label": "yes"}\n\n'
        '{"question": "Did the rain stop?", "answer": "We are soaked."}\n'
    )
    rc = main(
        ["probe", "--in", str(data_dir / "probe_demo.jsonl"), "--shots", "1",
         "--shot-examples", str(shots), "--client", "replay",
         "--store", str(data_dir / "replay_store.json"), "--out", str(tmp_path / "p.jsonl")]
    )
    _assert_one_line_error(
        rc, capsys.readouterr().err, f"error: {shots}: line 3: shot examples must be labeled"
    )


def test_evaluate_names_the_line_of_an_unlabeled_gold_instance(trained_pipeline, tmp_path, capsys):
    first, second, *rest = trained_pipeline["distant"].read_text().splitlines(keepends=True)
    unlabeled = {**json.loads(second), "label": None, "source": "gold"}
    gold = tmp_path / "gold.jsonl"
    gold.write_text(first + "\n" + json.dumps(unlabeled) + "\n" + "".join(rest))
    rc = main(["evaluate", "--gold", str(gold), "--pred", str(trained_pipeline["preds"]),
               "--out", str(tmp_path / "report.json")])
    _assert_one_line_error(
        rc, capsys.readouterr().err, f"error: {gold}: line 3: every gold instance needs a label"
    )


@pytest.mark.parametrize("strategy", ["merged", "blended"])
@pytest.mark.parametrize("role", ["gold", "distant"])
def test_plan_names_the_line_of_an_unlabeled_instance(trained_pipeline, tmp_path, capsys, strategy, role):
    first, second, *rest = trained_pipeline["distant"].read_text().splitlines(keepends=True)
    unlabeled = {**json.loads(second), "label": None, "source": "gold"}
    damaged = tmp_path / "damaged.jsonl"
    damaged.write_text(first + "\n" + json.dumps(unlabeled) + "\n" + "".join(rest))
    inputs = {"gold": str(trained_pipeline["distant"]), "distant": str(trained_pipeline["distant"]),
              role: str(damaged)}
    rc = main(["plan", "--gold", inputs["gold"], "--distant", inputs["distant"],
               "--strategy", strategy, "--out", str(tmp_path / "plan")])
    _assert_one_line_error(
        rc, capsys.readouterr().err, f"error: {damaged}: line 3: every {role} instance needs a label"
    )
    assert not (tmp_path / "plan").exists()


def test_train_names_the_line_of_an_unlabeled_plan_row(trained_pipeline, tmp_path, capsys):
    plandir = tmp_path / "plan"
    shutil.copytree(trained_pipeline["plandir"], plandir)
    epoch = plandir / "epoch_001.jsonl"
    first, second, *rest = epoch.read_text().splitlines(keepends=True)
    unlabeled = {**json.loads(second), "label": None, "source": "gold"}
    epoch.write_text(first + json.dumps(unlabeled) + "\n" + "".join(rest))
    rc = main(["train", "--plan", str(plandir), "--out", str(tmp_path / "m.json")])
    _assert_one_line_error(rc, capsys.readouterr().err, f"error: {epoch}: line 2: every plan row needs a label")
    assert not (tmp_path / "m.json").exists()


# Circa's and SWDA-IA's spellings of each label of the three-way scheme
_SPELLINGS = {
    "circa": {
        "yes": ["Yes", "Probably yes / sometimes yes", "Yes, subject to some conditions"],
        "no": ["No", "Probably no"],
        "middle": ["In the middle, neither yes nor no"],
    },
    "swda_ia": {"yes": ["Yes", "Probably yes"], "no": ["No", "Probably no"], "middle": ["Middle"]},
}


def _respell(path: Path, out: Path, spellings: dict[str, list[str]]) -> Path:
    """A copy of the labeled lines at path, each label written in the next
    of its spellings in turn."""
    turns = {label: itertools.cycle(options) for label, options in spellings.items()}
    records = [json.loads(line) for line in path.read_text().splitlines()]
    out.write_text("".join(json.dumps({**r, "label": next(turns[r["label"]])}) + "\n" for r in records))
    return out


@pytest.mark.parametrize("corpus", sorted(_SPELLINGS))
def test_circa_and_swda_ia_spellings_give_the_folded_outputs(trained_pipeline, tmp_path, corpus):
    """plan and evaluate on a respelled copy of the walkthrough gold and
    predictions write the files they write on the folded labels."""
    folded = (trained_pipeline["distant"], trained_pipeline["preds"])
    (tmp_path / "in").mkdir()
    spelled = tuple(_respell(path, tmp_path / "in" / path.name, _SPELLINGS[corpus]) for path in folded)
    used = {json.loads(line)["label"] for line in spelled[0].read_text().splitlines()}
    assert used == {*_SPELLINGS[corpus]["yes"], *_SPELLINGS[corpus]["no"]}
    written = {}
    for name, (gold, preds) in (("folded", folded), ("spelled", spelled)):
        out = tmp_path / name
        assert main(["plan", "--gold", str(gold), "--distant", str(gold), "--strategy", "blended",
                     "--alpha", "0.5", "--m", "2", "--n", "1", "--seed", "7", "--out", str(out / "plan")]) == 0
        assert main(["evaluate", "--gold", str(gold), "--pred", str(preds), "--out", str(out / "report.json")]) == 0
        written[name] = {path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()}
    assert Path("report.json") in written["folded"] and Path("plan/plan.json") in written["folded"]
    assert written["spelled"] == written["folded"]


@pytest.mark.parametrize("discard", ["I am not sure how to interpret the answer", "Other", "N/A"])
@pytest.mark.parametrize("command", ["plan", "evaluate"])
def test_circa_discard_label_is_refused_naming_its_line(trained_pipeline, tmp_path, capsys, command, discard):
    first, second, *rest = trained_pipeline["distant"].read_text().splitlines(keepends=True)
    gold = tmp_path / "gold.jsonl"
    gold.write_text(first + json.dumps({**json.loads(second), "label": discard}) + "\n" + "".join(rest))
    argv = {
        "plan": ["plan", "--gold", str(gold)],
        "evaluate": ["evaluate", "--gold", str(gold), "--pred", str(trained_pipeline["preds"])],
    }[command]
    rc = main([*argv, "--out", str(tmp_path / "out")])
    _assert_one_line_error(
        rc, capsys.readouterr().err, f"error: {gold}: line 2: bad instance record (not a valid label: {discard!r})"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "policy, expected",
    [
        # the unmapped lines left out: yes and no each right once, no middle left
        ("exclude", {"n": 2, "accuracy": 1.0, "excluded_unmapped": 2, "middle": (0.0, 0.0, 0.0)}),
        # each unmapped line a miss of its gold middle, charged to no label's precision
        ("wrong", {"n": 4, "accuracy": 0.5, "middle": (0.0, 0.0, 0.0)}),
    ],
)
def test_evaluate_unmapped_policies_on_the_worked_example(tmp_path, capsys, policy, expected):
    """gold [yes, middle, no, middle], predictions [yes, null, no, null]:
    yes and no score 1.0 and macro-F1 is 2/3 under both policies."""
    gold, preds = tmp_path / "gold.jsonl", tmp_path / "preds.jsonl"
    gold.write_text("".join(
        json.dumps({"question": f"Q{i}?", "answer": "A.", "label": label}) + "\n"
        for i, label in enumerate(["yes", "middle", "no", "middle"])
    ))
    preds.write_text("".join(json.dumps({"label": label}) + "\n" for label in ["yes", None, "no", None]))
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--gold", str(gold), "--pred", str(preds), "--unmapped", policy,
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["n"] == expected["n"]
    assert report["accuracy"] == expected["accuracy"]
    assert report.get("excluded_unmapped") == expected.get("excluded_unmapped")
    assert abs(report["macro_f1"] - 2 / 3) < 1e-12
    for label in ("yes", "no"):
        assert report["per_label"][label] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    assert tuple(report["per_label"]["middle"][k] for k in ("precision", "recall", "f1")) == expected["middle"]


def test_evaluate_names_a_predictions_file_with_no_mapped_label(trained_pipeline, tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    records = [json.loads(line) for line in trained_pipeline["preds"].read_text().splitlines()]
    preds.write_text("".join(json.dumps({**r, "label": None}) + "\n" for r in records))
    argv = ["evaluate", "--gold", str(trained_pipeline["distant"]), "--pred", str(preds)]
    report_path = tmp_path / "report.json"
    rc = main([*argv, "--out", str(report_path)])
    _assert_one_line_error(
        rc, capsys.readouterr().err,
        f"error: {preds}: every prediction is unmapped, so --unmapped exclude leaves none to score",
    )
    assert not report_path.exists()
    assert main([*argv, "--unmapped", "wrong", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert (report["n"], report["accuracy"], report["macro_f1"]) == (len(records), 0.0, 0.0)


def test_distill_names_the_line_of_a_match_with_no_answer(fixture_corpus_path, tmp_path, capsys):
    matches = tmp_path / "relaxed.jsonl"
    assert main(["identify", "--corpus", str(fixture_corpus_path), "--mode", "relaxed",
                 "--out", str(matches)]) == 0
    lines = matches.read_text().splitlines()
    n = next(i for i, line in enumerate(lines, 1) if json.loads(line).get("answer_turn_id") is None)
    capsys.readouterr()
    rc = main(["distill", "--corpus", str(fixture_corpus_path), "--matches", str(matches),
               "--out", str(tmp_path / "d.jsonl")])
    _assert_one_line_error(
        rc, capsys.readouterr().err, f"error: {matches}: line {n}: match on turn 'd04-t5' has no answer turn"
    )


@pytest.mark.parametrize("mode", [5, "banana", None, "acts"])
def test_distill_refuses_a_match_mode_outside_qid_modes(fixture_corpus_path, tmp_path, capsys, mode):
    matches = tmp_path / "strict.jsonl"
    assert main(["identify", "--corpus", str(fixture_corpus_path), "--mode", "strict",
                 "--out", str(matches)]) == 0
    records = [json.loads(line) for line in matches.read_text().splitlines()]
    records[2]["mode"] = mode
    matches.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    rc = main(["distill", "--corpus", str(fixture_corpus_path), "--matches", str(matches),
               "--out", str(tmp_path / "d.jsonl")])
    _assert_one_line_error(
        rc, capsys.readouterr().err,
        f"error: {matches}: line 3: mode must be one of ('relaxed', 'strict', 'dialogue_act'), got {mode!r}",
    )
    del records[2]["mode"]  # an absent mode reads as relaxed
    matches.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["distill", "--corpus", str(fixture_corpus_path), "--matches", str(matches),
                 "--out", str(tmp_path / "d.jsonl")]) == 0


def test_plan_blended_subcommand(fixture_corpus_path, tmp_path):
    outputs = _run_pipeline(fixture_corpus_path, tmp_path)
    plandir = tmp_path / "blended"
    rc = main(
        ["plan", "--gold", str(outputs["distant"]), "--distant", str(outputs["distant"]),
         "--strategy", "blended", "--alpha", "0.5", "--m", "2", "--n", "1",
         "--seed", "3", "--out", str(plandir)]
    )
    assert rc == 0
    manifest = json.loads((plandir / "plan.json").read_text())
    assert manifest["strategy"] == "blended"
    assert len(manifest["epoch_sizes"]) == 3


def _write_scrambled_corpus(path: Path, fixture_corpus_path: Path) -> None:
    """A synth corpus plus the fixture and random dialogues, its lines
    shuffled, every third conversation ordered by reply_to, not ordinal."""
    corpus, _ = make_distant_corpus(SynthConfig(seed=3, n_distant_questions=300))
    dialogues = (corpus.dialogues + load_corpus(fixture_corpus_path).dialogues
                 + random_corpus(11, n_dialogues=90, max_turns=8).dialogues)
    lines = []
    for n, dialogue in enumerate(dialogues):
        for turn in dialogue.turns:
            record = {"id": turn.turn_id, "conversation_id": turn.dialogue_id,
                      "speaker": turn.speaker, "text": turn.text}
            if n % 3 == 2:
                record["reply_to"] = dialogue.turns[turn.ordinal - 1].turn_id if turn.ordinal else None
            else:
                record["ordinal"] = turn.ordinal
            if turn.dialogue_act is not None:
                record["meta"] = {"dialogue_act": turn.dialogue_act}
            lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    random.Random(5).shuffle(lines)
    path.write_text("".join(lines), encoding="utf-8")


def test_identify_and_distill_outputs_are_pinned(fixture_corpus_path, tmp_path):
    """identify and distill outputs on a shuffled corpus with both
    orderings, pinned byte for byte: the digests are those of the
    dict-per-line loader and the memo-free scan."""
    corpus = tmp_path / "corpus.jsonl"
    _write_scrambled_corpus(corpus, fixture_corpus_path)
    out = {name: tmp_path / name for name in
           ("relaxed.jsonl", "strict.jsonl", "audit.tsv", "distant.jsonl")}
    for argv in (
        ["identify", "--corpus", corpus, "--mode", "relaxed", "--out", out["relaxed.jsonl"]],
        ["identify", "--corpus", corpus, "--mode", "strict", "--sample", "20", "--seed", "4",
         "--out", out["strict.jsonl"], "--audit", out["audit.tsv"]],
        ["distill", "--corpus", corpus, "--matches", out["strict.jsonl"], "--balance",
         "--seed", "4", "--out", out["distant.jsonl"]],
    ):
        assert main([str(arg) for arg in argv]) == 0, argv
    assert {name: _hash(path) for name, path in out.items()} == {
        "relaxed.jsonl": "51b005a3ae5d4792b48bcc04ddb755023bf9fb2d705693cbecd05c4a0278283d",
        "strict.jsonl": "5509838726d46ae06c8f1e8b4eef85634b23a582ef0cd984c06f20b68622cd4c",
        "audit.tsv": "e84e59863225fe92363d0bcbc4627ebe81fff0809f595a1a2980e8ef9c595029",
        "distant.jsonl": "980a8f4100d80f5fd3387c904c8048483795985273ecb70a9a9882261d0ce82c",
    }


@pytest.fixture(scope="module")
def trained_pipeline(fixture_corpus_path, tmp_path_factory):
    return _run_pipeline(fixture_corpus_path, tmp_path_factory.mktemp("pipeline"))


@pytest.fixture(scope="module")
def step_inputs(trained_pipeline, fixture_corpus_path, data_dir):
    """Each subcommand's input flags, on the trained pipeline's files."""
    run = trained_pipeline
    return {
        "identify": ["--corpus", str(fixture_corpus_path)],
        "distill": ["--corpus", str(fixture_corpus_path), "--matches", str(run["matches"])],
        "plan": ["--gold", str(run["distant"]), "--distant", str(run["distant"])],
        "train": ["--plan", str(run["plandir"])],
        "evaluate": ["--gold", str(run["distant"]), "--pred", str(run["preds"])],
        "probe": ["--in", str(data_dir / "probe_demo.jsonl"), "--shot-examples", str(run["distant"]),
                  "--store", str(data_dir / "replay_store.json")],
    }


def _assert_one_line_error(rc, err, needle):
    assert rc == 1
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and needle in errors[0], err


@pytest.mark.parametrize(
    "damage, needle",
    [
        (lambda d: (d / "epoch_001.jsonl").unlink(), "epoch_001.jsonl: listed in plan.json but missing"),
        (lambda d: (d / "epoch_009.jsonl").write_text(""), "epoch_009.jsonl: not listed in plan.json"),
    ],
    ids=["missing_epoch", "stray_epoch"],
)
def test_train_rejects_plan_dir_out_of_step_with_manifest(
    trained_pipeline, tmp_path, capsys, damage, needle
):
    plandir = tmp_path / "plan"
    shutil.copytree(trained_pipeline["plandir"], plandir)
    damage(plandir)
    rc = main(["train", "--plan", str(plandir), "--out", str(tmp_path / "m.json")])
    _assert_one_line_error(rc, capsys.readouterr().err, needle)
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "flags, needle",
    [
        (["--ngrams", "a"], "--ngrams: expected comma-separated integers, got 'a'"),
        (["--ngrams", "1,,2"], "got '1,,2'"),
        (["--fields", "question,body"], "unknown field 'body'"),
    ],
)
def test_train_rejects_bad_feature_flags(trained_pipeline, tmp_path, capsys, flags, needle):
    rc = main(["train", "--plan", str(trained_pipeline["plandir"]),
               "--out", str(tmp_path / "m.json"), *flags])
    _assert_one_line_error(rc, capsys.readouterr().err, needle)


# a bad value for each numeric flag: subcommand, flags, and the message of
# the one error line it must give
_BAD_NUMBERS = [
    ("train", ["--lr", "nan"], "learning_rate must be finite and positive, got nan"),
    ("train", ["--l2", "nan"], "l2 must be finite and non-negative, got nan"),
    ("train", ["--lr", "inf"], "learning_rate must be finite and positive, got inf"),
    ("train", ["--lr", "1", "--l2", "2"], "learning_rate * l2 must be < 1, got 2.0"),
    ("train", ["--buckets", "3"], "num_buckets must be a power of two >= 2"),
    ("train", ["--buckets", str(2**62)], f"num_buckets {2**62} cannot be allocated"),
    ("plan", ["--cap", "0"], "distant_cap must be > 0, got 0"),
    ("plan", ["--cap", "-5"], "distant_cap must be > 0, got -5"),
    ("plan", ["--epochs", "0"], "epochs must be >= 1, got 0"),
    ("plan", ["--strategy", "blended", "--alpha", "nan"], "alpha must be in [0, 1], got nan"),
    ("plan", ["--strategy", "blended", "--m", "0"], "m must be >= 1, got 0"),
    ("plan", ["--strategy", "blended", "--n", "-1"], "n must be >= 0, got -1"),
    ("identify", ["--sample", "-1"], "sample_size must be >= 0, got -1"),
    ("distill", ["--context-window", "-1"], "context_window must be >= 0, got -1"),
    ("probe", ["--shots", "-1"], "shots must be >= 0, got -1"),
]

# numeric flags that take any value: flag -> why
_NUMERIC_FLAGS_WITHOUT_BAD_VALUES = {
    "--seed": "any integer seeds the random draws",
    "--concurrency": "a value of 1 or less sends one request at a time",
}


def test_every_numeric_flag_has_a_bad_value_case_or_a_reason():
    _, subparsers = cli.build_parser()
    numeric = {
        action.option_strings[-1]
        for sub in subparsers.values()
        for action in sub._actions
        if action.type in (int, float)
    }
    tested = {flags[-2] for _, flags, _ in _BAD_NUMBERS}
    assert not tested & set(_NUMERIC_FLAGS_WITHOUT_BAD_VALUES)
    assert numeric == tested | set(_NUMERIC_FLAGS_WITHOUT_BAD_VALUES)


@pytest.mark.parametrize("command, flags, needle", _BAD_NUMBERS, ids=[" ".join(c[1]) for c in _BAD_NUMBERS])
def test_bad_numeric_flag_is_one_error_line(command, flags, needle, step_inputs, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main([command, *step_inputs[command], *flags, "--out", out])
    _assert_one_line_error(rc, capsys.readouterr().err, needle)
    assert not Path(out).exists()


@pytest.mark.parametrize("key, value", [("learning_rate", float("nan")), ("l2", float("inf"))])
def test_predict_rejects_non_finite_training_config(trained_pipeline, tmp_path, capsys, key, value):
    damaged = tmp_path / "model.json"
    payload = json.loads(trained_pipeline["model"].read_text(encoding="utf-8"))
    payload["config"][key] = value  # json writes NaN and Infinity, and reads them back
    damaged.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["predict", "--model", str(damaged), "--in", str(trained_pipeline["distant"]),
               "--out", str(tmp_path / "preds.jsonl")])
    err = capsys.readouterr().err
    _assert_one_line_error(rc, err, f"error: {damaged}: damaged ")
    assert f"{key} must be finite" in err


def test_predict_rejects_truncated_model(trained_pipeline, tmp_path, capsys):
    damaged = tmp_path / "model.json"
    data = trained_pipeline["model"].read_bytes()
    damaged.write_bytes(data[: len(data) // 2])
    rc = main(["predict", "--model", str(damaged), "--in", str(trained_pipeline["distant"]),
               "--out", str(tmp_path / "preds.jsonl")])
    _assert_one_line_error(rc, capsys.readouterr().err, str(damaged))


@pytest.mark.parametrize("value", ["5", -2, 511])
def test_predict_rejects_bad_max_tokens_per_field(trained_pipeline, tmp_path, capsys, value):
    damaged = tmp_path / "model.json"
    payload = json.loads(trained_pipeline["model"].read_text(encoding="utf-8"))
    payload["config"]["max_tokens_per_field"] = value
    damaged.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["predict", "--model", str(damaged), "--in", str(trained_pipeline["distant"]),
               "--out", str(tmp_path / "preds.jsonl")])
    err = capsys.readouterr().err
    _assert_one_line_error(rc, err, f"error: {damaged}: damaged ")
    assert f"max_tokens_per_field must be 512, got {value!r}" in err


def test_model_file_with_or_without_the_token_cap_predicts_the_same(trained_pipeline, tmp_path, capsys):
    """Model files written before the cap was fixed record it as 512."""
    payload = json.loads(trained_pipeline["model"].read_text(encoding="utf-8"))
    assert "max_tokens_per_field" not in payload["config"]
    payload["config"]["max_tokens_per_field"] = 512
    recorded = tmp_path / "model.json"
    recorded.write_text(json.dumps(payload), encoding="utf-8")
    for model_file in (trained_pipeline["model"], recorded):
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--model", str(model_file), "--in", str(trained_pipeline["distant"]),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == trained_pipeline["preds"].read_bytes()


@pytest.mark.parametrize(
    "labels", [["yes", "yes", "middle"], ["no", "yes", "middle"], ["yes", "no"]], ids=["duplicate", "permuted", "two"]
)
def test_predict_rejects_other_class_labels(trained_pipeline, tmp_path, capsys, labels):
    """Weight rows follow LABEL_ORDER, so a file listing its labels in any
    other way would predict the wrong labels."""
    damaged = tmp_path / "model.json"
    payload = json.loads(trained_pipeline["model"].read_text(encoding="utf-8"))
    payload["class_labels"] = labels
    damaged.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "preds.jsonl"
    rc = main(["predict", "--model", str(damaged), "--in", str(trained_pipeline["distant"]), "--out", str(out)])
    _assert_one_line_error(rc, capsys.readouterr().err, f"error: {damaged}: damaged ynkit-linear-model file: ")
    assert not out.exists()


@pytest.mark.parametrize("value", [[1.5], [True, 2]])
def test_predict_rejects_non_integer_ngram_orders(trained_pipeline, tmp_path, capsys, value):
    damaged = tmp_path / "model.json"
    payload = json.loads(trained_pipeline["model"].read_text(encoding="utf-8"))
    payload["config"]["ngram_orders"] = value
    damaged.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["predict", "--model", str(damaged), "--in", str(trained_pipeline["distant"]),
               "--out", str(tmp_path / "preds.jsonl")])
    err = capsys.readouterr().err
    _assert_one_line_error(rc, err, f"error: {damaged}: damaged ")
    assert f"ngram_orders must be integers >= 1, got {value!r}" in err


@pytest.mark.parametrize("config", [[], 7, "fast", True], ids=["list", "number", "string", "boolean"])
def test_predict_rejects_a_model_config_that_is_not_an_object(trained_pipeline, tmp_path, capsys, config):
    damaged = tmp_path / "model.json"
    payload = json.loads(trained_pipeline["model"].read_text(encoding="utf-8"))
    payload["config"] = config
    damaged.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "preds.jsonl"
    rc = main(["predict", "--model", str(damaged), "--in", str(trained_pipeline["distant"]), "--out", str(out)])
    err = capsys.readouterr().err
    _assert_one_line_error(rc, err, f"error: {damaged}: damaged ynkit-linear-model file: ")
    assert f"config must be a JSON object, got {config!r}" in err
    assert not out.exists()


def test_ngram_order_above_the_token_cap_is_refused_before_featurizing(
    trained_pipeline, tmp_path, capsys, monkeypatch
):
    """No field keeps more than MAX_TOKENS_PER_FIELD tokens, so no higher
    order yields an n-gram. An order far above it is refused where a config
    is built, from train's flag or from model.json; featurizing fails the
    test instead of trying."""
    from ynkit import model

    def featurize(*args):
        raise AssertionError("featurization ran")

    monkeypatch.setattr(model, "_ngram_buckets", featurize)
    assert model.TrainConfig(ngram_orders=(1, model.MAX_TOKENS_PER_FIELD)).ngram_orders == (1, 512)
    for orders in ((1, 513), (1, 2**70)):
        needle = f"at most MAX_TOKENS_PER_FIELD (512), got {list(orders)}"
        with pytest.raises(InvalidConfigError, match=re.escape(needle)):
            model.TrainConfig(ngram_orders=orders)

    out = tmp_path / "m.json"
    rc = main(["train", "--plan", str(trained_pipeline["plandir"]), "--out", str(out), "--ngrams", "1,1000000000"])
    _assert_one_line_error(rc, capsys.readouterr().err,
                           "ngram_orders must be at most MAX_TOKENS_PER_FIELD (512), got [1, 1000000000]")
    assert not out.exists()

    damaged = tmp_path / "model.json"
    payload = json.loads(trained_pipeline["model"].read_text(encoding="utf-8"))
    payload["config"]["ngram_orders"] = [1, 1180591620717411303424]
    damaged.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "preds.jsonl"
    rc = main(["predict", "--model", str(damaged), "--in", str(trained_pipeline["distant"]), "--out", str(out)])
    err = capsys.readouterr().err
    _assert_one_line_error(rc, err, f"error: {damaged}: damaged ynkit-linear-model file: ")
    assert "at most MAX_TOKENS_PER_FIELD (512), got [1, 1180591620717411303424]" in err
    assert not out.exists()


def test_predict_rejects_unallocatable_num_buckets(trained_pipeline, tmp_path, capsys):
    damaged = tmp_path / "model.json"
    payload = json.loads(trained_pipeline["model"].read_text(encoding="utf-8"))
    payload["config"]["num_buckets"] = 2**62  # numpy refuses the array before allocating
    damaged.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["predict", "--model", str(damaged), "--in", str(trained_pipeline["distant"]),
               "--out", str(tmp_path / "preds.jsonl")])
    _assert_one_line_error(rc, capsys.readouterr().err,
                           f"error: {damaged}: damaged ynkit-linear-model file: ")


def _predict_with_cpus(monkeypatch, capsys, cpus, run, infile, out) -> tuple[bytes, int]:
    """The predictions file written with `cpus` available CPUs, and the
    number of processes forked for it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []
    if hasattr(os, "fork"):
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    rc = main(["predict", "--model", str(run["model"]), "--in", str(infile), "--out", str(out)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"predicted": len(infile.read_text().splitlines())}
    return out.read_bytes(), len(forks)


def test_predictions_do_not_depend_on_worker_count(trained_pipeline, tmp_path, monkeypatch, capsys):
    run = trained_pipeline
    n = len(run["distant"].read_text().splitlines())
    assert n < cli.MIN_PREDICT_SLICE * 2  # too few instances for a second slice
    out, forks = _predict_with_cpus(monkeypatch, capsys, 2, run, run["distant"], tmp_path / "p.jsonl")
    assert out == run["preds"].read_bytes() and forks == 0
    monkeypatch.setattr(cli, "MIN_PREDICT_SLICE", 1)
    for cpus in (1, 2, n + 3):  # n + 3: more CPUs than instances
        out, forks = _predict_with_cpus(monkeypatch, capsys, cpus, run, run["distant"], tmp_path / "p.jsonl")
        assert out == run["preds"].read_bytes()
        assert forks == min(cpus, n) - 1  # this process predicts the first slice
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:  # no fork while another thread runs
        out, forks = _predict_with_cpus(monkeypatch, capsys, 2, run, run["distant"], tmp_path / "p.jsonl")
    finally:
        release.set()
        other.join(timeout=10)
    assert out == run["preds"].read_bytes() and forks == 0 and not other.is_alive()
    monkeypatch.delattr(os, "fork")
    out, _ = _predict_with_cpus(monkeypatch, capsys, 2, run, run["distant"], tmp_path / "p.jsonl")
    assert out == run["preds"].read_bytes()


def test_predict_on_empty_instance_file(trained_pipeline, tmp_path, monkeypatch, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out, forks = _predict_with_cpus(monkeypatch, capsys, 2, trained_pipeline, empty, tmp_path / "p.jsonl")
    assert out == b"" and forks == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--gold", "{empty}", "--pred", "{empty}"],
        ["plan", "--gold", "{empty}"],
        ["plan", "--strategy", "blended", "--distant", "{empty}"],
    ],
    ids=["evaluate", "plan_merged", "plan_blended"],
)
def test_empty_input_is_named(tmp_path, capsys, argv):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main([arg.format(empty=empty) for arg in argv] + ["--out", str(tmp_path / "out")])
    _assert_one_line_error(rc, capsys.readouterr().err, f"error: {empty}: holds no instances")
    assert not (tmp_path / "out").exists()


def test_no_source_raises_the_bare_base_error():
    """Each raise names what must change through a YnkitError subclass."""
    bare = [
        f"{path.name}:{n}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "raise YnkitError(" in line
    ]
    assert bare == []


# Each JSONL input the CLI reads: the run output it copies, the keys every
# record needs, the type of each typed field (dotted for a nested one), and
# the argv that reads the corrupted copy at `path`.
_INSTANCE_TYPES = {"question": str, "answer": str, "context": list, "origin": dict}
_INPUT_KINDS = {
    "corpus": (
        "corpus", ("id", "conversation_id", "speaker", "text"),
        {"id": str, "conversation_id": str, "speaker": str, "text": str,
         "ordinal": int, "reply_to": str, "meta": dict, "meta.dialogue_act": str},
        lambda run, path, out: ["identify", "--corpus", path, "--out", out / "m.jsonl"],
    ),
    "matches": (
        "matches", ("question_turn_id",), {"question_turn_id": str, "answer_turn_id": str},
        lambda run, path, out: ["distill", "--corpus", run["corpus"], "--matches", path,
                                "--out", out / "d.jsonl"],
    ),
    "gold": (
        "distant", ("question", "answer"), _INSTANCE_TYPES,
        lambda run, path, out: ["plan", "--gold", path, "--distant", run["distant"],
                                "--out", out / "plan"],
    ),
    "distant": (
        "distant", ("question", "answer"), _INSTANCE_TYPES,
        lambda run, path, out: ["plan", "--gold", run["distant"], "--distant", path,
                                "--out", out / "plan"],
    ),
    "epoch": (
        "plandir", ("question", "answer"), _INSTANCE_TYPES,
        lambda run, path, out: ["train", "--plan", path.parent, "--out", out / "m.json"],
    ),
    "instances": (
        "distant", ("question", "answer"), _INSTANCE_TYPES,
        lambda run, path, out: ["predict", "--model", run["model"], "--in", path,
                                "--out", out / "p.jsonl"],
    ),
    "predictions": (
        "preds", ("label",), {"label": str},
        lambda run, path, out: ["evaluate", "--gold", run["distant"], "--pred", path,
                                "--out", out / "r.json"],
    ),
}
_ANY_VALUES = (True, False, 0, 7, 0.5, "", "x", [], ["a"], {}, {"k": "v"})


def _mutate(line: bytes, mutation: str, keys, types, data) -> bytes:
    if mutation == "null_label":  # a gold row: a distant one with no label is a bad record
        return json.dumps({**json.loads(line), "label": None, "source": "gold"}).encode("utf-8")
    if mutation == "no_answer":
        obj = json.loads(line)
        del obj["answer_turn_id"]
        return json.dumps(obj).encode("utf-8")
    if mutation == "invalid_json":
        return line[:-1]  # drop the closing brace
    if mutation == "not_object":
        return data.draw(st.sampled_from([b"[1, 2]", b"42", b'"text"', b"null"]))
    if mutation == "missing_key":
        obj = json.loads(line)
        del obj[data.draw(st.sampled_from(keys))]
        return json.dumps(obj).encode("utf-8")
    if mutation == "wrong_type":
        obj = json.loads(line)
        name = data.draw(st.sampled_from(sorted(types)))
        kind = types[name]
        value = data.draw(st.sampled_from(
            [v for v in _ANY_VALUES if isinstance(v, bool) or not isinstance(v, kind)]))
        *parents, key = name.split(".")
        target = obj
        for parent in parents:
            target = target.setdefault(parent, {})
        target[key] = value
        return json.dumps(obj).encode("utf-8")
    position = data.draw(st.integers(0, len(line)))
    return line[:position] + b"\xff" + line[position:]


@pytest.mark.parametrize(
    "kind, mutation",
    [
        *((kind, mutation) for kind in sorted(_INPUT_KINDS)
          for mutation in ("invalid_json", "not_object", "missing_key", "wrong_type", "not_utf8")),
        ("predictions", "duplicate_line"),  # the other kinds accept a repeated line by design
        *((kind, "null_label") for kind in ("gold", "distant", "epoch")),
        ("matches", "no_answer"),
    ],
)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_malformed_input_line_is_one_error_naming_file_and_line(
    trained_pipeline, fixture_corpus_path, kind, mutation, data
):
    source, keys, types, argv_for = _INPUT_KINDS[kind]
    run = {**trained_pipeline, "corpus": fixture_corpus_path}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        path = out / run[source].name
        if path.suffix:
            shutil.copyfile(run[source], path)
        else:  # a plan directory: corrupt one epoch file past the first
            shutil.copytree(run[source], path)
            path = path / "epoch_001.jsonl"
        lines = path.read_bytes().splitlines()
        index = data.draw(st.integers(0, len(lines) - 1), label="line index")
        if mutation == "duplicate_line":
            index = len(lines) - 1 - index  # the simplest draw copies the last line, which no line follows
            lines.insert(index, lines[index])
            index += 1  # the line after the copy is the first out of step with gold
        else:
            lines[index] = _mutate(lines[index], mutation, keys, types, data)
        corrupted = b"\n".join(lines) + b"\n"
        path.write_bytes(corrupted)
        _assert_one_line_error(*_run_quietly(argv_for(run, path, out)), f"error: {path}: line {index + 1}: ")
        if kind != "epoch":  # once more through a pipe, which can be read only once
            with _pipe_of(corrupted) as piped:
                rc, err = _run_quietly(argv_for(run, piped, out))
            _assert_one_line_error(rc, err, f"error: {piped}: line {index + 1}: ")


def _run_quietly(argv) -> tuple[int, str]:
    """main's exit code and stderr for argv."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = main([str(arg) for arg in argv])
    return rc, stderr.getvalue()


@contextlib.contextmanager
def _pipe_of(data: bytes):
    """A /dev/fd/N path to the read end of a pipe a writer thread fills
    with data, as a shell's process substitution gives."""
    read_fd, write_fd = os.pipe()

    def feed():
        # a reader that stops at a bad line closes its end before the last byte
        with contextlib.suppress(BrokenPipeError), open(write_fd, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield Path(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
        writer.join(timeout=30)
    assert not writer.is_alive()


@pytest.mark.parametrize("kind", ["corpus", "predictions"])
def test_deeply_nested_line_is_one_error_naming_file_and_line(
    trained_pipeline, fixture_corpus_path, tmp_path, capsys, kind
):
    """json's scanner raises RecursionError past its nesting limit."""
    source, _, _, argv_for = _INPUT_KINDS[kind]
    run = {**trained_pipeline, "corpus": fixture_corpus_path}
    path = tmp_path / run[source].name
    lines = run[source].read_bytes().splitlines()
    lines.insert(1, b'{"a": ' + b"[" * 3000 + b"]" * 3000 + b"}")
    path.write_bytes(b"\n".join(lines) + b"\n")
    rc = main([str(arg) for arg in argv_for(run, path, tmp_path)])
    _assert_one_line_error(rc, capsys.readouterr().err,
                           f"error: {path}: line 2: invalid JSON (nested too deeply)")


def test_cyclic_garbage_of_a_step_does_not_grow_with_its_input(fixture_corpus_path, tmp_path, capsys):
    """cli.run turns the cyclic collector off for a whole run, which holds
    only while what a step leaves for it stays the same on a larger input."""
    records = [json.loads(line) for line in fixture_corpus_path.read_text(encoding="utf-8").splitlines()]
    larger = tmp_path / "corpus5.jsonl"
    larger.write_text("".join(
        json.dumps({**r, "id": f"{r['id']}-{copy}", "conversation_id": f"{r['conversation_id']}-{copy}"}) + "\n"
        for copy in range(5) for r in records), encoding="utf-8")

    def garbage(corpus):
        gc.collect()
        matches = tmp_path / "m.jsonl"
        assert main(["identify", "--corpus", str(corpus), "--mode", "strict", "--out", str(matches)]) == 0
        assert main(["distill", "--corpus", str(corpus), "--matches", str(matches),
                     "--out", str(tmp_path / "d.jsonl")]) == 0
        return gc.collect()

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        garbage(fixture_corpus_path)  # leaves aside what only a first call sets up
        assert garbage(fixture_corpus_path) == garbage(larger)
    finally:
        if was_enabled:
            gc.enable()


def _readme_walkthrough() -> list[list[str]]:
    """argv of each `ynkit` line in the README's fixture bash block, with
    continuation lines joined and shell variables substituted."""
    blocks = re.findall(r"```bash\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    block = next(b for b in blocks if "FIXTURE=" in b)
    variables: dict[str, str] = {}
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if re.fullmatch(r"\w+=\S+", line.strip()):
            name, _, value = line.strip().partition("=")
            variables[name] = value
        elif line.startswith("ynkit "):
            commands.append(shlex.split(string.Template(line).substitute(variables))[1:])
    return commands


def test_readme_names_every_flag():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    _, subparsers = cli.build_parser()
    flags = {
        flag
        for sub in subparsers.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }
    # a whole flag: --m inside --mode does not count
    assert sorted(f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", readme)) == []


def test_readme_walkthrough_runs_as_written(tmp_path, monkeypatch):
    commands = _readme_walkthrough()
    assert tuple(argv[0] for argv in commands) == _COMMANDS
    (tmp_path / "src").symlink_to(ROOT / "src")  # the README runs from the repo root
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        for flag in ("--out", "--audit"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).exists(), argv
