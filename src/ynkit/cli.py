"""Single entry point exposing the pipeline stages as subcommands.

Exit codes: 0 success, 1 domain errors (bad inputs, missing files),
2 usage errors. Diagnostics go to stderr; data goes to files or stdout.
A flat key=value config file can seed any flag default; explicit flags
win.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import distant, qid
from .corpus import LABEL_ORDER, Label, _require, iter_jsonl, load_corpus, parse_label
from .errors import CorpusFormatError, InvalidConfigError, YnkitError

DEFAULT_SEED = 1729  # fixed so bare runs are reproducible; override with --seed

# the predictions and probe lines: json.dumps(..., sort_keys=True), whose
# encoder is built once rather than per line
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def _read_config_file(path: str, known_keys: set[str]) -> dict[str, str]:
    """Parse a flat key = value file into strings; a key outside
    known_keys is an error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InvalidConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise InvalidConfigError(f"{path}: not UTF-8 ({exc.reason})") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfigError(f"{path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in known_keys:
            raise InvalidConfigError(f"{path}: unknown key {key!r}")
        values[key] = value.strip().strip('"').strip("'")
    return values


def _config_defaults(path: str, values: dict[str, str], parser: argparse.ArgumentParser) -> dict:
    """The config file's values for parser's flags, each converted and
    checked as the flag converts and checks its command-line value (argparse
    applies neither type nor choices to a default that is not a string)."""
    defaults = {}
    for action in parser._actions:
        text = values.get(action.dest)
        if text is None:
            continue
        if isinstance(action, argparse._StoreTrueAction):
            if text.lower() not in ("true", "false"):
                raise InvalidConfigError(f"{path}: {action.dest}: invalid value: {text!r} (choose from true, false)")
            defaults[action.dest] = text.lower() == "true"
            continue
        convert = action.type or str
        try:
            value = convert(text)
        except ValueError:
            raise InvalidConfigError(f"{path}: {action.dest}: invalid {convert.__name__} value: {text!r}") from None
        if action.choices is not None and value not in action.choices:
            raise InvalidConfigError(
                f"{path}: {action.dest}: invalid choice: {text!r} (choose from {', '.join(action.choices)})"
            )
        defaults[action.dest] = value
    return defaults


def _add_common(parser: argparse.ArgumentParser, handler) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--config", help="flat key=value config file")
    parser.set_defaults(func=handler)


def _log_effective(args: argparse.Namespace) -> None:
    shown = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {shown}", file=sys.stderr)


def _cmd_identify(args) -> int:
    corpus = load_corpus(args.corpus)
    mode = {"acts": "dialogue_act"}.get(args.mode, args.mode)
    matches, stats = qid.scan_corpus(
        corpus, mode, sample_size=args.sample, seed=args.seed
    )
    qid.write_matches(matches, args.out)
    if args.audit:
        qid.write_audit_sample(stats, args.audit)
    print(
        json.dumps(
            {
                "total_turns": stats.total_turns,
                "match_count": stats.match_count,
                "sample_size": len(stats.precision_sample),
                "mode": mode,
            }
        )
    )
    return 0


def _cmd_distill(args) -> int:
    corpus = load_corpus(args.corpus)
    matches = qid.load_matches(args.matches, corpus)
    instances = distant.extract_distant_instances(corpus, matches, args.context_window)
    if args.balance:
        instances = distant.balance_dataset(instances, seed=args.seed)
    distant.write_instances(instances, args.out)
    print(json.dumps({"instances": len(instances), "balanced": bool(args.balance)}))
    return 0


def _cmd_plan(args) -> int:
    from . import blend  # each step imports only the modules it uses

    gold = distant.read_instances(args.gold, unlabeled="every gold instance needs a label") if args.gold else []
    distant_pool = (
        distant.read_instances(args.distant, unlabeled="every distant instance needs a label") if args.distant else []
    )
    empty = [path for path, pool in ((args.gold, gold), (args.distant, distant_pool)) if path and not pool]
    if empty and (args.strategy == "blended" or not (gold or distant_pool)):  # blended needs both pools
        raise CorpusFormatError(f"{empty[0]}: holds no instances")
    if args.strategy == "blended":
        plan = blend.build_blended_plan(
            gold, distant_pool, alpha=args.alpha, m=args.m, n=args.n, seed=args.seed, distant_cap=args.cap
        )
    else:
        plan = blend.build_merged_plan(
            gold, distant_pool, epochs=args.epochs, seed=args.seed, distant_cap=args.cap
        )
    blend.export_plan(plan, args.out)
    sizes = [len(e.instances) for e in plan.epochs]
    print(json.dumps({"strategy": plan.provenance["strategy"], "epoch_sizes": sizes}))
    return 0


def _ngram_orders(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(n) for n in value.split(","))
    except ValueError:
        raise InvalidConfigError(
            f"--ngrams: expected comma-separated integers, got {value!r}"
        ) from None


def _cmd_train(args) -> int:
    from . import blend, model  # numpy loads only for the steps that need it

    config = model.TrainConfig(
        learning_rate=args.lr,
        l2=args.l2,
        num_buckets=args.buckets,
        ngram_orders=_ngram_orders(args.ngrams),
        fields_used=tuple(f.strip() for f in args.fields.split(",")),
    )
    plan = blend.load_plan(args.plan)
    trained = model.train(plan, config)
    model.save_model(trained, args.out)
    print(json.dumps({"epochs": len(plan.epochs), "model": str(args.out)}))
    return 0


def _prediction_lines(trained, instances) -> str:
    """The predictions file's lines for instances, as one string."""
    from . import model

    probs = model.predict_proba(trained, instances)
    names = [label.value for label in LABEL_ORDER]
    lines = []
    for inst, row, winner in zip(instances, probs.tolist(), probs.argmax(axis=1).tolist()):
        record = {
            "label": names[winner],
            "probs": dict(zip(names, row)),
            "origin": distant.origin_to_dict(inst.origin_ids),
        }
        lines.append(_encode_sorted(record) + "\n")
    return "".join(lines)


# the fewest instances predict gives a slice of its own; timed on 2 CPUs,
# a forked slice pays for its child from about 500 instances on
MIN_PREDICT_SLICE = 1000


def _cmd_predict(args) -> int:
    from . import model, parallel

    trained = model.load_model(args.model)
    instances = distant.read_instances(args.infile)
    slices = parallel.map_slices(
        lambda lo, hi: _prediction_lines(trained, instances[lo:hi]),
        len(instances),
        min(parallel.available_cpus(), len(instances) // MIN_PREDICT_SLICE),
    )
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with Path(args.out).open("w", encoding="utf-8") as handle:
        handle.writelines(slices)
    print(json.dumps({"predicted": len(instances)}))
    return 0


def _read_pred_labels(
    path: str, gold: list[distant.QAInstance], gold_path: str, mcnemar: bool
) -> list[Optional[Label]]:
    """Labels of a predictions file in line order, one per gold instance;
    null is unmapped, and refused when mcnemar is set. A line with an
    origin, as predict writes, must carry its gold instance's."""
    labels: list[Optional[Label]] = []
    for i, (where, obj) in enumerate(iter_jsonl(path)):
        if i == len(gold):
            raise CorpusFormatError(f"{where}: more predictions than the {len(gold)} instances of {gold_path}")
        value = _require(obj, "label", where)
        origin = obj.get("origin")
        if origin is not None:
            expected = distant.origin_to_dict(gold[i].origin_ids)
            if origin != expected:
                raise CorpusFormatError(
                    f"{where}: origin {_encode_sorted(origin)} is not gold instance {i + 1}'s, "
                    f"{_encode_sorted(expected)}"
                )
        if value is None and mcnemar:
            raise CorpusFormatError(f"{where}: mcnemar comparison requires fully mapped predictions")
        try:
            labels.append(parse_label(value) if value is not None else None)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{where}: {exc}") from None
    if len(labels) < len(gold):
        raise CorpusFormatError(f"{path}: {len(labels)} predictions for the {len(gold)} instances of {gold_path}")
    return labels


def _cmd_evaluate(args) -> int:
    from . import evaluation

    gold_instances = distant.read_instances(args.gold, unlabeled="every gold instance needs a label")
    if not gold_instances:
        raise CorpusFormatError(f"{args.gold}: holds no instances")
    gold = [inst.label for inst in gold_instances]
    preds = _read_pred_labels(args.pred, gold_instances, args.gold, mcnemar=bool(args.pred2))
    gold_kept, pred_kept = gold, preds  # --unmapped wrong: score counts None as a miss
    if args.unmapped == "exclude":
        mapped = [i for i, label in enumerate(preds) if label is not None]
        if not mapped:
            raise CorpusFormatError(
                f"{args.pred}: every prediction is unmapped, so --unmapped exclude leaves none to score"
            )
        gold_kept, pred_kept = [gold[i] for i in mapped], [preds[i] for i in mapped]
    report = evaluation.score(gold_kept, pred_kept).to_dict()
    excluded = len(gold) - len(gold_kept)
    if excluded:
        report["excluded_unmapped"] = excluded
    if args.pred2:
        preds2 = _read_pred_labels(args.pred2, gold_instances, args.gold, mcnemar=True)
        method = (
            "exact_binomial" if args.mcnemar == "exact" else "continuity_corrected_chi2"
        )
        result = evaluation.mcnemar(gold, preds, preds2, method=method)
        report["mcnemar"] = result.to_dict()
        report["system_b"] = evaluation.score(gold, preds2).to_dict()
    evaluation.write_report(report, args.out)
    print(json.dumps({"macro_f1": report["macro_f1"], "n": report["n"]}))
    return 0


def _cmd_probe(args) -> int:
    from . import llm_probe

    instances = distant.read_instances(args.infile)
    template = llm_probe.PromptTemplate()
    if args.shots > 0:
        if not args.shot_examples:
            raise InvalidConfigError("--shots requires --shot-examples with labeled instances")
        shots = distant.read_instances(args.shot_examples, unlabeled="shot examples must be labeled")
        examples = tuple((inst.question, inst.answer, inst.label) for inst in shots)
        template = llm_probe.PromptTemplate(shot_examples=examples)
    with contextlib.ExitStack() as stack:
        if args.client == "replay":
            if not args.store:
                raise InvalidConfigError("--client replay requires --store with a replay store file")
            client = llm_probe.ReplayClient(args.store)
        else:
            client = llm_probe.LiveClient(endpoint=args.endpoint)
            stack.callback(client.close)  # its connections close when the probe ends
        result = llm_probe.probe_benchmark(
            instances, template, args.shots, client, concurrency=args.concurrency
        )
    with Path(args.out).open("w", encoding="utf-8") as handle:
        for response in result.responses:
            label = response.label.value if response.label else None
            handle.write(_encode_sorted({"label": label, "raw": response.raw}) + "\n")
    manifest_path = Path(args.out).with_suffix(".manifest.json")
    manifest_path.write_text(
        json.dumps(result.manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps({"probed": len(result.responses), "unmapped": result.unmapped_count}))
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ynkit parser and its subparsers by name."""
    parser = argparse.ArgumentParser(
        prog="ynkit",
        description="Yes-no question pipelines: identify, distill, plan, train, predict, evaluate, probe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="scan a corpus for yes-no questions")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=["relaxed", "strict", "acts"], default="relaxed")
    p.add_argument("--sample", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--audit")
    _add_common(p, _cmd_identify)

    p = sub.add_parser("distill", help="extract distant instances from strict matches")
    p.add_argument("--corpus", required=True)
    p.add_argument("--matches", required=True)
    p.add_argument("--balance", action="store_true")
    p.add_argument("--context-window", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_distill)

    p = sub.add_parser("plan", help="build a training curriculum")
    p.add_argument("--gold")
    p.add_argument("--distant")
    p.add_argument("--strategy", choices=["merged", "blended"], default="merged")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--epochs", type=int, default=5, help="epoch count for merged plans")
    p.add_argument("--cap", type=int)
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_plan)

    p = sub.add_parser("train", help="train the linear classifier on a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--l2", type=float, default=1e-6)
    p.add_argument("--buckets", type=int, default=2**18)
    p.add_argument("--ngrams", default="1,2")
    p.add_argument("--fields", default="context,question,answer")
    _add_common(p, _cmd_train)

    p = sub.add_parser("predict", help="predict labels for instances")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--pred2")
    p.add_argument("--mcnemar", choices=["chi2", "exact"], default="chi2")
    p.add_argument("--unmapped", choices=["exclude", "wrong"], default="exclude")
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_evaluate)

    p = sub.add_parser("probe", help="prompt a completion endpoint")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--shot-examples", help="jsonl of labeled shot instances")
    p.add_argument("--client", choices=["live", "replay"], default="replay")
    p.add_argument("--store", help="replay store JSON file")
    p.add_argument("--endpoint", help="live endpoint URL")
    p.add_argument("--concurrency", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_probe)

    return parser, sub.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    # pre-scan for --config so file values become defaults, flags still win
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    config_path = probe.parse_known_args(argv)[0].config
    try:
        if config_path:
            # a key may be any subcommand's; -h and --config take no value a
            # file can set: a file names no other file
            known_keys = {a.dest for p in subparsers.values() for a in p._actions} - {"help", "config"}
            file_values = _read_config_file(config_path, known_keys)
            for sub_parser in subparsers.values():
                sub_parser.set_defaults(**_config_defaults(config_path, file_values, sub_parser))
        args = parser.parse_args(argv)
        _log_effective(args)
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input that is a directory or unreadable
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except YnkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    # a run keeps what it reads until it exits, so the cyclic collector's
    # passes would only walk the loaded inputs again; identify or distill
    # leaves the same 504 unreachable cyclic objects (argparse's, mostly)
    # on a 60-turn corpus as on a 150,000-turn one: nothing piles up
    gc.disable()
    sys.exit(main())
