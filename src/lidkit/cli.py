"""Command-line entry point.

One binary, subcommand style:

    lidkit generate  --out corpus/ --seed 7
    lidkit train     --corpus corpus/ --languages alpha,bravo,charlie --out model.bin
    lidkit extract   --model model.bin --corpus corpus/ --split test --out xvec.txt
    lidkit enroll    --model model.bin --refs refs.txt --out enrolled.txt
    lidkit score     --model model.bin --corpus corpus/ --split test --key key.txt --out scores.txt
    lidkit validate  --scores scores.txt --key key.txt
    lidkit evaluate  --scores scores.txt --key key.txt

Config values come from an optional flat key-value file (--config) with
command-line overrides via repeated --set key=value (last one wins), checked
against ``harness.CONFIG_DEFAULTS`` and ``harness.CONFIG_DOMAINS``. Every
text output starts with a stamp comment (hash of the effective config plus
seed). Exit codes: 0 success, 1 usage error, 2 data/validation error (an
unknown config key or a value outside its key's domain too), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys

from . import backend as backend_mod
from . import config as cfgmod
from . import harness, metrics, net, submission
from .errors import LidkitError, MalformedLine, NonFiniteLoss, about, data_lines, parse_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _decimal(text: str, least: int = 0) -> int:
    """A decimal integer of at least ``least``: ``--seed`` and ``--jobs`` (least 1)."""
    if not (text.isascii() and text.isdigit()) or int(text) < least:
        kind = "positive" if least else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return int(text)


def _languages(text: str) -> list[str]:
    """The ``--languages`` type: comma-separated languages, none repeated."""
    languages = [tok for tok in text.split(",") if tok]
    repeated = [lang for i, lang in enumerate(languages) if lang in languages[:i]]
    if repeated:
        raise argparse.ArgumentTypeError(f"language {repeated[0]!r} given twice")
    return languages


def _build_parser() -> _Parser:
    parser = _Parser(prog="lidkit", description="language identification toolkit")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key-value config file")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config value (repeatable, last wins)",
    )
    common.add_argument("--seed", type=_decimal, default=0)

    p = sub.add_parser("generate", parents=[common], help="synthesize a test corpus")
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--jobs", type=functools.partial(_decimal, least=1), default=1,
                   help="most synthesis threads (no more than CPUs or utterances)")

    p = sub.add_parser("train", parents=[common], help="train the embedding network")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--languages", type=_languages, required=True,
                   help="comma-separated label order")
    p.add_argument("--out", required=True, help="model file to write")

    p = sub.add_parser("extract", parents=[common], help="extract x-vectors")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("enroll", parents=[common], help="enroll reference languages")
    p.add_argument("--model", required=True)
    p.add_argument("--refs", required=True, help="manifest of 'language wav-path' lines")
    p.add_argument("--out", required=True)

    p = sub.add_parser("score", parents=[common], help="score a test split")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--key", required=True, help="trial key fixing the language order")
    p.add_argument("--mode", choices=["closed", "zero"], default="closed")
    p.add_argument("--enrolled", help="enrolled models file (zero mode)")
    p.add_argument("--languages", type=_languages, help="training label order (closed mode)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", parents=[common], help="validate a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--out", help="write the -inf-filled score file here")

    p = sub.add_parser("evaluate", parents=[common], help="evaluate a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--report", help="write the flat key-value report here")
    p.add_argument("--det", help="write DET points here")
    return parser


def _gather_config(args) -> dict[str, object]:
    """The effective config: defaults, then --config, then each --set."""
    overrides: dict[str, str] = {}
    if args.config:
        overrides.update(cfgmod.load_config(args.config))
    for item in args.overrides:
        if "=" not in item:
            raise _UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return cfgmod.resolve(harness.CONFIG_DEFAULTS, overrides, harness.CONFIG_DOMAINS)


def _stamp(cfg: dict[str, object], seed: int) -> str:
    return f"# stamp config={cfgmod.config_hash(cfg, seed)} seed={seed}\n"


def _warn_lost(fill: submission.FillResult) -> None:
    if fill.num_filled:
        noun = "trial" if fill.num_filled == 1 else "trials"
        print(f"warning: {fill.num_filled} lost {noun} filled with -inf", file=sys.stderr)


def _warn_fill(fill: submission.FillResult) -> None:
    for seg in fill.dropped_ids:
        print(f"warning: segment {seg!r} not in key, dropped", file=sys.stderr)
    _warn_lost(fill)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_generate(args, cfg):
    specs = harness.default_training_specs() + harness.default_zero_resource_specs()
    harness.generate_corpus(specs, harness.desk_counts(cfg), args.seed, args.out, jobs=args.jobs)
    print(f"corpus written to {args.out}")
    return EXIT_OK


def _entries(args) -> list[harness.ManifestEntry]:
    return [e for e in harness.read_manifest(args.corpus) if e.split == args.split]


def _cmd_train(args, cfg):
    params = harness.train_network(args.corpus, _entries(args), args.languages, cfg, args.seed)
    harness.write_atomic(args.out, net.save_params(params))
    print(f"model written to {args.out}")
    return EXIT_OK


def _load_model(path) -> net.NetworkParams:
    with about(path), open(path, "rb") as fh:
        return net.load_params(fh.read())


def _cmd_extract(args, cfg):
    params = _load_model(args.model)
    embed_dim = params.weights[net.EMBED_LAYER].shape[0]
    table = harness.score_table(params, args.corpus, _entries(args), cfg,
                                lambda feats: net.extract_xvector(params, feats).values, embed_dim)
    harness.write_atomic(args.out, _stamp(cfg, args.seed), submission.write_scores(table))
    print(f"{len(table)} x-vectors written to {args.out}")
    return EXIT_OK


def _parse_refs(text: str) -> list[harness.ManifestEntry]:
    """'language wav-path' lines as manifest entries (path is the id)."""
    entries = []
    for line_no, line in data_lines(text):
        tokens = line.split(None, 1)
        if len(tokens) != 2:
            raise MalformedLine("expected 'language wav-path'", line_no)
        language, wav_path = tokens
        entries.append(harness.ManifestEntry(wav_path, language, wav_path, "reference"))
    return entries


def _cmd_enroll(args, cfg):
    params = _load_model(args.model)
    entries = parse_file(args.refs, _parse_refs)
    languages = list(dict.fromkeys(e.language for e in entries))
    models = harness.enroll_entries(params, "", entries, cfg, languages)
    harness.write_atomic(args.out, _stamp(cfg, args.seed), backend_mod.write_models(models))
    print(f"enrolled {len(models.language_ids)} languages to {args.out}")
    return EXIT_OK


def _cmd_score(args, cfg):
    ignored = {"closed": "enrolled", "zero": "languages"}[args.mode]
    if getattr(args, ignored) is not None:
        raise _UsageError(f"--{ignored} does not apply to --mode {args.mode}")
    if args.mode == "zero" and not args.enrolled:
        raise _UsageError("zero mode requires --enrolled")
    params = _load_model(args.model)
    key = submission.read_key_file(args.key)
    if args.mode == "closed":
        with about("--languages" if args.languages else f"{args.key} (no --languages)"):
            score = harness.closed_set_scorer(params, args.languages or key.language_list,
                                              key.language_list)
    else:
        models = parse_file(args.enrolled, backend_mod.parse_models)
        with about(args.enrolled):
            score = harness.zero_resource_scorer(params, models, key.language_list)
    table = harness.score_table(params, args.corpus, _entries(args), cfg, score, key.num_languages)
    fill = submission.fill_missing(table, key)
    _warn_fill(fill)
    text = submission.write_scores(fill.table)
    harness.write_atomic(args.out, _stamp(cfg, args.seed), text)
    print(f"{len(fill.table)} segments scored to {args.out}")
    return EXIT_OK


def _cmd_validate(args, cfg):
    key = submission.read_key_file(args.key)
    fill = submission.fill_missing(submission.read_score_file(args.scores, key.language_list), key)
    _warn_fill(fill)
    if args.out:
        text = submission.write_scores(fill.table)
        harness.write_atomic(args.out, _stamp(cfg, args.seed), text)
    print(f"{len(fill.table)} segments valid against {key.num_languages} languages")
    return EXIT_OK


def _cmd_evaluate(args, cfg):
    key = submission.read_key_file(args.key)
    fill = submission.fill_missing(submission.read_score_file(args.scores, key.language_list), key)
    _warn_lost(fill)
    # both policies are always reported, from one trial set; eval.policy picks the headline
    with about(args.key):  # EmptyTrialSet: a key of one language, or a language with no segment
        configs = [harness.eval_config(cfg, key, policy) for policy in metrics.THRESHOLD_POLICIES]
        trials = metrics.trials(fill.table, key)
        reports = {c.threshold_policy: metrics.compute_cavg(trials, key, c) for c in configs}
    report = reports[cfg["eval.policy"]]
    print(f"Cavg {report.cavg:.4f}")
    print(f"EER% {report.eer * 100:.2f}")
    fixed = reports[metrics.FIXED]
    swept = reports[metrics.MIN_SWEEP]
    print(f"Cavg[fixed threshold={cfg['eval.threshold']:g}] {fixed.cavg:.4f}")
    print(f"Cavg[min_sweep threshold={swept.threshold_used:g}] {swept.cavg:.4f}")
    if args.report:
        harness.write_atomic(args.report, _stamp(cfg, args.seed), metrics.report_text(report))
    if args.det:
        text = metrics.det_text(report.det_points)
        harness.write_atomic(args.det, _stamp(cfg, args.seed), text)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "extract": _cmd_extract,
    "enroll": _cmd_enroll,
    "score": _cmd_score,
    "validate": _cmd_validate,
    "evaluate": _cmd_evaluate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    # log to this call's stderr; records still propagate to the root logger
    pkg_log = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    saved_level = pkg_log.level
    pkg_log.addHandler(handler)
    pkg_log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return _COMMANDS[args.command](args, _gather_config(args))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (LidkitError, OSError, ValueError, MemoryError) as exc:  # huge in-domain sizes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        pkg_log.removeHandler(handler)
        pkg_log.setLevel(saved_level)


if __name__ == "__main__":
    sys.exit(main())
