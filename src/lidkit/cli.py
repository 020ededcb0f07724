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
against ``harness.CONFIG_DEFAULTS`` and ``harness.CONFIG_DOMAINS``. Only
``generate`` and ``train`` draw random numbers and take --seed; every text
output of the other five starts with a stamp comment (hash of the effective
config). Exit codes: 0 success, 1 usage error, 2 data/validation error (an
unknown config key or a value outside its key's domain too), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from pathlib import Path

from . import backend as backend_mod
from . import config as cfgmod
from . import harness, metrics, net, submission
from .errors import LidkitError, MalformedLine, NonFiniteValue, about, data_lines, parse_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _seed(text: str) -> int:
    """The ``--seed`` type: a non-negative decimal integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _languages(text: str) -> list[str]:
    """The ``--languages`` type: two or more comma-separated languages, none empty or repeated."""
    languages = text.split(",")
    if "" in languages:
        raise argparse.ArgumentTypeError(f"empty language in {text!r}")
    repeated = [lang for i, lang in enumerate(languages) if lang in languages[:i]]
    if repeated:
        raise argparse.ArgumentTypeError(f"language {repeated[0]!r} given twice")
    if len(languages) < 2:
        raise argparse.ArgumentTypeError(f"expected at least 2 languages, got {len(languages)}")
    return languages


@functools.cache  # built on the first call; a parse leaves the parser as it was
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

    p = sub.add_parser("generate", parents=[common], help="synthesize a test corpus")
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("train", parents=[common], help="train the embedding network")
    p.add_argument("--seed", type=_seed, default=0)
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
        overrides.update(parse_file(args.config, cfgmod.parse_config))
    for item in args.overrides:
        if "=" not in item:
            raise _UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return cfgmod.resolve(harness.CONFIG_DEFAULTS, overrides, harness.CONFIG_DOMAINS)


def _stamp(cfg: dict[str, object]) -> str:
    return f"# stamp config={cfgmod.config_hash(cfg)}\n"


def _warn_fill(fill: submission.FillResult) -> None:
    for seg in fill.dropped_ids:
        print(f"warning: segment {seg!r} not in key, dropped", file=sys.stderr)
    if fill.num_filled:
        noun = "trial" if fill.num_filled == 1 else "trials"
        print(f"warning: {fill.num_filled} lost {noun} filled with -inf", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_generate(args, cfg):
    specs = harness.default_training_specs() + harness.default_zero_resource_specs()
    harness.generate_corpus(specs, harness.desk_counts(cfg), args.seed, args.out)
    print(f"corpus written to {args.out}")
    return EXIT_OK


def _entries(args) -> list[harness.ManifestEntry]:
    entries = [e for e in harness.read_manifest(args.corpus) if e.split == args.split]
    if not entries:
        with about(Path(args.corpus) / "manifest.txt"):
            raise MalformedLine(f"no entry in split {args.split!r}")
    return entries


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
    embed_dim = params.dense_specs[0].out_dim
    table = harness.score_table(params, args.corpus, _entries(args), cfg,
                                lambda feats: net.extract_xvector(params, feats).values, embed_dim)
    harness.write_atomic(args.out, _stamp(cfg), submission.write_scores(table))
    print(f"{len(table)} x-vectors written to {args.out}")
    return EXIT_OK


def _parse_refs(text: str) -> list[harness.ManifestEntry]:
    """'language wav-path' lines as manifest entries (path is the id); at
    least one is needed."""
    entries = []
    for line_no, line in data_lines(text):
        tokens = line.split(None, 1)
        if len(tokens) != 2:
            raise MalformedLine("expected 'language wav-path'", line_no)
        language, wav_path = tokens
        entries.append(harness.ManifestEntry(wav_path, language, wav_path, "reference"))
    if not entries:
        raise MalformedLine("no 'language wav-path' line found")
    return entries


def _cmd_enroll(args, cfg):
    params = _load_model(args.model)
    entries = parse_file(args.refs, _parse_refs)
    languages = list(dict.fromkeys(e.language for e in entries))
    models = harness.enroll_entries(params, "", entries, cfg, languages)
    harness.write_atomic(args.out, _stamp(cfg), backend_mod.write_models(models))
    print(f"enrolled {len(models.language_ids)} languages to {args.out}")
    return EXIT_OK


def _cmd_score(args, cfg):
    ignored = {"closed": "enrolled", "zero": "languages"}[args.mode]
    if getattr(args, ignored) is not None:
        raise _UsageError(f"--{ignored} does not apply to --mode {args.mode}")
    if args.mode == "zero" and not args.enrolled:
        raise _UsageError("zero mode requires --enrolled")
    params = _load_model(args.model)
    key = parse_file(args.key, submission.parse_key)
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
    harness.write_atomic(args.out, _stamp(cfg), text)
    print(f"{len(fill.table)} segments scored to {args.out}")
    return EXIT_OK


def _read_filled(args) -> tuple[submission.TrialKey, submission.FillResult]:
    """``--key``, and ``--scores`` read against it and filled to cover it."""
    key = parse_file(args.key, submission.parse_key)
    table = parse_file(args.scores, lambda text: submission.parse_scores(text, key.language_list))
    return key, submission.fill_missing(table, key)


def _cmd_validate(args, cfg):
    key, fill = _read_filled(args)
    _warn_fill(fill)
    if args.out:
        text = submission.write_scores(fill.table)
        harness.write_atomic(args.out, _stamp(cfg), text)
    print(f"{len(fill.table)} segments valid against {key.num_languages} languages")
    return EXIT_OK


def _cmd_evaluate(args, cfg):
    key, fill = _read_filled(args)
    _warn_fill(fill)
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
        harness.write_atomic(args.report, _stamp(cfg), metrics.report_text(report))
    if args.det:
        harness.write_atomic(args.det, _stamp(cfg), *metrics.det_text(report.det_points))
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
    """Run one command, ``argv`` (``sys.argv[1:]`` when None), and return its
    exit code. Output goes to the current ``sys.stdout`` and ``sys.stderr``,
    and the package's log records to this call's stderr. Only the argument
    parser, built on the first call, is kept between calls in one process."""
    # log to this call's stderr; records still propagate to the root logger
    pkg_log = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    saved_level = pkg_log.level
    pkg_log.addHandler(handler)
    try:
        args = _build_parser().parse_args(argv)
        pkg_log.setLevel(logging.INFO if args.verbose else logging.WARNING)
        return _COMMANDS[args.command](args, _gather_config(args))
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteValue as exc:
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
