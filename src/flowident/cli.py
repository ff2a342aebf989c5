"""Command-line interface.

Exit codes: 0 on success, 1 for I/O and file-format problems, 2 for
contract violations such as degenerate datasets (argparse usage errors
also exit 2).
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from functools import cache, partial

import numpy as np

from . import classifier, evaluation, sampling, selection, synth
from .errors import ContractError, FormatError, check_finite
from .features import Dataset, feature_matrix, read_dataset, validate_feature_ids, write_dataset
from .files import read_json, write_json
from .flow import (
    DEFAULT_ACTIVE_TIMEOUT,
    DEFAULT_INACTIVE_TIMEOUT,
    Aggregation,
    PacketTable,
    aggregate_table,
)
from .ingest import (
    PcapReader,
    load_labels,
    read_netflow_table,
    write_labels,
    write_pcap,
)

_RATIO_RE = re.compile(r"1:(\d+)")


def _parse_ratios(text: str) -> list[int]:
    ratios = []
    for token in text.split(","):
        m = _RATIO_RE.fullmatch(token.strip())
        if not m:
            raise argparse.ArgumentTypeError(f"ratio must look like 1:N, got {token.strip()!r}")
        n = int(m.group(1))
        try:
            sampling.sampling_rate(n)
        except ContractError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if n in ratios:
            raise argparse.ArgumentTypeError(f"ratio 1:{n} is listed twice")
        ratios.append(n)
    return ratios


def _number(name: str, convert, check, kind: str = ""):
    """An argparse type: ``convert`` the text, then ``check`` the value with the
    check the library applies to it, so a refused value exits 2 before anything
    is read.  A ValueError reads "<name> must be <kind>", a ContractError as itself."""
    kind = kind or ("an integer" if convert is int else "a number")

    def parse(text: str):
        try:
            value = convert(text)
            check(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be {kind}, got {text!r}") from None
        except ContractError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


# default_rng's own check: a seed is an integer of at least 0.  Looked up per
# call, so that a command without a seed never loads numpy.random (~5 MiB).
_SEED = _number("seed", int, lambda seed: np.random.SeedSequence(seed), "a non-negative integer")


def _parse_features(text: str) -> tuple[int, ...] | None:
    if text.strip().lower() == "all":
        return None
    try:
        return validate_feature_ids(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("features must be 'all' or ids like 1,9,12")
    except ContractError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _labeled_subset(ds: Dataset, what: str) -> Dataset:
    labeled = ds.labeled_only()
    dropped = len(ds) - len(labeled)
    if dropped:
        print(f"note: ignoring {dropped} unlabeled rows for {what}", file=sys.stderr)
    return labeled


def _prior_from_args(args) -> classifier.NIGPrior:
    return classifier.NIGPrior(**{
        name: getattr(args, f"prior_{name}") for name in classifier.NIG_PARAMS})


def _add_prior_args(parser) -> None:
    for name in classifier.NIG_PARAMS:
        check = lambda value, name=name: classifier.NIGPrior(**{name: value})
        parser.add_argument(f"--prior-{name}", type=_number(f"prior {name}", float, check),
                            default=getattr(classifier.NIGPrior(), name))


def _add_timeout_args(parser, inputs: str) -> None:
    for flag, default in (("--inactive-timeout", DEFAULT_INACTIVE_TIMEOUT),
                          ("--active-timeout", DEFAULT_ACTIVE_TIMEOUT)):
        name = flag[2:].replace("-", "_")  # aggregate_table's name for it
        check = partial(check_finite, name, positive=True)
        parser.add_argument(flag, type=_number(name, float, check), default=default,
                            help=f"seconds, applied to {inputs} (default {default:g})")


def _add_feature_args(parser) -> None:
    ids = parser.add_mutually_exclusive_group()
    ids.add_argument("--features", type=_parse_features, default=None,
                     help="'all' or comma-separated feature ids (default all)")
    ids.add_argument("--features-from", help="selection report JSON to take ids from")


def _resolve_features(args) -> tuple[int, ...] | None:
    path = args.features_from
    if not path:
        return args.features
    try:
        selected = read_json(path, FormatError)["selected"]
    except (KeyError, TypeError):
        raise FormatError(f"{path}: no 'selected' list") from None
    try:
        return validate_feature_ids(selected)
    except ContractError as exc:
        raise FormatError(f"{path}: 'selected': {exc}") from None


def _draw_spec(path, draw):
    """``draw`` over the spec JSON at ``path``; a FormatError raised while
    drawing names the file, as one raised while parsing does."""
    spec = synth.load_synth_spec(path)
    try:
        return draw(spec)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _capture_episodes(args) -> tuple[PacketTable, Aggregation]:
    """The packets of ``args.pcap``, or else of the capture drawn from the spec
    at ``args.synth``, and their flow episodes, noting the frames skipped and
    the packets rejected on the way."""
    if args.pcap:
        reader = PcapReader(args.pcap)
        table = reader.table()
        if reader.skipped:
            print(f"note: skipped {reader.skipped} frames that are not IPv4 TCP/UDP", file=sys.stderr)
    else:
        table = _draw_spec(args.synth, lambda spec: synth.generate_packets(spec)[0])
    agg = aggregate_table(table, args.inactive_timeout, args.active_timeout)
    if agg.rejected:
        print(f"note: rejected {agg.rejected} out-of-order packets", file=sys.stderr)
    return table, agg


def cmd_ingest(args) -> int:
    if args.pcap:
        flows = _capture_episodes(args)[1].flows
    else:
        flows = read_netflow_table(args.netflow)
    if args.complete_only:
        flows = flows.take(flows.complete)
    labels = [None] * len(flows)
    if args.labels:
        labels = load_labels(args.labels).join(flows)
        unmatched = labels.count(None)
        if unmatched:
            print(f"note: {unmatched} flows had no label row", file=sys.stderr)
    write_dataset(Dataset.from_labels(feature_matrix(flows), labels), args.out)
    print(f"wrote {len(flows)} flows to {args.out}")
    return 0


def cmd_select(args) -> int:
    ds = _labeled_subset(read_dataset(args.dataset), "selection")
    result = selection.fcbf_select(ds, delta=args.delta, bins=args.bins)
    if args.out:
        write_json(args.out, result.to_json_dict())
    print("selected features:", ",".join(str(fid) for fid in result.selected))
    return 0


def cmd_train(args) -> int:
    ds = _labeled_subset(read_dataset(args.dataset), "training")
    model = classifier.train(ds, _resolve_features(args), _prior_from_args(args))
    classifier.save_model(model, args.out)
    print(
        f"trained on {model.total_flows} flows, "
        f"{len(model.alphabet)} classes, features "
        + ",".join(str(fid) for fid in model.feature_ids)
    )
    return 0


def cmd_update(args) -> int:
    model = classifier.load_model(args.model)
    ds = _labeled_subset(read_dataset(args.dataset), "updating")
    updated = classifier.update(model, ds)
    classifier.save_model(updated, args.out)
    print(f"updated model with {len(ds)} flows -> {args.out}")
    return 0


def cmd_classify(args) -> int:
    model = classifier.load_model(args.model)
    ds = read_dataset(args.dataset)
    predictions = classifier.predict(model, ds)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("index", "label"))
        writer.writerows(enumerate(predictions))
    print(f"classified {len(predictions)} flows -> {args.out}")
    return 0


def cmd_sample_report(args) -> int:
    table, agg = _capture_episodes(args)
    traces = sampling.traces_from_table(table, agg)
    report = sampling.build_sampling_report(
        traces, args.ratios, seed=args.seed, trials=args.trials
    )
    for row in report.rows:
        print(f"{row.metric:>8}  1:{row.ratio:<5} adre={row.adre:.6g}")
    if args.out_csv:
        report.write_csv(args.out_csv)
    if args.out_json:
        write_json(args.out_json, report.to_json_dict())
    return 0


def cmd_synth(args) -> int:
    capture = args.out_pcap or args.out_labels
    if not (args.out_dataset or capture):
        raise ContractError("nothing to do: pass --out-dataset, --out-pcap, or --out-labels")
    # Every draw before any write: a draw may refuse the spec.
    (packets, labels), ds = _draw_spec(args.spec, lambda spec: (
        synth.generate_packets(spec) if capture else (None, None),
        synth.generate_dataset(spec) if args.out_dataset else None,
    ))
    if args.out_dataset:
        write_dataset(ds, args.out_dataset)
        print(f"wrote {len(ds)} feature rows to {args.out_dataset}")
    if args.out_pcap:
        count = write_pcap(args.out_pcap, packets)
        print(f"wrote {count} packets to {args.out_pcap}")
    if args.out_labels:
        write_labels(args.out_labels, labels)
        print(f"wrote {len(labels)} label rows to {args.out_labels}")
    return 0


def cmd_evaluate(args) -> int:
    ds = _labeled_subset(read_dataset(args.dataset), "evaluation")
    feature_ids = _resolve_features(args)
    prior = _prior_from_args(args)

    def pipeline(train_ds, test_ds):
        model = classifier.train(train_ds, feature_ids, prior)
        return classifier.predict(model, test_ds)

    report = evaluation.kfold_cv(ds, pipeline, k=args.k, seed=args.seed)
    print(
        f"{args.k}-fold OA {report.mean_overall_accuracy:.4f}  "
        f"macro precision {report.macro_precision:.4f}  "
        f"macro recall {report.macro_recall:.4f}  "
        f"macro F {report.macro_f_measure:.4f}"
    )
    if args.report:
        write_json(args.report, report.to_json_dict())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write("algorithm,precision,recall,oa,f_measure\n")
            fh.write(
                f"gaussian-nb,{report.macro_precision:.9g},{report.macro_recall:.9g},"
                f"{report.mean_overall_accuracy:.9g},{report.macro_f_measure:.9g}\n"
            )
    return 0


@cache  # parse_args leaves the parser as it is, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowident",
        description="Flow-record traffic classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="turn a capture or export file into a feature CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pcap", help="classic pcap capture file")
    src.add_argument("--netflow", help="file of concatenated NetFlow v5 datagrams")
    p.add_argument("--labels", help="label CSV to join on (key, first_ts)")
    p.add_argument("--out", required=True, help="output feature CSV")
    _add_timeout_args(p, "--pcap")
    p.add_argument("--complete-only", action="store_true",
                   help="keep only TCP flows with both SYN and FIN observed")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("select", help="rank and prune features on a labeled dataset")
    p.add_argument("dataset")
    p.add_argument("--bins", type=_number("bins", int, selection.check_bins),
                   default=selection.DEFAULT_BINS)
    p.add_argument("--delta", type=_number("delta", float, partial(check_finite, "delta")),
                   default=0.0)
    p.add_argument("--out", help="selection report JSON")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", help="fit a classifier on a labeled dataset")
    p.add_argument("dataset")
    p.add_argument("--out", required=True, help="model JSON path")
    _add_feature_args(p)
    _add_prior_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("update", help="fold new labeled flows into a model")
    p.add_argument("model")
    p.add_argument("dataset")
    p.add_argument("--out", required=True, help="updated model JSON path")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("classify", help="label a feature CSV with a trained model")
    p.add_argument("model")
    p.add_argument("dataset")
    p.add_argument("--out", required=True, help="output CSV of index,label")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sample-report", help="packet-sampling degradation report")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pcap", help="capture to analyse")
    src.add_argument("--synth", help="synthetic spec JSON to analyse")
    p.add_argument("--ratios", type=_parse_ratios, default=[128, 256, 512, 1024],
                   help="comma-separated 1:N ratios (default 1:128,1:256,1:512,1:1024)")
    p.add_argument("--trials", type=_number("trials", int, sampling.check_trials),
                   default=sampling.DEFAULT_TRIALS,
                   help=f"Monte Carlo trials, {sampling.MIN_TRIALS}..{sampling.MAX_TRIALS} "
                        f"(default {sampling.DEFAULT_TRIALS})")
    p.add_argument("--seed", type=_SEED, default=0)
    _add_timeout_args(p, "--pcap and --synth")
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    p.set_defaults(func=cmd_sample_report)

    p = sub.add_parser("synth", help="generate synthetic datasets and captures")
    p.add_argument("spec", help="synthetic spec JSON")
    p.add_argument("--out-dataset", help="write a labeled feature CSV")
    p.add_argument("--out-pcap", help="write a capture file")
    p.add_argument("--out-labels", help="write the capture's label CSV")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evaluate", help="stratified k-fold cross-validation")
    p.add_argument("dataset")
    p.add_argument("--k", type=_number("k", int, evaluation.check_folds),
                   default=evaluation.DEFAULT_FOLDS)
    p.add_argument("--seed", type=_SEED, default=0)
    _add_feature_args(p)
    p.add_argument("--report", help="evaluation report JSON")
    p.add_argument("--csv", help="one-row metrics CSV")
    _add_prior_args(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
