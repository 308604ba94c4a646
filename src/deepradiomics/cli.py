"""`radiomics` command-line interface.

Subcommands mirror the pipeline stages: extract -> classify -> survive,
plus inspect for per-map histograms and gen-weights for deterministic
test weights.  Exit codes: 0 success, 2 partial per-patient failures
during extract, 1 fatal error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .cnn import generate_test_weights, save_weights
from .errors import RadiomicsError
from .manifest import MODALITY_COLUMNS, TARGETS, load_config, load_manifest
from .pipeline import cmd_classify, cmd_extract, cmd_inspect, cmd_survive


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for partial per-patient failures; usage
    # errors are fatal and exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radiomics",
        description="Deep radiomic features from 3D CNN activation maps: "
        "extraction, classification and survival analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", required=True, help="cohort manifest CSV")
    common.add_argument("--config", help="run configuration JSON")
    common.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("extract", parents=[common], help="compute the per-patient feature matrix")
    p.add_argument("--weights", required=True, help="network weights file")

    p = sub.add_parser("classify", parents=[common], help="LOOCV random-forest classification")
    p.add_argument("--features", required=True, help="features.csv from extract")
    p.add_argument("--target", required=True, choices=TARGETS)

    p = sub.add_parser("survive", parents=[common], help="KM / log-rank analysis of predicted groups")
    p.add_argument("--features", required=True)

    p = sub.add_parser("inspect", parents=[common], help="histogram + GMM overlay for one map")
    p.add_argument("--weights", required=True)
    p.add_argument("--patient", required=True)
    p.add_argument("--map", type=int, required=True, dest="map_index")
    p.add_argument("--modality", default="t1ce", choices=MODALITY_COLUMNS)

    p = sub.add_parser("gen-weights", help="write deterministic test weights")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output weights file path")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-weights":
            save_weights(generate_test_weights(args.seed), args.out)
            print(f"wrote weights (seed {args.seed}) -> {args.out}")
            return 0

        records = load_manifest(args.manifest)
        config = load_config(args.config)
        if args.command == "extract":
            result = cmd_extract(records, args.weights, config, args.out)
            print(f"extracted {result.n_ok}/{len(records)} patients -> {result.features_path}")
            for pid, reason in result.failures:
                print(f"  failed {pid}: {reason}", file=sys.stderr)
            return 2 if result.failures else 0

        if args.command == "classify":
            reports = cmd_classify(args.features, records, args.target, config, args.out)
            for fs, report in reports.items():
                print(f"{args.target} [{fs}]: AUC={report.auc:.4f} accuracy={report.accuracy:.4f}")
            return 0

        if args.command == "survive":
            table = cmd_survive(args.features, records, config, args.out)
            for row in table:
                p = "n/a" if row.p_value is None else f"{row.p_value:.3e}"
                print(f"[{row.feature_set}] p={p} AUC={row.auc:.4f}")
            return 0

        # inspect, the one command left
        svg, pgm = cmd_inspect(
            records,
            args.patient,
            args.map_index,
            args.weights,
            config,
            args.out,
            modality=args.modality,
        )
        print(f"wrote {svg} and {pgm}")
        return 0
    except RadiomicsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
