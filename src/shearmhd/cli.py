"""Command-line entry point: run / validate / audit.

Exit codes: 0 success, 1 configuration error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dynamics import NumericalAbort
from .experiments import ConfigError, ExperimentConfig, run


def _load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shearmhd",
        description="Pseudo-spectral experiments for 2D MHD around Couette "
                    "flow and a constant magnetic field")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override initial.seed")
    p_run.add_argument("--snapshots", type=int, default=None,
                       help="write a field snapshot every K samples")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)

    p_aud = sub.add_parser("audit", help="run the weight-lemma audit")
    p_aud.add_argument("--config", default=None,
                       help="optional config for parameter overrides")
    p_aud.add_argument("--out", default="out")
    p_aud.add_argument("--eta-max", type=float, default=None)
    p_aud.add_argument("--samples", type=int, default=None,
                       help="eta sample density")
    p_aud.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            _load_config(args.config)
            print("config ok")
            return 0
        if args.command == "run":
            config = _load_config(args.config)
            if args.seed is not None:
                if not config.reads("initial", "seed"):
                    raise ConfigError(f"--seed: {config.experiment} with initial.kind = "
                                      f"{config.initial['kind']!r} reads no initial.seed")
                config.initial["seed"] = args.seed
            if args.snapshots is not None:
                config.output["snapshots"] = args.snapshots
            payload = run(config, args.out)
            print(json.dumps(payload["summary"], indent=2, sort_keys=True,
                             default=str))
            return 0
        # audit: the file's params and audit sections, whatever its experiment
        base = _load_config(args.config) if args.config else ExperimentConfig()
        flags = {"eta_max": args.eta_max, "n_eta": args.samples, "seed": args.seed}
        config = ExperimentConfig("weights_audit", params=base.params, audit={
            **base.audit, **{k: v for k, v in flags.items() if v is not None}})
        payload = run(config, args.out)
        failures = payload["summary"].get("hard_failures", [])
        print(json.dumps(payload["summary"], indent=2, sort_keys=True))
        return 0 if not failures else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
