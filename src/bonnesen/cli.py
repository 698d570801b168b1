"""Command-line front end.

Subcommands::

    verify    sampled soundness sweep of the inequality catalog
    certify   Schur classification of the proof-side gap functions
    search    slack minimization per entry, with grid cross-checks
    catalog   list the catalog entries
    report    summarize or convert a saved JSON report

Exit codes: 0 when every check passes, 1 on a mathematical anomaly
(violation, classification mismatch, misplaced minimum), 2 on usage or
config errors and on any error raised for the inputs given, such as an
infeasible margin, an unreadable config or report file, or an output
path that cannot be written.

Every subcommand resolves its config the same way: flag values override
config-file values override defaults. The config file is JSON and its
default path can be set through the BONNESEN_CONFIG environment
variable. ``_SUBCOMMANDS`` lists the keys each subcommand reads and the
formats it writes; each reads ``format`` and ``out`` too, writing to
``out`` or, for ``catalog`` and ``report``, to stdout when it is unset.
A subcommand takes a flag for each key it reads and refuses the others.
A config-file key it does not read is ignored, so the report records its
default; so is a config-file ``format`` only another subcommand writes,
so one config file serves all five. ``search`` runs one alpha and one k
per entry and refuses more.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from . import inequality_catalog as catalog, reporting, verification
from .errors import BonnesenError, UsageError
from .extremal_search import MAX_STARTS
from .polygon_core import DEFAULT_MARGIN, PolygonKind
from .records import VIOLATION_RTOL

ENV_CONFIG = "BONNESEN_CONFIG"

def _int_list(minimum: int, **extra) -> dict:
    return {"type": "array", "minItems": 1,
            "items": {"type": "integer", "minimum": minimum}, **extra}


#: Every config key but ``format`` with its type, range and default. The
#: merged config (defaults, then config file, then flags) is checked
#: against it; the formats a subcommand writes are in ``_SUBCOMMANDS``.
#: A repeated n, alpha, k or kind would repeat rows; a seed list may repeat.
CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "n": _int_list(3, uniqueItems=True, default=list(range(3, 9))),
        "alpha": _int_list(1, uniqueItems=True, default=[1, 2, 3]),
        "k": _int_list(2, uniqueItems=True, default=[2, 3]),
        "kinds": {"type": "array", "minItems": 1, "uniqueItems": True,
                  "default": ["tangential", "cyclic"],
                  "items": {"enum": [kind.value for kind in PolygonKind]}},
        "samples": {"type": "integer", "minimum": 1, "default": 10_000},
        "seed": {"anyOf": [{"type": "integer", "minimum": 0}, _int_list(0)], "default": 7},
        "margin": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5,
                   "default": DEFAULT_MARGIN},
        "tolerance": {"type": "number", "exclusiveMinimum": 0, "default": VIOLATION_RTOL},
        "precision": {"enum": ["standard", "high"], "default": "standard"},
        "out": {"type": ["string", "null"], "default": None},
        "starts": {"type": "integer", "minimum": 1, "maximum": MAX_STARTS, "default": 20},
        "grid_resolution": {"type": "integer", "minimum": 1, "default": 100},
        "inject_fault": {"type": "boolean", "default": False},
    },
}

_DEFAULTS = {key: prop["default"] for key, prop in CONFIG_SCHEMA["properties"].items()}

#: The flag of each config key that has one, as (help, add_argument options).
#: ``grid_resolution`` has none: search reads it from a config file only.
_FLAGS = {
    "n": ("polygon side counts", {"type": int, "nargs": "+"}),
    "alpha": ("alpha exponents", {"type": int, "nargs": "+"}),
    "k": ("k exponents, each >= 2", {"type": int, "nargs": "+"}),
    "kinds": ("polygon kinds", {"nargs": "+", "choices": [kind.value for kind in PolygonKind]}),
    "samples": ("samples per configuration", {"type": int}),
    "seed": ("RNG seed", {"type": int}),
    "margin": ("angle clearance from the domain endpoints", {"type": float}),
    "tolerance": ("violation tolerance, relative", {"type": float}),
    "precision": ("re-adjudicate violations with mpf arithmetic when high",
                  {"choices": ["standard", "high"]}),
    "inject_fault": ("add a sign-flipped entry; validates violation reporting "
                     "and must make the run exit 1", {"action": "store_true"}),
    "starts": ("optimizer restarts per entry", {"type": int}),
}


class _Subcommand(NamedTuple):
    """One subcommand: what runs it, the config keys it reads besides
    ``format`` and ``out``, the formats it writes (the first is its
    default) and the defaults it sets apart from CONFIG_SCHEMA's."""

    run: Callable[[argparse.Namespace], int]
    help: str
    keys: tuple[str, ...]
    formats: tuple[str, ...]
    defaults: dict = {}

    def config_defaults(self) -> dict:
        return dict(_DEFAULTS, format=self.formats[0], **self.defaults)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per ``_SUBCOMMANDS`` entry, with a flag for each key it reads."""
    parser = argparse.ArgumentParser(
        prog="bonnesen",
        description="Verification lab for polygon isoperimetric slack inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name == "report":
            p.add_argument("path", help="existing JSON report")
        defaults = command.config_defaults()
        for key in command.keys:
            if key in _FLAGS:
                text, options = _FLAGS[key]
                p.add_argument("--" + key.replace("_", "-"), default=None,
                               help=f"{text} (default {defaults[key]})", **options)
        p.add_argument("--format", choices=command.formats, default=None,
                       help=f"output format (default {command.formats[0]})")
        p.add_argument("--out", default=None, help="output file")
        p.add_argument("--config", default=None,
                       help=f"JSON config file (default from ${ENV_CONFIG})")
    return parser


def _load_config_file(path: str | None) -> dict:
    path = path or os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object")
    return data


def _resolve_config(args) -> dict:
    """Defaults, then the config file, then flags, for the keys the subcommand reads."""
    command = _SUBCOMMANDS[args.command]
    file_cfg = _load_config_file(args.config)
    cfg = command.config_defaults()
    for key in (*command.keys, "format", "out"):
        flag = getattr(args, key, None)
        cfg[key] = flag if flag is not None else file_cfg.get(key, cfg[key])
    if cfg["format"] not in command.formats:  # from the file: flags take only these
        if not any(cfg["format"] in other.formats for other in _SUBCOMMANDS.values()):
            raise UsageError(f"config key 'format': no subcommand writes {cfg['format']!r}")
        cfg["format"] = command.formats[0]
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    """Raise UsageError naming the first key of ``cfg`` that breaks CONFIG_SCHEMA.

    JSON Schema's integer also admits 1000.0 and its number NaN; a config
    takes neither, so integers must be ints and numbers finite.
    """
    import jsonschema  # imported on use, as in reporting: it adds ~4 MiB

    base = jsonschema.Draft202012Validator
    strict = jsonschema.validators.extend(base, type_checker=base.TYPE_CHECKER.redefine_many({
        "integer": lambda _, x: isinstance(x, int) and not isinstance(x, bool),
        "number": lambda _, x: (isinstance(x, (int, float)) and not isinstance(x, bool)
                                and math.isfinite(x)),
    }))
    err = jsonschema.exceptions.best_match(strict(CONFIG_SCHEMA).iter_errors(cfg))
    if err is not None:
        raise UsageError(f"config key {err.absolute_path[0]!r}: {err.message}")


def _kinds(cfg) -> tuple[PolygonKind, ...]:
    return tuple(PolygonKind(k) for k in cfg["kinds"])


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out!r}: {exc}") from exc


def _emit(doc: reporting.ReportDocument, cfg: dict, summary_lines: list[str]) -> None:
    for line in summary_lines:
        print(line)
    out = cfg["out"]
    if out:
        _write(reporting.render_csv(doc.results) if cfg["format"] == "csv"
               else reporting.render_json(doc), out)
        print(f"report written to {out}")
    print(f"determinism hash: {doc.determinism_hash}")


def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    extra = ()
    if cfg.get("inject_fault"):
        extra = (catalog.sign_flipped("BASIC", "FAULT-BASIC"),)
    rows, violations = verification.verify_sweep(
        kinds=_kinds(cfg),
        n_set=cfg["n"],
        alpha_set=cfg["alpha"],
        k_set=cfg["k"],
        samples=cfg["samples"],
        seed=cfg["seed"],
        margin=cfg["margin"],
        tolerance_rtol=cfg["tolerance"],
        extra_entries=extra,
        high_precision=cfg["precision"] == "high",
    )
    doc = reporting.ReportDocument(
        command="verify", config=_public_config(cfg), results=rows,
        seed=cfg["seed"], samples=cfg["samples"], precision_mode=cfg["precision"],
    )
    worst = min(rows, key=lambda r: r["min_slack"])
    _emit(doc, cfg, [
        f"verify: {len(rows)} sweep cells, {violations} violation(s)",
        f"worst min slack {worst['min_slack']:.3e} "
        f"({worst['entry_id']}, kind={worst['kind']}, n={worst['n']})",
    ])
    return 1 if violations else 0


def cmd_certify(args) -> int:
    cfg = _resolve_config(args)
    rows, mismatches = verification.certification_grid(
        n_set=cfg["n"],
        alpha_set=cfg["alpha"],
        k_set=cfg["k"],
        samples=cfg["samples"],
        seed=cfg["seed"],
    )
    doc = reporting.ReportDocument(
        command="certify", config=_public_config(cfg), results=rows,
        seed=cfg["seed"], samples=cfg["samples"], precision_mode="standard",
    )
    _emit(doc, cfg, [
        f"certify: {len(rows)} classifications, {mismatches} mismatch(es)",
    ])
    return 1 if mismatches else 0


def cmd_search(args) -> int:
    cfg = _resolve_config(args)
    for key in ("alpha", "k"):
        if len(cfg[key]) != 1:
            raise UsageError(f"config key {key!r}: search runs one value, got {cfg[key]}")
    (alpha,), (k,) = cfg["alpha"], cfg["k"]
    rows, anomalies = verification.search_sweep(
        n_set=cfg["n"],
        alpha=alpha,
        k=k,
        seed=cfg["seed"],
        starts=cfg["starts"],
        kinds=_kinds(cfg),
        grid_resolution=cfg["grid_resolution"],
        margin=cfg["margin"],
    )
    doc = reporting.ReportDocument(
        command="search", config=_public_config(cfg), results=rows,
        seed=cfg["seed"], samples=None, precision_mode="standard",
    )
    worst = max(rows, key=lambda r: abs(r["best_slack"]))
    _emit(doc, cfg, [
        f"search: {len(rows)} entry minimizations, {anomalies} anomaly(ies)",
        f"largest |best slack| {worst['best_slack']:.3e} ({worst['entry_id']})",
    ])
    return 1 if anomalies else 0


def cmd_catalog(args) -> int:
    cfg = _resolve_config(args)
    wanted = set(_kinds(cfg))
    rows = [{
        "id": e.id,
        "citation": e.citation,
        "kinds": sorted(k.value for k in e.kinds),
        "direction": e.direction.value,
        "formula": e.formula,
        "uses_alpha": e.params.uses_alpha,
        "alpha_fixed": e.params.alpha_fixed,
        "uses_k": e.params.uses_k,
        "k_fixed": e.params.k_fixed,
    } for e in catalog.list_entries() if e.kinds & wanted]
    if cfg["format"] == "json":
        text = json.dumps({"schema_version": reporting.SCHEMA_VERSION,
                           "entries": rows}, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"{len(rows)} entries"]
        for r in rows:
            kinds_s = ",".join(r["kinds"])
            lines.append(f"{r['id']:<10} [{r['citation']:<8}] ({kinds_s}) {r['formula']}")
        text = "\n".join(lines) + "\n"
    _write(text, cfg["out"])
    return 0


def cmd_report(args) -> int:
    import jsonschema  # imported on use, as in reporting: it adds ~4 MiB

    cfg = _resolve_config(args)
    if cfg["out"] and os.path.realpath(cfg["out"]) == os.path.realpath(args.path):
        raise UsageError(f"output {cfg['out']!r} would overwrite the report it reads")
    try:
        doc = reporting.load_report(args.path)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise UsageError(f"cannot read report {args.path!r}: {exc}") from exc
    try:
        reporting.validate_report(doc)
    except jsonschema.ValidationError as exc:
        raise UsageError(f"report {args.path!r} is not a valid "
                         f"{reporting.SCHEMA_VERSION} document: {exc.message}") from exc
    results = doc["results"]
    if cfg["format"] == "csv":
        text = reporting.render_csv(results)
    elif cfg["format"] == "json":
        text = reporting.render_json(doc)
    else:
        prov = doc["provenance"]
        recomputed = reporting.determinism_hash(doc)
        stored = prov["determinism_hash"]
        lines = [
            f"command: {doc['command']}   schema: {doc['schema_version']}",
            f"rows: {len(results)}   seed: {prov['seed']}   "
            f"samples: {prov['samples']}",
            f"determinism hash: {stored} "
            f"({'consistent' if recomputed == stored else 'MISMATCH'})",
        ]
        text = "\n".join(lines) + "\n"
    _write(text, cfg["out"])
    return 0


def _public_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k not in ("format", "out")}


_SUBCOMMANDS = {
    "verify": _Subcommand(
        cmd_verify, "sampled soundness sweep",
        ("n", "alpha", "k", "kinds", "samples", "seed", "margin", "tolerance",
         "precision", "inject_fault"), ("json", "csv")),
    "certify": _Subcommand(
        cmd_certify, "Schur classification sweep",
        ("n", "alpha", "k", "samples", "seed"), ("json", "csv")),
    # search runs one (alpha, k) per entry, so its defaults are one value each.
    "search": _Subcommand(
        cmd_search, "slack minimization per entry",
        ("n", "alpha", "k", "kinds", "seed", "margin", "starts", "grid_resolution"),
        ("json", "csv"), {"n": [3, 4, 5], "alpha": [1], "k": [2]}),
    "catalog": _Subcommand(cmd_catalog, "list catalog entries", ("kinds",), ("text", "json")),
    "report": _Subcommand(cmd_report, "summarize or convert a saved report", (),
                          ("text", "json", "csv")),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return _SUBCOMMANDS[args.command].run(args)
    except BonnesenError as exc:  # bad input; anomalies are counted, not raised
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
