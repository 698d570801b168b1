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
infeasible margin. A flag a subcommand does not use is refused. Flag
values override config-file values override defaults; the config file is
JSON and its default path can be set through the BONNESEN_CONFIG
environment variable. A config-file key a subcommand does not use is
ignored, so the report records its default. ``search`` runs one alpha
and one k per entry and refuses more.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import inequality_catalog as catalog, reporting, verification
from .errors import BonnesenError, UsageError
from .polygon_core import PolygonKind

ENV_CONFIG = "BONNESEN_CONFIG"

def _int_list(minimum: int, **extra) -> dict:
    return {"type": "array", "minItems": 1,
            "items": {"type": "integer", "minimum": minimum}, **extra}


#: Every config key with its type, range and default. The merged config
#: (defaults, then config file, then flags) is checked against it.
CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "n": _int_list(3, default=list(range(3, 9))),
        "alpha": _int_list(1, default=[1, 2, 3]),
        "k": _int_list(2, default=[2, 3]),
        "kinds": {"type": "array", "minItems": 1, "default": ["tangential", "cyclic"],
                  "items": {"enum": [kind.value for kind in PolygonKind]}},
        "samples": {"type": "integer", "minimum": 1, "default": 10_000},
        "seed": {"anyOf": [{"type": "integer", "minimum": 0}, _int_list(0)], "default": 7},
        "margin": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5,
                   "default": 1e-6},
        "tolerance": {"type": "number", "exclusiveMinimum": 0, "default": 1e-10},
        "precision": {"enum": ["standard", "high"], "default": "standard"},
        "format": {"enum": ["json", "csv"], "default": "json"},
        "out": {"type": ["string", "null"], "default": None},
        "starts": {"type": "integer", "minimum": 1, "default": 20},
        "grid_resolution": {"type": "integer", "minimum": 1, "default": 100},
        "inject_fault": {"type": "boolean", "default": False},
    },
}

_DEFAULTS = {key: prop["default"] for key, prop in CONFIG_SCHEMA["properties"].items()}

#: search runs one (alpha, k) per entry, so its defaults are one value each.
_SEARCH_DEFAULTS = {"n": [3, 4, 5], "alpha": [1], "k": [2]}

#: Config keys each sweep subcommand does not use: it takes no flag for
#: them and keeps their defaults whatever the config file says.
_UNUSED = {
    "verify": ("starts", "grid_resolution"),
    "certify": ("kinds", "margin", "tolerance", "precision", "starts",
                "grid_resolution", "inject_fault"),
    "search": ("samples", "tolerance", "precision", "inject_fault"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bonnesen",
        description="Verification lab for polygon isoperimetric slack inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, unused=()):
        """The shared flags, except those named in ``unused``."""
        p.add_argument("--n", type=int, nargs="+", default=None,
                       help="polygon side counts (default 3..8; search 3 4 5)")
        p.add_argument("--alpha", type=int, nargs="+", default=None,
                       help="alpha exponents (default 1 2 3; search takes one, 1)")
        p.add_argument("--k", type=int, nargs="+", default=None,
                       help="k exponents, each >= 2 (default 2 3; search takes one, 2)")
        if "kinds" not in unused:
            p.add_argument("--kinds", nargs="+", default=None,
                           choices=["tangential", "cyclic"],
                           help="polygon kinds to sweep (default both)")
        if "samples" not in unused:
            p.add_argument("--samples", type=int, default=None,
                           help="samples per configuration (default 10000)")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 7)")
        if "margin" not in unused:
            p.add_argument("--margin", type=float, default=None,
                           help="angle clearance from the domain endpoints")
        if "tolerance" not in unused:
            p.add_argument("--tolerance", type=float, default=None,
                           help="violation tolerance, relative (default 1e-10)")
        if "precision" not in unused:
            p.add_argument("--precision", choices=["standard", "high"], default=None,
                           help="re-adjudicate violations with mpf arithmetic when high")
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument("--format", choices=["json", "csv"], default=None,
                       help="report format (default json)")
        p.add_argument("--config", default=None,
                       help=f"JSON config file (default from ${ENV_CONFIG})")

    p_verify = sub.add_parser("verify", help="sampled soundness sweep")
    add_common(p_verify, unused=_UNUSED["verify"])
    p_verify.add_argument("--inject-fault", action="store_true", default=None,
                          help="add a sign-flipped entry; validates violation "
                               "reporting and must make the run exit 1")

    p_certify = sub.add_parser("certify", help="Schur classification sweep")
    add_common(p_certify, unused=_UNUSED["certify"])

    p_search = sub.add_parser("search", help="slack minimization per entry")
    add_common(p_search, unused=_UNUSED["search"])
    p_search.add_argument("--starts", type=int, default=None,
                          help="optimizer restarts per entry (default 20)")

    p_catalog = sub.add_parser("catalog", help="list catalog entries")
    p_catalog.add_argument("--kinds", nargs="+", default=None,
                           choices=["tangential", "cyclic"])
    p_catalog.add_argument("--format", choices=["json", "text"], default=None)
    p_catalog.add_argument("--out", default=None)
    p_catalog.add_argument("--config", default=None)

    p_report = sub.add_parser("report", help="summarize or convert a saved report")
    p_report.add_argument("path", help="existing JSON report")
    p_report.add_argument("--format", choices=["json", "csv", "text"], default=None)
    p_report.add_argument("--out", default=None)
    p_report.add_argument("--config", default=None)
    return parser


def _load_config_file(path: str | None) -> dict:
    path = path or os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object")
    return data


def _resolve_config(args, extra_defaults: dict | None = None) -> dict:
    file_cfg = _load_config_file(getattr(args, "config", None))
    cfg = dict(_DEFAULTS, **(extra_defaults or {}))
    for key, default in cfg.items():
        if key in _UNUSED[args.command]:
            continue
        flag = getattr(args, key, None)
        cfg[key] = flag if flag is not None else file_cfg.get(key, default)
    _validate(cfg, CONFIG_SCHEMA)
    return cfg


def _validate(cfg: dict, schema: dict) -> None:
    """Raise UsageError naming the first key of ``cfg`` that breaks ``schema``.

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
    err = jsonschema.exceptions.best_match(strict(schema).iter_errors(cfg))
    if err is not None:
        raise UsageError(f"config key {err.absolute_path[0]!r}: {err.message}")


def _kinds(cfg) -> tuple[PolygonKind, ...]:
    return tuple(PolygonKind(k) for k in cfg["kinds"])


def _emit(doc: reporting.ReportDocument, cfg: dict, summary_lines: list[str]) -> None:
    for line in summary_lines:
        print(line)
    out = cfg.get("out")
    if out:
        if cfg.get("format") == "csv":
            reporting.write_csv(doc.results, out)
        else:
            reporting.write_json(doc, out)
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
    cfg = _resolve_config(args, extra_defaults=_SEARCH_DEFAULTS)
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
    file_cfg = _load_config_file(getattr(args, "config", None))
    kinds = getattr(args, "kinds", None) or file_cfg.get("kinds")
    fmt = getattr(args, "format", None) or file_cfg.get("format") or "text"
    if fmt not in ("json", "text"):
        raise UsageError(f"config key 'format': catalog writes json or text, got {fmt!r}")
    entries = catalog.list_entries()
    if kinds:
        _validate({"kinds": kinds}, CONFIG_SCHEMA)
        wanted = {PolygonKind(k) for k in kinds}
        entries = tuple(e for e in entries if e.kinds & wanted)
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
    } for e in entries]
    if fmt == "json":
        text = json.dumps({"schema_version": reporting.SCHEMA_VERSION,
                           "entries": rows}, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"{len(rows)} entries"]
        for r in rows:
            kinds_s = ",".join(r["kinds"])
            lines.append(f"{r['id']:<10} [{r['citation']:<8}] ({kinds_s}) {r['formula']}")
        text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_report(args) -> int:
    import jsonschema  # imported on use, as in reporting: it adds ~4 MiB

    try:
        doc = reporting.load_report(args.path)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read report {args.path!r}: {exc}") from exc
    try:
        reporting.validate_report(doc)
    except jsonschema.ValidationError as exc:
        raise UsageError(f"report {args.path!r} is not a valid "
                         f"{reporting.SCHEMA_VERSION} document: {exc.message}") from exc
    fmt = args.format or "text"
    results = doc.get("results", [])
    if fmt == "csv":
        text = reporting.render_csv(results)
    elif fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        prov = doc.get("provenance", {})
        recomputed = reporting.determinism_hash(doc)
        stored = prov.get("determinism_hash", "")
        lines = [
            f"command: {doc.get('command')}   schema: {doc.get('schema_version')}",
            f"rows: {len(results)}   seed: {prov.get('seed')}   "
            f"samples: {prov.get('samples')}",
            f"determinism hash: {stored} "
            f"({'consistent' if recomputed == stored else 'MISMATCH'})",
        ]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _public_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k not in ("format", "out")}


_COMMANDS = {
    "verify": cmd_verify,
    "certify": cmd_certify,
    "search": cmd_search,
    "catalog": cmd_catalog,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BonnesenError as exc:  # bad input; anomalies are counted, not raised
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
