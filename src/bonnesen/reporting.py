"""Machine-readable run reports: JSON schema, CSV table, determinism hash.

Reports are reproducible: with identical config and seed two runs produce
byte-identical JSON except for the timestamp, which is excluded from the
determinism hash recorded in the provenance block.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .errors import NonFiniteValue

SCHEMA_VERSION = "bonnesen-report/1"

#: Fixed CSV column order for slack-record tables.
CSV_COLUMNS = ["entry_id", "n", "R", "alpha", "k", "lhs", "rhs", "slack", "equality"]

#: Published schema every report document must satisfy.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": SCHEMA_VERSION,
    "type": "object",
    "required": ["schema_version", "command", "config", "results", "provenance"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["verify", "certify", "search"]},
        "config": {"type": "object"},
        "results": {"type": "array", "items": {"type": "object"}},
        "provenance": {
            "type": "object",
            "required": ["seed", "samples", "precision_mode", "timestamp",
                         "determinism_hash"],
            "properties": {
                "samples": {"type": ["integer", "null"]},
                "precision_mode": {"enum": ["standard", "high"]},
                "timestamp": {"type": "string"},
                "determinism_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
            },
        },
    },
}


def validate_report(doc: dict) -> None:
    """Raise jsonschema.ValidationError when ``doc`` breaks the contract.

    The error is the one ``jsonschema.validate`` raises, without its
    check of the constant schema against the metaschema on every call.
    """
    import jsonschema

    error = jsonschema.exceptions.best_match(_report_validator().iter_errors(doc))
    if error is not None:
        raise error


@functools.cache
def _report_validator():
    """The validator of REPORT_SCHEMA, built on first use."""
    import jsonschema  # imported on use: it adds ~4 MiB

    return jsonschema.Draft202012Validator(REPORT_SCHEMA)


@dataclass
class ReportDocument:
    command: str
    config: dict
    results: list
    seed: object
    samples: int | None
    precision_mode: str
    schema_version: str = field(default=SCHEMA_VERSION, init=False)
    timestamp: str = field(init=False,
                           default_factory=lambda: datetime.now(timezone.utc).isoformat())
    determinism_hash: str = field(default="", init=False)

    def __post_init__(self):
        self.determinism_hash = determinism_hash(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "provenance": {
                "seed": self.seed,
                "samples": self.samples,
                "precision_mode": self.precision_mode,
                "timestamp": self.timestamp,
                "determinism_hash": self.determinism_hash,
            },
        }


def determinism_hash(doc: dict) -> str:
    """SHA-256 of the canonical JSON with timestamp and hash fields removed.

    Only the top level and the provenance block are copied, to leave the
    two fields out; the rest is serialized as it stands, in one pass.
    """
    stripped = dict(doc)
    if isinstance(stripped.get("provenance"), dict):
        stripped["provenance"] = {key: value for key, value in stripped["provenance"].items()
                                  if key not in ("timestamp", "determinism_hash")}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def render_json(doc: ReportDocument | dict) -> str:
    """The report, built or loaded, as compact JSON, which json's C encoder
    writes (an indent turns it off); NaN and Infinity are refused."""
    if isinstance(doc, ReportDocument):
        doc = doc.to_dict()
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteValue(f"report not written: {exc}") from exc


def write_json(doc: ReportDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(doc))


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def record_rows(results: list) -> list[dict]:
    """Flatten sweep rows into fixed-column CSV dicts.

    Verify rows report their argmin record, search rows their best slack,
    certify rows their worst condition value (with the verdict match in
    the equality column).
    """
    out = []
    for row in results:
        if "verdict" in row:
            label = f"{row.get('function', '')}[{row.get('family', '')}]"
            rec = {"slack": row.get("worst_value", ""),
                   "equality": row.get("matches", "")}
        else:
            label = row.get("entry_id", "")
            rec = dict(row.get("argmin", row))
            rec.setdefault("slack", row.get("best_slack", ""))
        out.append({
            "entry_id": label,
            "n": row.get("n", ""),
            "R": row.get("R", ""),
            "alpha": "" if row.get("alpha") is None else row.get("alpha"),
            "k": "" if row.get("k") is None else row.get("k"),
            "lhs": rec.get("lhs", ""),
            "rhs": rec.get("rhs", ""),
            "slack": rec.get("slack", ""),
            "equality": rec.get("equality", ""),
        })
    return out


def render_csv(results: list) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in record_rows(results):
        writer.writerow(row)
    return buf.getvalue()
