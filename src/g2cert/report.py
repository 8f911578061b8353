"""Bit-stable report serialization.

Rationals are rendered as "p/q" strings (integers as plain JSON integers);
no value is ever converted to floating point.  Two runs with equal
configurations serialize to identical bytes apart from the elapsed_ms
timing fields, which golden comparisons zero out.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .suite import CheckReport, SuiteConfig

REPORT_VERSION = 1


def normalize_witnesses(value):
    """Convert witness values to their canonical JSON-ready form."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [normalize_witnesses(v) for v in value]
    if isinstance(value, dict):
        return {str(k): normalize_witnesses(v) for k, v in value.items()}
    raise TypeError(f"witness value of unsupported type {type(value).__name__}")


def summarize(reports: list["CheckReport"]) -> dict:
    return {
        "total": len(reports),
        "passed": sum(r.status == "pass" for r in reports),
        "failed": sum(r.status == "fail" for r in reports),
        "errored": sum(r.status == "error" for r in reports),
    }


def to_document(reports: list["CheckReport"], cfg: "SuiteConfig") -> dict:
    return {
        "version": REPORT_VERSION,
        "seed": cfg.seed,
        "checks": [
            {
                "id": r.id,
                "title": r.title,
                "claim": r.claim,
                "status": r.status,
                "witnesses": r.witnesses,
                "elapsed_ms": r.elapsed_ms,
            }
            for r in reports
        ],
        "summary": summarize(reports),
    }


def serialize(reports: list["CheckReport"], cfg: "SuiteConfig") -> bytes:
    doc = to_document(reports, cfg)
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode("ascii")


def render_text(reports: list["CheckReport"], cfg: "SuiteConfig") -> str:
    lines = []
    width = max((len(r.id) for r in reports), default=0)
    for r in reports:
        lines.append(f"[{r.status.upper():5s}] {r.id:<{width}}  {r.title} ({r.elapsed_ms} ms)")
        for key, value in r.witnesses.items():
            lines.append(f"         {key} = {json.dumps(value)}")
    s = summarize(reports)
    lines.append(
        f"checks: {s['total']}  passed: {s['passed']}  failed: {s['failed']}"
        f"  errored: {s['errored']}  (seed {cfg.seed})"
    )
    return "\n".join(lines) + "\n"


def exit_code(reports: list["CheckReport"]) -> int:
    """0 iff every executed check passes, 1 otherwise."""
    return 0 if all(r.status == "pass" for r in reports) else 1
