"""Sweep reports: the text table's CSV and self-contained-HTML siblings.

Verdict rows are the unit of truth here, not the in-memory
:class:`~repro.experiments.scenario.SweepResult` that produced them. A
sweep flattens into

* :func:`sweep_rows` — one plain-dict row per scenario × detector (built
  from :meth:`~repro.detection.protocol.Verdict.as_dict`, so serialized
  verdicts agree with the text output by construction);
* :func:`summary_stats` — the sweep's headline numbers as one plain dict.

Both are JSON/SQL-safe by construction: the service layer
(:mod:`repro.service`) persists exactly these shapes in its SQLite job
store and the renderers below consume them back *without* needing the
original ``SweepResult`` — a report can be rendered from rows fetched out
of a store just as well as from a sweep that finished a second ago:

* :func:`render_csv_rows` / :func:`render_csv` — RFC-4180 CSV via
  :mod:`csv` (rows-first core, ``SweepResult`` convenience wrapper);
* :func:`render_html_rows` / :func:`render_html` — one self-contained
  HTML file (inline CSS, no external assets) with the per-scenario verdict
  table and the summary statistics: attacks detected, false positives,
  cache hits/misses, sessions simulated, wall clock;
* :func:`write_reports` — write either/both next to the text artifact.

Because the CSV serializer is shared, a verdict CSV fetched from the
service's store is byte-identical to the one ``repro sweep --csv`` writes
for the same grid — the invariant ``make smoke-service`` pins in CI.
"""

from __future__ import annotations

import csv
import html
import io
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.experiments.scenario import ScenarioOutcome, SweepResult

CSV_COLUMNS = (
    "scenario",
    "part",
    "attack",
    "kind",
    "detector",
    "verdict",
    "score",
    "detail",
    "outcome",
    "suspect_status",
    "duration_s",
)
"""The row schema shared by the CSV/HTML renderers and the service job store."""


def _outcome_class(outcome: ScenarioOutcome) -> str:
    """Scenario-level disposition: ok / detected / missed / false-positive / failed."""
    if outcome.failed:
        return "failed"
    if outcome.scenario.is_attack:
        return "detected" if outcome.detected else "missed"
    return "false-positive" if outcome.detected else "ok"


def sweep_rows(result: SweepResult) -> List[Dict[str, Any]]:
    """Flatten a sweep to one row per scenario × detector."""
    rows: List[Dict[str, Any]] = []
    for outcome in result.outcomes:
        disposition = _outcome_class(outcome)
        for verdict in outcome.verdicts.values():
            flat = verdict.as_dict()
            rows.append(
                {
                    "scenario": outcome.scenario.name,
                    "part": outcome.scenario.part,
                    "attack": outcome.scenario.attack or "",
                    "kind": "attack" if outcome.scenario.is_attack else "clean",
                    "detector": flat["detector"],
                    "verdict": "TROJAN" if flat["trojan_likely"] else "clean",
                    "score": flat["score"],
                    "detail": flat["detail"],
                    "outcome": disposition,
                    "suspect_status": outcome.suspect.status.value,
                    "duration_s": round(outcome.suspect.duration_s, 3),
                }
            )
    return rows


def summary_stats(result: SweepResult) -> Dict[str, Any]:
    """The sweep's headline numbers (shared by HTML, benchmarks, job store)."""
    return {
        "grid": result.grid,
        "scenarios": len(result.outcomes),
        "attacks": len(result.attack_outcomes),
        "attacks_detected": result.attacks_detected,
        "clean": len(result.clean_outcomes),
        "false_positives": result.false_positives,
        "ok": result.ok,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "cache_disk_hits": result.cache_disk_hits,
        "sessions_total": result.sessions_total,
        "sessions_simulated": result.sessions_simulated,
        "sessions_failed": result.sessions_failed,
        "wall_clock_s": round(result.wall_clock_s, 2),
        "hosts": len(result.host_stats),
        "requeues": result.requeues,
        "payload_bytes": result.payload_bytes,
    }


def render_csv_rows(rows: Sequence[Mapping[str, Any]]) -> str:
    """Verdict rows as CSV — the serializer both the CLI and service share.

    Rows may come straight from :func:`sweep_rows` or back out of the
    service's SQLite store; extra keys are ignored so store rows can carry
    bookkeeping columns without perturbing the bytes.
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=CSV_COLUMNS, lineterminator="\n", extrasaction="ignore"
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def render_csv(result: SweepResult) -> str:
    """The sweep as CSV, one row per scenario × detector."""
    return render_csv_rows(sweep_rows(result))


_HTML_STYLE = """
body { font-family: -apple-system, "Segoe UI", Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a202c; }
h1 { font-size: 1.4rem; }
.stats { display: flex; flex-wrap: wrap; gap: 0.75rem; margin: 1rem 0; }
.stat { border: 1px solid #cbd5e0; border-radius: 6px; padding: 0.5rem 0.9rem; }
.stat b { display: block; font-size: 1.15rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { border: 1px solid #cbd5e0; padding: 0.35rem 0.55rem; text-align: left; }
th { background: #edf2f7; }
tr.missed td, tr.false-positive td { background: #fed7d7; }
tr.failed td { background: #feebc8; }
tr.detected td.verdict { color: #276749; font-weight: 600; }
tr.missed td.verdict, tr.false-positive td.verdict { color: #9b2c2c; font-weight: 700; }
.badge-ok { color: #276749; } .badge-bad { color: #9b2c2c; }
h2 { font-size: 1.1rem; margin-top: 1.5rem; }
"""


def render_html_rows(
    rows: Sequence[Mapping[str, Any]],
    stats: Mapping[str, Any],
    host_stats: Sequence[Mapping[str, Any]] = (),
    title: Optional[str] = None,
) -> str:
    """Verdict rows + stats as one self-contained HTML page.

    The rows-first core of :func:`render_html`: everything it consumes is
    plain JSON-safe dicts, so the service renders job reports directly from
    its store without rebuilding a ``SweepResult``.
    """
    title = title or (
        f"repro sweep — grid {stats['grid']!r}" if stats.get("grid") else "repro sweep"
    )
    badge = (
        '<span class="badge-ok">all attacks caught, no false positives</span>'
        if stats["ok"]
        else '<span class="badge-bad">detection gap or false positive</span>'
    )
    tiles = [
        ("scenarios", stats["scenarios"]),
        ("attacks detected", f"{stats['attacks_detected']}/{stats['attacks']}"),
        ("false positives", stats["false_positives"]),
        ("cache hits / misses", f"{stats['cache_hits']} / {stats['cache_misses']}"),
        ("served from disk", stats["cache_disk_hits"]),
        (
            "sessions simulated",
            f"{stats['sessions_simulated']}/{stats['sessions_total']}",
        ),
        ("sessions failed", stats["sessions_failed"]),
        ("wall clock", f"{stats['wall_clock_s']:.1f}s"),
    ]
    if stats["hosts"]:
        tiles.append(("worker hosts", stats["hosts"]))
    if stats["requeues"]:
        tiles.append(("shards re-queued", stats["requeues"]))
    if stats["payload_bytes"]:
        tiles.append(("done/ payload", f"{stats['payload_bytes']} B"))
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)} &mdash; {badge}</h1>",
        '<div class="stats">',
    ]
    for label, value in tiles:
        parts.append(
            f'<div class="stat"><b>{html.escape(str(value))}</b>'
            f"{html.escape(label)}</div>"
        )
    parts.append("</div><table><thead><tr>")
    for column in CSV_COLUMNS:
        parts.append(f"<th>{html.escape(column)}</th>")
    parts.append("</tr></thead><tbody>")
    for row in rows:
        parts.append(f'<tr class="{row["outcome"]}">')
        for column in CSV_COLUMNS:
            css = ' class="verdict"' if column == "verdict" else ""
            parts.append(f"<td{css}>{html.escape(str(row[column]))}</td>")
        parts.append("</tr>")
    parts.append("</tbody></table>")
    if host_stats:
        parts.append("<h2>Per-host economics</h2><table><thead><tr>")
        for column in ("worker", "shards", "sessions", "failures", "wall clock"):
            parts.append(f"<th>{html.escape(column)}</th>")
        parts.append("</tr></thead><tbody>")
        for host in host_stats:
            parts.append("<tr>")
            for value in (
                host["worker"],
                host["shards"],
                host["sessions"],
                host["failures"],
                f"{host['wall_clock_s']:.1f}s",
            ):
                parts.append(f"<td>{html.escape(str(value))}</td>")
            parts.append("</tr>")
        parts.append("</tbody></table>")
    parts.append("</body></html>")
    return "\n".join(parts)


def render_html(result: SweepResult, title: Optional[str] = None) -> str:
    """The sweep as one self-contained HTML page (inline CSS, no assets)."""
    return render_html_rows(
        sweep_rows(result), summary_stats(result), result.host_stats, title
    )


def write_reports(
    result: SweepResult,
    csv_path: Optional[str] = None,
    html_path: Optional[str] = None,
) -> List[str]:
    """Write the requested report files; returns the paths written."""
    written: List[str] = []
    for path, renderer in ((csv_path, render_csv), (html_path, render_html)):
        if not path:
            continue
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(renderer(result))
        written.append(path)
    return written
