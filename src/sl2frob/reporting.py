"""Small helpers for machine-readable check reports shared by all pipelines."""

from __future__ import annotations


def check(name: str, ok: bool, **details) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


def report(command: str, params: dict, checks: list[dict],
           tables: list | None = None, conventions: dict | None = None) -> dict:
    """A report; one that checked nothing carries a failing `has_checks` check."""
    if not checks:
        checks = [check("has_checks", False)]
    return {
        "command": command,
        "params": params,
        "conventions": conventions or {},
        "checks": checks,
        "tables": tables or [],
        "failures": sum(1 for c in checks if c["status"] != "pass"),
    }


def merge_reports(command: str, params: dict, reports: list[dict]) -> dict:
    checks = []
    tables = []
    for r in reports:
        prefix = r["command"]
        for c in r["checks"]:
            checks.append({**c, "name": f"{prefix}:{c['name']}"})
        tables.extend(r.get("tables", []))
    return report(command, params, checks, tables)
