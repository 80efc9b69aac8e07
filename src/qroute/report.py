"""Machine-readable reports with byte-stable output.

JSON is canonical: keys sorted, floats fixed at 12 significant digits, so
re-running a command with the same scenario and seed reproduces reports
byte for byte. CSV tables use the same float formatting.
"""

from __future__ import annotations

# what json.dumps runs for a str under its defaults, without its dispatch
from json.encoder import encode_basestring_ascii
from pathlib import Path


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x} cannot go into a report")
    if x == 0:
        return "0"
    return format(x, ".12g")


def _write_value(value, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(value, key=str)
        for i, k in enumerate(keys):
            out.append(f"{pad}  {encode_basestring_ascii(str(k))}: ")
            _write_value(value[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _write_value(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def canonical_json(value) -> str:
    out: list[str] = []
    _write_value(value, out, 0)
    out.append("\n")
    return "".join(out)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def emit_report(
    report: dict,
    fmt: str,
    out_dir: str | Path,
    basename: str,
    tables: dict[str, tuple[list[str], list[list]]],
) -> list[Path]:
    """Write the report; returns the produced file paths.

    `json` writes a single canonical JSON document. `csv` writes one file
    per table plus the JSON document (the config echo has no tabular form).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # OSError here is a runtime failure
    written: list[Path] = []
    json_path = out_dir / f"{basename}_report.json"
    json_path.write_text(canonical_json(report))
    written.append(json_path)
    if fmt == "csv":
        for name, (header, rows) in sorted(tables.items()):
            csv_path = out_dir / f"{basename}_{name}.csv"
            write_csv(csv_path, header, rows)
            written.append(csv_path)
    return written
