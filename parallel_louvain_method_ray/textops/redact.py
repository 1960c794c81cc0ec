"""Pattern redaction (PII scrubbing) — the compliance pass every
web-scale training corpus runs before anything else: find spans matching
a rule list (emails, phone numbers, IP addresses, ...), replace them with
placeholder tokens, and count what was removed per document so the
redaction rate is auditable downstream.

Hot-path discipline: the whole stage is Arrow C++ — one
`pyarrow.compute.count_substring_regex` + one
`pyarrow.compute.replace_substring_regex` kernel pair per rule per batch
(both RE2, leftmost-longest-free non-overlapping semantics identical to
DuckDB's `regexp_extract_all` / `regexp_replace(..., 'g')`). No Python
touches a row; at 100 TB this runs at regex-engine speed on zero-copy
string buffers inside `map_batches`.

Rules apply IN ORDER and each rule's count is taken on the text as left
by the previous rule (so an email's digits can never double-count as a
phone). The SQL oracle mirrors this with a CTE chain of the same
patterns in the same order.

Reference parity: /root/reference has no text surface; this extends the
training-data operator family (SURVEY §2.5) alongside
textops/analysis.py.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

# Default PII rule set — RE2-compatible (no lookaround), shared verbatim
# with the SQL oracles. Order matters: emails first (their local parts /
# domains contain digits and dots that the IP / phone rules would
# otherwise nibble at).
PII_RULES: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\b555-\d{4}\b", "<PHONE>"),
]


def redact_batch(
    s: pa.ChunkedArray | pa.Array,
    rules: list[tuple[str, str, str]],
) -> tuple[pa.ChunkedArray | pa.Array, dict[str, pa.ChunkedArray | pa.Array]]:
    """Apply `rules` (name, RE2 pattern, replacement) in order to a string
    array; return (redacted, {name: per-row int64 match count})."""
    counts: dict[str, pa.ChunkedArray | pa.Array] = {}
    for name, pat, repl in rules:
        counts[name] = pc.cast(
            pc.count_substring_regex(s, pattern=pat), pa.int64()
        )
        s = pc.replace_substring_regex(s, pattern=pat, replacement=repl)
    return s, counts


def redact_patterns(
    ds: ray.data.Dataset,
    col: str,
    rules: list[tuple[str, str, str]] | None = None,
) -> ray.data.Dataset:
    """Replace `col` with its redacted form and add one `n_<rule>` count
    column per rule. Streaming, stateless, zero shuffles."""
    rules = PII_RULES if rules is None else rules

    def scrub(batch: pa.Table) -> pa.Table:
        red, counts = redact_batch(batch.column(col), rules)
        out = batch.set_column(batch.schema.get_field_index(col), col, red)
        for name, cnt in counts.items():
            out = out.append_column(f"n_{name}", cnt)
        return out

    return ds.map_batches(scrub, batch_format="pyarrow")
