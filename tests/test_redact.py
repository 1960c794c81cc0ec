"""Pattern redaction (textops/redact.py): kernel parity vs a scalar
re-based reference, rule-order composition, null handling, block
invariance."""

import re

import pyarrow as pa
import ray.data

from parallel_louvain_method_ray.textops.redact import (
    PII_RULES,
    redact_batch,
    redact_patterns,
)

DOCS = [
    "write to bob.smith+x@mail.example.co.uk today",
    "server at 10.0.3.7 and 192.168.1.255, backup 8.8.8.8",
    "call 555-1234 or 555-9999 now",
    "a@b.io 1.2.3.4 555-0000 all three",
    "nothing to scrub here",
    "",
    None,
    "fake phone 1555-1234 should still hit via word boundary? no: 1555- has no b",
    "edge 999.999.999.999 matches the naive ip rule by design",
]


def scalar_reference(text):
    if text is None:
        return None, [None, None, None]
    counts = []
    for _, pat, repl in PII_RULES:
        counts.append(len(re.findall(pat, text)))
        text = re.sub(pat, repl, text)
    return text, counts


def test_redact_batch_matches_scalar_reference():
    s = pa.array(DOCS)
    red, counts = redact_batch(s, PII_RULES)
    red = red.to_pylist()
    got = list(
        zip(
            counts["email"].to_pylist(),
            counts["ip"].to_pylist(),
            counts["phone"].to_pylist(),
        )
    )
    for i, doc in enumerate(DOCS):
        want_text, want_counts = scalar_reference(doc)
        assert red[i] == want_text, doc
        assert list(got[i]) == want_counts, doc


def test_rule_order_prevents_double_count():
    # The email's digits-and-dots local part must NOT also count as an ip
    # or phone once the email rule has already consumed it.
    s = pa.array(["reach 1.2.3.4+555-1234@ex.org please"])
    red, counts = redact_batch(s, PII_RULES)
    assert counts["email"].to_pylist() == [1]
    assert counts["ip"].to_pylist() == [0]
    assert counts["phone"].to_pylist() == [0]
    assert red.to_pylist() == ["reach <EMAIL> please"]


def test_redact_patterns_block_invariance(ray_session):
    rows = [{"doc_id": i, "text": t or ""} for i, t in enumerate(DOCS[:6] * 7)]
    for nblocks in (1, 5):
        ds = ray.data.from_items(rows, override_num_blocks=nblocks)
        out = (
            redact_patterns(ds, "text")
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        if nblocks == 1:
            base = out
        else:
            assert base.equals(out)
    assert set(base.columns) == {"doc_id", "text", "n_email", "n_ip", "n_phone"}
    ref = scalar_reference(DOCS[3])
    row = base[base.text == ref[0]].iloc[0]
    assert [row.n_email, row.n_ip, row.n_phone] == ref[1]
