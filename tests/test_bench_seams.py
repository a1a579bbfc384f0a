"""The traced benchmark's seams: every name bench/spans.py wraps still exists where it looks."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    missing = [
        (path, attr) for path, attr, _, _ in spans.WRAPS if attr not in vars(spans._resolve(path))
    ]
    assert missing == []
    assert len(spans.WRAPS) > 30
