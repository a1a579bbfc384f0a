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


def test_every_reconstruction_seam_records_a_call(monkeypatch, tmp_path):
    # a wrapped name that the program no longer calls would leave its span at 0
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    from semidense import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = cli.main(["pipeline", "--out", str(tmp_path / "run"), "--n-points", "60",
                       "--n-views", "6", "--n-query-views", "2"])
    finally:
        tracer.uninstall()
    assert rc == 0
    layers = ("scene", "matching", "tracks", "refine")
    names = {name for _, _, name, _ in spans.WRAPS if name.split(".")[0] in layers}
    counts = tracer.counts[tracer.phase]
    assert sorted(name for name in names if not counts.get(name + ".calls")) == []
