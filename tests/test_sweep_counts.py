"""``vflkit sweep`` checks ``sweep.counts`` when it reads the sweep section."""
from test_cli import DIGITS, _run
from vflkit import cli


def test_unsupported_count_fails_before_any_cell(tmp_path, monkeypatch,
                                                 capsys):
    called = []
    for name in ("_split", "_train_system"):
        monkeypatch.setattr(cli, name,
                            lambda *a, name=name, **k: called.append(name))
    doc = {**DIGITS, "sweep": {**DIGITS["sweep"], "kind": "participants",
                               "counts": [2, 4]}}
    code, _ = _run(tmp_path, doc, "sweep")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: sweep.counts" in err and "4" in err
    assert not called
