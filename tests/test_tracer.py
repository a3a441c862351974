"""The benchmark's tracer (`perfbench/tracer.py`) installs on the package
and uninstalls cleanly, so a change that drops or renames a name it hooks
fails here rather than in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

from viscx import membership

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict[tuple[str, ...], object]:
    """Every attribute of every viscx module, and of every class bound in
    one, keyed by where it is bound."""
    out: dict[tuple[str, ...], object] = {}
    for name, module in list(sys.modules.items()):
        if name != "viscx" and not name.startswith("viscx."):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type):
                for cls_attr, cls_value in vars(value).items():
                    out[name, attr, cls_attr] = cls_value
    return out


def test_tracer_installs_counts_and_restores_every_binding(monkeypatch,
                                                           base_lattice):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    before = _bindings()
    tracer.install()
    try:
        patched = _bindings()
        assert ("viscx.membership", "MembershipTable", "total") in {
            key for key in patched if patched[key] is not before[key]}
        table = membership.aggregate_mu_tot([("rose", 0.8)], [], base_lattice)
        table.total("flower")
        table.total("flower")
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["membership.aggregate_mu_tot.calls"] == 1
    assert metrics["membership.concepts_read"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
