import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "fam_scaling", Path(__file__).resolve().parents[1] / "scripts" / "fam_scaling.py")
fam_scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fam_scaling)


def test_cap_hit_is_reported_with_exit_10(capsys):
    """The child's cap error becomes one report line and exit 10, not a
    traceback; fam(10^6, 3) stops at once at the region-split chain bound."""
    assert fam_scaling.main(["1000000", "3"]) == 10
    out, err = capsys.readouterr()
    assert out.startswith("fam(1000000,3): exit 10 after ") and out.count("\n") == 1
    assert "MB: region splitting exceeded the cap of 1000000" in out
    assert err == ""
