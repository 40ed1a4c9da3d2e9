import importlib.util
from pathlib import Path


def test_echo_scan_sparkline_prints_dips_that_tie_to_rounding_alike():
    # the field-symmetric expansion curves have mirror dips equal to about 1e-15; each
    # value is drawn at its nearest level, so the minimum sits on no character boundary
    path = Path(__file__).parent.parent / "demos" / "02_echo_scans.py"
    spec = importlib.util.spec_from_file_location("echo_scans_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)  # the demo runs only under __main__
    line = demo.sparkline([1, 0, 0.5, 1e-15, 1], 5)
    assert line[1] == line[3] == "@"
    assert line[0] == line[4] == " "
