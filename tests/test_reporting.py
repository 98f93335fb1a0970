import numpy as np

from w2lab.reporting import write_plotdata, write_table_csv


def test_numpy_scalars_are_csv_numbers(tmp_path):
    # numpy 2's float64 is a float whose repr is np.float64(...): a cell writes the
    # Python float's repr for every float-like value, and a numpy integer as an int
    path = tmp_path / "t.csv"
    row = (np.float64(0.5), np.float32(0.25), np.int64(7), 0.1, 3)
    write_table_csv(str(path), ("a", "b", "c", "d", "e"), [row], {"seed": 1})
    assert path.read_text().splitlines() == ["# seed=1", "a,b,c,d,e", "0.5,0.25,7,0.1,3"]
    # a float32 cell is its exact value as a float, not float32's short repr
    write_table_csv(str(path), ("x",), [(np.float32(0.1),)], {})
    assert path.read_text().splitlines() == ["x", repr(float(np.float32(0.1)))]


def test_plotdata_cells_match_csv_cells(tmp_path):
    path = tmp_path / "p.dat"
    write_plotdata(str(path), [np.int64(16), 32], [np.float64(0.5), 0.1], {"seed": 1})
    assert path.read_text().splitlines() == ["# seed=1", "16.0 0.5", "32.0 0.1"]


def test_checks_reexports_the_verdict():
    from w2lab import checks, reporting

    assert checks.Verdict is reporting.Verdict
