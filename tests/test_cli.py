import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pelljeru
from pelljeru import N_MAX, build2d, build3d, export
from pelljeru.cli import main

# Child interpreters import the same pelljeru as this test session, also
# from a checkout that is not installed.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(pelljeru.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_to_file(tmp_path, *args):
    out = tmp_path / "out.bin"
    code = main(list(args) + ["--out", str(out)])
    return code, out.read_bytes()


def expected_2d(n, fmt):
    sink = io.BytesIO()
    export.write2d(build2d(n), fmt, sink)
    return sink.getvalue()


def test_gen2d_csv_example(tmp_path):
    code, data = run_to_file(tmp_path, "gen2d", "--n", "3", "--format", "csv")
    assert code == 0
    rows = data.decode().splitlines()
    assert len(rows) == 5
    assert sum(row.split(",").count("1") for row in rows) == 20


def test_gen2d_default_format(tmp_path):
    code, data = run_to_file(tmp_path, "gen2d", "--n", "4")
    assert code == 0
    assert data == expected_2d(4, "pbm_ascii")


def test_gen2d_stdout(capfdbinary):
    assert main(["gen2d", "--n", "2"]) == 0
    captured = capfdbinary.readouterr()
    assert captured.out == b"P1\n2 2\n1 1\n1 1\n"


def test_gen3d_default_and_obj(tmp_path):
    code, data = run_to_file(tmp_path, "gen3d", "--n", "2")
    assert code == 0
    assert data.decode().splitlines()[0] == "0 0 0"

    sink = io.BytesIO()
    export.write3d(build3d(2), "obj_mesh", sink)
    code, data = run_to_file(tmp_path, "gen3d", "--n", "2", "--format", "obj_mesh")
    assert code == 0
    assert data == sink.getvalue()


def test_metrics_text(tmp_path):
    code, data = run_to_file(tmp_path, "metrics", "--n", "2")
    assert code == 0
    text = data.decode()
    assert "filled_2d=4" in text
    assert "fill_fraction=1.0" in text
    assert "filled_3d" not in text


def test_metrics_flags(tmp_path):
    code, data = run_to_file(tmp_path, "metrics", "--n", "3", "--3d", "--discrepancy")
    assert code == 0
    text = data.decode()
    assert "filled_3d=76" in text
    assert "discrepancy=0.16" in text


def test_metrics_csv(tmp_path):
    code, data = run_to_file(tmp_path, "metrics", "--n", "3", "--format", "csv")
    assert code == 0
    header, row = data.decode().splitlines()
    assert header.split(",")[:3] == ["n", "side", "filled_2d"]
    assert row.split(",")[:3] == ["3", "5", "20"]


def test_metrics_pell_table(tmp_path):
    code, data = run_to_file(tmp_path, "metrics", "--pell-up-to", "4")
    assert code == 0
    lines = data.decode().splitlines()
    assert len(lines) == 5
    assert lines[0] == "n=0 pell=0"
    assert lines[2].startswith("n=2 pell=2 ratio=2.0 ")

    code, data = run_to_file(tmp_path, "metrics", "--pell-up-to", "3", "--format", "csv")
    lines = data.decode().splitlines()
    assert lines[0] == "n,pell,ratio,error_to_silver,error_to_k"
    assert lines[1] == "0,0,,,"
    assert lines[-1].startswith("3,5,2.5,")


def test_compare_single(tmp_path):
    code, data = run_to_file(tmp_path, "compare", "--n", "3")
    assert code == 0
    assert data == b"0.16\n"


def test_compare_sweep(tmp_path):
    code, data = run_to_file(tmp_path, "compare", "--sweep", "4..8")
    assert code == 0
    lines = data.decode().splitlines()
    assert len(lines) == 5
    values = {}
    for ln in lines:
        n_str, v_str = ln.split()
        values[int(n_str)] = float(v_str)
    assert sorted(values) == [4, 5, 6, 7, 8]
    assert all(v > 0 for v in values.values())
    # frozen from the oracle run; the integer grids track the continuous
    # model within this band throughout the sweep
    assert values[4] == pytest.approx(16 / 144)
    assert values[8] == pytest.approx(21232 / 166464)


def test_determinism(tmp_path):
    a = run_to_file(tmp_path, "gen2d", "--n", "5", "--format", "pbm_binary")
    b = run_to_file(tmp_path, "gen2d", "--n", "5", "--format", "pbm_binary")
    assert a == b


def test_guard_errors_exit_1(tmp_path, capsys):
    assert main(["gen2d", "--n", "13"]) == 1
    assert capsys.readouterr().err.startswith("error: ")

    assert main(["gen2d", "--n", "5", "--max-build", "4"]) == 1
    assert main(["gen3d", "--n", "9"]) == 1
    assert main(["compare", "--sweep", "8..4"]) == 1
    assert main(["compare", "--sweep", "4-8"]) == 1
    assert main(["metrics", "--n", "1"]) == 1
    assert main(["metrics", "--pell-up-to", "99"]) == 1
    capsys.readouterr()


def test_max_build_override(tmp_path):
    code, data = run_to_file(tmp_path, "gen2d", "--n", "5", "--max-build", "5")
    assert code == 0
    assert data == expected_2d(5, "pbm_ascii")


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen2d"])  # --n required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen2d", "--n", "3", "--format", "stl"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--n", "3", "--pell-up-to", "4"])  # mutually exclusive
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "p.pbm"
    proc = subprocess.run(
        [sys.executable, "-m", "pelljeru", "gen2d", "--n", "3", "--out", str(out)],
        capture_output=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert out.read_bytes() == expected_2d(3, "pbm_ascii")


@pytest.mark.parametrize("command", ["gen2d", "gen3d"])
def test_build_above_pell_cap_exits_1(command):
    proc = subprocess.run(
        [sys.executable, "-m", "pelljeru", command, "--n", "89", "--max-build", "100"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert f"outside [1, {N_MAX}]" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# A --max-build level too large to allocate raises MemoryError, which must exit
# 1 like a guard error.  Every size here is above the 128 TiB x86-64 address
# space (988 TiB in 2D at n = 22, 11.6 PiB in 3D at n = 16), so no overcommit
# mode lets it allocate; levels 13..15 could really allocate and are left out.
@pytest.mark.parametrize("argv", [
    ["compare", "--n", "13"],
    ["metrics", "--n", "13", "--discrepancy"],
    ["gen2d", "--n", "22", "--max-build", "22"],
    ["gen3d", "--n", "16", "--max-build", "16"],
    ["compare", "--n", "22", "--max-build", "22"],
])
def test_guard_errors_from_lazy_imports_exit_1(argv):
    # a fresh interpreter, so the guard is raised from a module the command imports itself
    proc = subprocess.run([sys.executable, "-m", "pelljeru", *argv], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def run_child(*argv, unbuffered, stdout=subprocess.PIPE):
    """`python -m pelljeru ARGV` in a fresh interpreter, which leaves through cli.run_main.

    PYTHONUNBUFFERED is set or unset here, whatever the test session has.
    """
    env = {key: value for key, value in CHILD_ENV.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "pelljeru", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env)


def assert_one_error_line(proc):
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


# A failed write, or a failed flush of stdout on the way out, is one error
# line and exit 1, whether stdout is buffered or not; gen2d --n 10 (11 MB)
# fails inside the write and leaves bytes behind for the final flush.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ["metrics", "--n", "30"],
    ["compare", "--n", "4"],
    ["gen2d", "--n", "10"],
    ["metrics", "--pell-up-to", "88", "--out", "/dev/full"],
], ids=["metrics", "compare", "gen2d", "metrics-out-file"])
def test_failed_write_exits_1(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = run_child(*argv, unbuffered=unbuffered, stdout=full)
    assert_one_error_line(proc)


def test_closed_stdout_exits_1():
    # fd 1 closed before exec: the child starts with sys.stdout None
    proc = subprocess.run([sys.executable, "-m", "pelljeru", "metrics", "--n", "30"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=CHILD_ENV,
                          preexec_fn=lambda: os.close(1))
    assert_one_error_line(proc)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_fresh_process_writes_everything(unbuffered):
    proc = run_child("gen2d", "--n", "10", unbuffered=unbuffered)
    assert proc.returncode == 0
    assert proc.stdout == expected_2d(10, "pbm_ascii")

    proc = run_child("compare", "--sweep", "2..8", unbuffered=unbuffered)
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines() == [f"{m} {pelljeru.discrepancy(m)!r}" for m in range(2, 9)]


def test_fresh_process_argument_error_exits_2():
    proc = run_child("gen2d", unbuffered=False)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"--n" in proc.stderr


LAZY_IMPORT_CHILD = """
import os, sys
import pelljeru
from pelljeru.cli import main

loaded = {}  # module -> what first loaded it
def note(by):
    for module in ("numpy", "dataclasses"):
        if module in sys.modules:
            loaded.setdefault(module, by)

note("import pelljeru")
for argv in (["metrics", "--n", "30", "--3d"], ["metrics", "--pell-up-to", "40", "--format", "csv"],
             ["metrics", "--n", "6", "--format", "csv"]):
    assert main([*argv, "--out", os.devnull]) == 0
    note(" ".join(argv))
print("numpy or dataclasses loaded by:", loaded)

names = {}
exec("from pelljeru import *", names)
# modules in import order, so the first one that binds a name is the one defining it
homes = [sys.modules[f"pelljeru.{m}"] for m in ("pell", "grid2d", "grid3d", "exact", "metrics")]
unbound = []
for name in pelljeru.__all__:
    owner = next((vars(m)[name] for m in homes if name in vars(m)), sys.modules.get(f"pelljeru.{name}"))
    if owner is None or names[name] is not owner:
        unbound.append(name)
print("names not bound to their module's object:", unbound)
try:
    pelljeru.no_such_name
except AttributeError as exc:
    print("unknown name:", exc)
"""


def test_metrics_and_import_load_no_numpy():
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORT_CHILD], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "numpy or dataclasses loaded by: {}",
        "names not bound to their module's object: []",
        "unknown name: module 'pelljeru' has no attribute 'no_such_name'",
    ]


def test_numpy_is_the_only_runtime_dependency():
    # numpy.ma too: a plain np.unique imports it on first call, 15-30 ms of a first discrepancy
    code = (
        "import pelljeru, sys; pelljeru.discrepancy(6); "
        "print(sorted({'scipy', 'mpmath', 'numpy.ma'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
