"""Write the reference CSV of every workload case, at the default seed.

    python3 bench/make_refs.py

Run this only after a deliberate change to what the CLI emits, and say in
the change why the references moved: the benchmark's output check compares
every run against these files.
"""

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from nfcrb import cli  # noqa: E402
from workloads import DEFAULT_SEED, all_cases  # noqa: E402


def main():
    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    for case_id, case in sorted(all_cases().items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(case.argv(DEFAULT_SEED))
        if code != 0:
            raise SystemExit(f"{case_id}: nfcrb exited {code}")
        (refs / f"{case_id}.csv").write_text(out.getvalue(), encoding="utf-8")
        print(f"wrote refs/{case_id}.csv")


if __name__ == "__main__":
    main()
