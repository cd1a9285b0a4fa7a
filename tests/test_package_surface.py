"""The package exports only what its own modules use, plus the names the
benchmark reaches by name: tools/unreferenced.py stars every name it lists."""

import contextlib
import io
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_unreferenced_export_is_named_by_the_benchmark():
    main = runpy.run_path(str(ROOT / "tools" / "unreferenced.py"))["main"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["unreferenced.py", str(ROOT / "src" / "polycheck"), str(ROOT / "perfbench")])
    *names, summary = out.getvalue().splitlines()
    assert summary.startswith(f"{len(names)} of the exported names"), summary
    assert [name for name in names if not name.endswith(" *")] == []
