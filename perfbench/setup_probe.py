"""Fresh-process set-up probe: times ``import sfmlab`` and a first CLI call.

Run by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``; prints one
JSON line with both times, the call's exit code and where sfmlab came from.
"""

import contextlib
import io
import json
import time

t0 = time.perf_counter()
import sfmlab  # noqa: E402
from sfmlab import cli  # noqa: E402

t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["rank", "affine-ortho-3d", "3", "3", "--trials", "1"])
t2 = time.perf_counter()
if code != 0:
    raise SystemExit(f"first call exited {code}")
print(json.dumps({"import_s": t1 - t0, "first_call_s": t2 - t1, "sfmlab": sfmlab.__file__}))
